#include "core/method_factory.h"

#include <iterator>

#include "common/check.h"
#include "core/naive_bfs.h"
#include "core/query_planner.h"
#include "core/soc_reach.h"
#include "core/spa_reach.h"
#include "core/three_d_reach.h"

namespace gsr {

namespace {

using Built = std::unique_ptr<RangeReachMethod>;

/// A spatial-first kind whose backend takes no options.
template <typename SpaReach>
Built CreateSpaReach(const CondensedNetwork* cn, const MethodConfig& config,
                     exec::ThreadPool* pool) {
  return std::make_unique<SpaReach>(cn, config.scc_mode, pool);
}

// The spatial-first kinds route on the region's points, SocReach on
// |D(v)|, 3DReach on |L(v)| (each label is an R-tree descent) and
// 3DReach-REV on its one plane probe.
constexpr MethodKindRow kRows[] = {
    {MethodKind::kNaiveBfs, "NaiveBFS",
     [](const CondensedNetwork* cn, const MethodConfig&,
        exec::ThreadPool*) -> Built {
       return std::make_unique<NaiveBfsMethod>(&cn->network());
     },
     nullptr, RoutingFeature::kConstant, {1e12, 1e12}},
    {MethodKind::kSpaReachBfl, "SpaReach-BFL",
     [](const CondensedNetwork* cn, const MethodConfig& config,
        exec::ThreadPool* pool) -> Built {
       return std::make_unique<SpaReachBfl>(cn, config.scc_mode, config.bfl,
                                            pool);
     },
     &SpaReachBfl::Load, RoutingFeature::kRegionBlocks, {350.0, 6.0}},
    {MethodKind::kSpaReachInt, "SpaReach-INT", &CreateSpaReach<SpaReachInt>,
     &SpaReachInt::Load, RoutingFeature::kRegionBlocks, {350.0, 4.0}},
    {MethodKind::kSpaReachPll, "SpaReach-PLL", &CreateSpaReach<SpaReachPll>,
     &SpaReachPll::Load, RoutingFeature::kRegionBlocks, {350.0, 5.0}},
    {MethodKind::kSpaReachFeline, "SpaReach-Feline",
     &CreateSpaReach<SpaReachFeline>, &SpaReachFeline::Load,
     RoutingFeature::kRegionBlocks, {350.0, 5.0}},
    {MethodKind::kGeoReach, "GeoReach",
     [](const CondensedNetwork* cn, const MethodConfig& config,
        exec::ThreadPool* pool) -> Built {
       return std::make_unique<GeoReachMethod>(cn, config.geo_reach, pool);
     },
     &GeoReachMethod::Load, RoutingFeature::kRegionBlocks, {700.0, 3.0}},
    {MethodKind::kSocReach, "SocReach",
     [](const CondensedNetwork* cn, const MethodConfig&,
        exec::ThreadPool* pool) -> Built {
       return std::make_unique<SocReach>(cn, pool);
     },
     &SocReach::Load, RoutingFeature::kDescendants, {250.0, 2.5}},
    {MethodKind::kThreeDReach, "3DReach",
     [](const CondensedNetwork* cn, const MethodConfig& config,
        exec::ThreadPool* pool) -> Built {
       return std::make_unique<ThreeDReach>(
           cn,
           ThreeDReach::Options{.scc_mode = config.scc_mode,
                                .forest_strategy = config.forest_strategy},
           pool);
     },
     &ThreeDReach::Load, RoutingFeature::kLabels, {450.0, 220.0}},
    {MethodKind::kThreeDReachRev, "3DReach-REV",
     [](const CondensedNetwork* cn, const MethodConfig& config,
        exec::ThreadPool* pool) -> Built {
       return std::make_unique<ThreeDReachRev>(
           cn, ThreeDReachRev::Options{.scc_mode = config.scc_mode}, pool);
     },
     &ThreeDReachRev::Load, RoutingFeature::kConstant, {900.0, 0.0}},
    {MethodKind::kPlanner, "Planner",
     [](const CondensedNetwork* cn, const MethodConfig& config,
        exec::ThreadPool*) -> Built {
       // The planner builds its members through CreateMethod itself, so
       // each member gets its own scoped build pool.
       return std::make_unique<PlannedMethod>(cn, config);
     },
     &PlannedMethod::Load, RoutingFeature::kConstant, {1e12, 1e12}},
};

constexpr bool RowsInKindOrder() {
  for (size_t k = 0; k < std::size(kRows); ++k) {
    if (kRows[k].kind != static_cast<MethodKind>(k)) return false;
  }
  return std::size(kRows) == kMethodKindCount;
}
static_assert(RowsInKindOrder(), "one row per MethodKind, in enum order");

}  // namespace

const MethodKindRow& MethodKindRowOf(MethodKind kind) {
  const size_t k = static_cast<size_t>(kind);
  GSR_CHECK(k < std::size(kRows));
  return kRows[k];
}

const char* MethodKindName(MethodKind kind) {
  return MethodKindRowOf(kind).name;
}

std::unique_ptr<RangeReachMethod> CreateMethod(const CondensedNetwork* cn,
                                               const MethodConfig& config) {
  // One pool (possibly none, = serial) drives every build stage of the
  // method; it is torn down when construction finishes.
  exec::ScopedBuildPool build_pool(config.build);
  return MethodKindRowOf(config.kind).create(cn, config, build_pool.get());
}

std::vector<MethodConfig> Figure7MethodConfigs() {
  std::vector<MethodConfig> configs;
  for (const MethodKind kind :
       {MethodKind::kSpaReachBfl, MethodKind::kGeoReach, MethodKind::kSocReach,
        MethodKind::kThreeDReach, MethodKind::kThreeDReachRev}) {
    MethodConfig config;
    config.kind = kind;
    configs.push_back(config);
  }
  return configs;
}

}  // namespace gsr
