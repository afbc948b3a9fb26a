#include "core/method_factory.h"

#include "common/check.h"
#include "core/naive_bfs.h"
#include "core/query_planner.h"
#include "core/soc_reach.h"
#include "core/spa_reach.h"
#include "core/three_d_reach.h"

namespace gsr {

const char* MethodKindName(MethodKind kind) {
  switch (kind) {
    case MethodKind::kNaiveBfs:
      return "NaiveBFS";
    case MethodKind::kSpaReachBfl:
      return "SpaReach-BFL";
    case MethodKind::kSpaReachInt:
      return "SpaReach-INT";
    case MethodKind::kSpaReachPll:
      return "SpaReach-PLL";
    case MethodKind::kSpaReachFeline:
      return "SpaReach-Feline";
    case MethodKind::kGeoReach:
      return "GeoReach";
    case MethodKind::kSocReach:
      return "SocReach";
    case MethodKind::kThreeDReach:
      return "3DReach";
    case MethodKind::kThreeDReachRev:
      return "3DReach-REV";
    case MethodKind::kPlanner:
      return "Planner";
  }
  return "Unknown";
}

std::unique_ptr<RangeReachMethod> CreateMethod(const CondensedNetwork* cn,
                                               const MethodConfig& config) {
  // One pool (possibly none, = serial) drives every build stage of the
  // method; it is torn down when construction finishes.
  exec::ScopedBuildPool build_pool(config.build);
  exec::ThreadPool* pool = build_pool.get();
  switch (config.kind) {
    case MethodKind::kNaiveBfs:
      return std::make_unique<NaiveBfsMethod>(&cn->network());
    case MethodKind::kSpaReachBfl:
      return std::make_unique<SpaReachBfl>(cn, config.scc_mode, config.bfl,
                                           pool);
    case MethodKind::kSpaReachInt:
      return std::make_unique<SpaReachInt>(cn, config.scc_mode, pool);
    case MethodKind::kSpaReachPll:
      return std::make_unique<SpaReachPll>(cn, config.scc_mode, pool);
    case MethodKind::kSpaReachFeline:
      return std::make_unique<SpaReachFeline>(cn, config.scc_mode, pool);
    case MethodKind::kGeoReach:
      return std::make_unique<GeoReachMethod>(cn, config.geo_reach, pool);
    case MethodKind::kSocReach:
      return std::make_unique<SocReach>(cn, pool);
    case MethodKind::kThreeDReach:
      return std::make_unique<ThreeDReach>(
          cn,
          ThreeDReach::Options{.scc_mode = config.scc_mode,
                               .forest_strategy = config.forest_strategy},
          pool);
    case MethodKind::kThreeDReachRev:
      return std::make_unique<ThreeDReachRev>(
          cn, ThreeDReachRev::Options{.scc_mode = config.scc_mode}, pool);
    case MethodKind::kPlanner:
      GSR_CHECK(!config.planner.portfolio.empty());
      for (const MethodKind member : config.planner.portfolio) {
        GSR_CHECK(member != MethodKind::kPlanner &&
                  member != MethodKind::kNaiveBfs);
      }
      // The planner builds its members through CreateMethod itself, so
      // each member gets its own scoped build pool.
      return std::make_unique<PlannedMethod>(cn, config);
  }
  return nullptr;
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
