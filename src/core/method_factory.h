#ifndef GSR_CORE_METHOD_FACTORY_H_
#define GSR_CORE_METHOD_FACTORY_H_

#include <memory>
#include <vector>

#include "core/condensed_network.h"
#include "core/geo_reach.h"
#include "core/range_reach.h"
#include "exec/build_options.h"
#include "labeling/bfl.h"

namespace gsr {

/// Returns e.g. "SpaReach-BFL".
const char* MethodKindName(MethodKind kind);

/// Configuration of the cost-based planner (src/core/query_planner.h):
/// which fixed methods form the portfolio, the selectivity histogram
/// resolution, the observation pre-check sizes and the build-time
/// calibration budget. Lives here (not in query_planner.h) so
/// MethodConfig can embed it without an include cycle.
struct PlannerOptions {
  /// The candidate methods the planner builds and routes between. Must be
  /// non-empty and must not contain kPlanner or kNaiveBfs.
  std::vector<MethodKind> portfolio = {
      MethodKind::kSpaReachBfl, MethodKind::kSocReach,
      MethodKind::kThreeDReach};
  /// Grid resolution of the selectivity histogram (cells per axis).
  int histogram_resolution = 128;
  /// Timed sample queries per selectivity stratum used to fit each
  /// member's cost coefficients at build time; 0 keeps the deterministic
  /// built-in defaults. Calibration affects routing only — answers are
  /// bit-identical either way.
  uint32_t calibration_samples = 48;
  /// Seed for calibration workload generation (and nothing else).
  uint64_t seed = 0x9E370001ULL;
  /// Observation pre-check sizes (see Observations::Options).
  uint32_t observation_intervals = 2;
  uint32_t observation_supportive = 16;
};

/// Everything needed to instantiate one method.
struct MethodConfig {
  MethodKind kind = MethodKind::kThreeDReach;
  /// SCC spatial handling (Section 5); ignored by methods without spatial
  /// indexing (SocReach, GeoReach, NaiveBFS).
  SccSpatialMode scc_mode = SccSpatialMode::kReplicate;
  GeoReachMethod::Options geo_reach;
  BflIndex::Options bfl;
  /// Spanning-forest strategy for interval labelings built by 3DReach
  /// (other labeling users keep their own defaults). Persisted in
  /// snapshots so a loaded method reproduces the configured build.
  ForestStrategy forest_strategy = ForestStrategy::kDfs;
  /// Index-construction parallelism (see exec::BuildOptions). Defaults to
  /// serial; any thread count builds the identical index.
  exec::BuildOptions build;
  /// Planner portfolio and calibration (kind == kPlanner only).
  PlannerOptions planner;
};

/// Instantiates a method over a prebuilt condensation. Building the index
/// happens inside this call, so wrapping it in a stopwatch measures the
/// per-method indexing time of Table 5.
std::unique_ptr<RangeReachMethod> CreateMethod(const CondensedNetwork* cn,
                                               const MethodConfig& config);

/// What the planner prices a member's query by: its kind's cost driver.
enum class RoutingFeature : uint8_t {
  kRegionBlocks,  // Points in the region (histogram block count).
  kDescendants,   // |D(v)|, from the member's interval labeling.
  kLabels,        // |L(v)|, from the member's interval labeling.
  kConstant,      // One probe, whatever the query.
};

/// cost_ns(query) = base_ns + per_unit_ns * feature(query).
struct MethodCostModel {
  double base_ns = 0.0;
  double per_unit_ns = 0.0;
};

/// One row of the method table (core/method_factory.cc, in MethodKind
/// order): all that the factory, the snapshot loader and the planner
/// know about a kind.
struct MethodKindRow {
  MethodKind kind;
  const char* name;
  std::unique_ptr<RangeReachMethod> (*create)(const CondensedNetwork* cn,
                                              const MethodConfig& config,
                                              exec::ThreadPool* pool);
  /// The class's static Load; null for the index-free NaiveBFS.
  Result<std::unique_ptr<RangeReachMethod>> (*load)(
      StructureIn& in, const CondensedNetwork* cn, const MethodConfig& config);
  RoutingFeature feature;
  /// The planner's cost line when calibration is off (or impossible: no
  /// spatial vertices); only the ratios between kinds matter.
  MethodCostModel default_cost;
};

const MethodKindRow& MethodKindRowOf(MethodKind kind);

/// The five contenders of the final comparison (Figure 7), replicate mode.
std::vector<MethodConfig> Figure7MethodConfigs();

}  // namespace gsr

#endif  // GSR_CORE_METHOD_FACTORY_H_
