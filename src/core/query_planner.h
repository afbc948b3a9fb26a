#ifndef GSR_CORE_QUERY_PLANNER_H_
#define GSR_CORE_QUERY_PLANNER_H_

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/condensed_network.h"
#include "core/method_factory.h"
#include "core/range_reach.h"
#include "labeling/observations.h"
#include "spatial/grid_histogram.h"

namespace gsr {

/// Builds the observation pre-checks for `cn`: one entry per condensation
/// component, has_spatial from HasSpatialMember and the representative
/// witness point from the first spatial member. Exposed standalone so
/// fixed methods (and tests) can attach pre-checks without a planner.
Observations BuildNetworkObservations(const CondensedNetwork& cn,
                                      const Observations::Options& options);

/// The cost-based query planner: a RangeReachMethod that
/// owns several fixed methods — the *portfolio* — and answers each query
/// through a two-stage fast path.
///
/// Stage 1, O(1) observation pre-checks: the selectivity histogram's exact
/// DefinitelyEmpty rejection and the Observations whole-query settles
/// (no reachable spatial vertex -> FALSE for every kind; a reachable
/// witness point inside the region -> TRUE for boolean kinds) answer a
/// query before any index is touched. This is the only place a whole
/// query is settled: members answer from their index alone. The one
/// member-side use of the Observations object is the spatial-first
/// members' per-candidate filter (SpaReachBase::AttachObservations), so
/// queries routed there still skip reachability probes a tri-state
/// TestReach already proves.
///
/// Stage 2, cost-based routing: each member's per-query cost is estimated
/// as base_ns + per_unit_ns * feature, where the feature is the routing
/// feature of the member's kind in the method table
/// (MethodKindRow::feature in core/method_factory.h): the histogram's
/// O(1) block-sum point count over the region, |D(v)| or |L(v)| from the
/// member's interval labeling, or a constant. The coefficients are fitted
/// at build time from a small timed calibration workload
/// (PlannerOptions::calibration_samples; the kind's default cost line
/// when disabled). The cheapest member answers the query.
///
/// Both stages are proofs or pure routing, so answers are bit-identical
/// to every portfolio member (and the NaiveBFS oracle) for all query
/// kinds; only the work per query changes. All RangeReachMethod hooks are
/// implemented — grouped, collection and multi-source forms included — so
/// the planner drops into BatchRunner, the work-sharing scheduler and the
/// snapshot layer like any fixed method.
class PlannedMethod : public RangeReachMethod {
 public:
  /// Fitted cost model of one portfolio member.
  using CostModel = MethodCostModel;

  /// Composite per-thread state: one scratch per member plus gather
  /// buffers for the grouped paths. The planner's own counters count
  /// stage-1 settles and routed queries per member kind; member-level
  /// counters (probe counts, a SpaReach member's per-candidate settles)
  /// stay on the member scratches and are drained through the members.
  struct Scratch : QueryScratch {
    std::vector<std::unique_ptr<QueryScratch>> member_scratch;
    // Grouped-path staging: per-region route, gathered regions/slots of
    // the member currently executing, and its boolean answer buffer
    // (span<bool> needs real bools, so no vector<bool>).
    std::vector<uint32_t> route_of;
    std::vector<Rect> gather_regions;
    std::vector<size_t> gather_slots;
    std::unique_ptr<bool[]> gather_out;
    size_t gather_capacity = 0;
    // AnyReach staging: the sources stage 1 could not settle.
    std::vector<VertexId> pending_sources;
  };

  /// Builds the portfolio members (via CreateMethod, one per
  /// config.planner.portfolio entry with the kind swapped in), the
  /// selectivity histogram, the observations, and the calibrated cost
  /// models. `config.kind` is ignored; everything else applies to the
  /// members as usual.
  PlannedMethod(const CondensedNetwork* cn, const MethodConfig& config);

  std::unique_ptr<QueryScratch> NewScratch() const override;

  bool Evaluate(VertexId vertex, const Rect& region,
                QueryScratch& scratch) const override;
  void EvaluateGroup(VertexId vertex, std::span<const Rect> regions,
                     std::span<bool> out,
                     QueryScratch& scratch) const override;
  void CollectInto(VertexId vertex, const Rect& region, ResultSink& sink,
                   QueryScratch& scratch) const override;
  void CollectGroupInto(VertexId vertex, std::span<const Rect> regions,
                        std::span<ResultSink> sinks,
                        QueryScratch& scratch) const override;
  bool EvaluateAny(std::span<const VertexId> sources, const Rect& region,
                   QueryScratch& scratch) const override;

  using RangeReachMethod::Evaluate;
  using RangeReachMethod::EvaluateAny;

  /// Drains every member scratch through its member, then the planner's
  /// own counters through the base.
  void DrainScratchCounters(QueryScratch& scratch) const override;

  std::string name() const override { return "Planner"; }

  size_t IndexSizeBytes() const override;

  size_t num_members() const { return members_.size(); }
  const RangeReachMethod& member(size_t i) const { return *members_[i]; }
  MethodKind member_kind(size_t i) const { return options_.portfolio[i]; }
  const CostModel& cost_model(size_t i) const { return cost_models_[i]; }

  const GridHistogram& histogram() const { return histogram_; }
  const Observations& network_observations() const { return observations_; }

  /// The member index Route() would pick for (vertex, region) — exposed
  /// so tests and the bench can interrogate routing decisions without
  /// running the query.
  size_t RouteForTest(VertexId vertex, const Rect& region) const {
    return Route(cn_->ComponentOf(vertex), region);
  }

  Status SaveStructures(StructureOut& out) const override;
  static Result<std::unique_ptr<RangeReachMethod>> Load(
      StructureIn& in, const CondensedNetwork* cn, const MethodConfig& config);

 private:
  /// From-parts constructor used by the snapshot loader: members (one per
  /// options.portfolio entry), observations, histogram and cost models
  /// come in deserialized; the routing features are recomputed
  /// (deterministic from the members).
  PlannedMethod(const CondensedNetwork* cn, const PlannerOptions& options,
                std::vector<std::unique_ptr<RangeReachMethod>> members,
                Observations observations, GridHistogram histogram,
                std::vector<CostModel> cost_models);

  /// Offers the observations to every member (the spatial-first ones take
  /// them as their per-candidate filter), resolves each member's routing
  /// feature from its kind's row and derives the per-component counts
  /// the features read from the members' labelings — shared by both
  /// constructors.
  void FinishSetup();

  /// The cost driver of member `m` for a query from `source` over
  /// `region`; `spatial_estimate` caches the histogram lookup across
  /// members (pass a negative to force a fresh one).
  double Feature(size_t m, ComponentId source, const Rect& region,
                 double& spatial_estimate) const;

  /// argmin over members of base_ns + per_unit_ns * feature. Callers on
  /// the query path already paid the emptiness block sum; they pass it
  /// as `spatial_estimate` so routing never recomputes it (negative
  /// means "not known yet").
  size_t Route(ComponentId source, const Rect& region,
               double spatial_estimate = -1.0) const;
  size_t RouteAny(std::span<const VertexId> sources, const Rect& region,
                  double spatial_estimate = -1.0) const;

  /// Fits cost_models_ from a timed three-strata calibration workload
  /// (no-op without spatial vertices or with calibration_samples == 0 —
  /// the deterministic defaults stay).
  void Calibrate();

  const CondensedNetwork* cn_;
  PlannerOptions options_;
  std::vector<std::unique_ptr<RangeReachMethod>> members_;
  Observations observations_;
  GridHistogram histogram_;
  std::vector<CostModel> cost_models_;
  std::vector<RoutingFeature> features_;  // Per member, from its row.
  // Per-component feature values, indexed by component; empty unless a
  // member routes on them (see FinishSetup).
  std::vector<uint32_t> desc_count_;   // |D(c)|.
  std::vector<uint32_t> label_count_;  // |L(c)|.
};

}  // namespace gsr

#endif  // GSR_CORE_QUERY_PLANNER_H_
