#ifndef GSR_CORE_GEO_REACH_H_
#define GSR_CORE_GEO_REACH_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/condensed_network.h"
#include "core/range_reach.h"
#include "exec/thread_pool.h"
#include "spatial/hierarchical_grid.h"

namespace gsr {

/// GeoReach (Sarwat & Sun [47]), the state-of-the-art RangeReach method
/// the paper compares against. It augments every vertex of the (condensed)
/// network with precomputed spatial reachability information — the
/// SPA-Graph — and answers queries with a pruned BFS:
///
///  - G-vertices carry ReachGrid(v): the hierarchical-grid cells containing
///    every spatial vertex reachable from v;
///  - R-vertices carry RMBR(v): the MBR of those points (used when the
///    ReachGrid would exceed MAX_REACH_GRIDS cells);
///  - B-vertices carry only GeoB(v), whether v reaches any spatial vertex
///    at all (used when the RMBR would exceed MAX_RMBR).
///
/// MERGE_COUNT controls merging quad-sibling cells into their parent cell.
/// GeoReach deliberately uses no graph reachability index; the traversal
/// is what the paper's 3DReach methods beat.
class GeoReachMethod : public RangeReachMethod {
 public:
  struct Options {
    /// Finest grid level splits the space into 2^grid_depth cells per axis.
    int grid_depth = 7;
    /// MAX_RMBR: a vertex whose RMBR area exceeds this fraction of the
    /// whole SPACE is downgraded to a B-vertex.
    double max_rmbr_ratio = 0.8;
    /// MAX_REACH_GRIDS: a vertex with more ReachGrid cells than this is
    /// downgraded to an R-vertex.
    uint32_t max_reach_grids = 64;
    /// MERGE_COUNT: more than this many quad-sibling cells merge into
    /// their parent cell.
    int merge_count = 3;
  };

  /// Classification of a vertex in the SPA-Graph.
  enum class SpaClass : uint8_t {
    kBFalse,  // B-vertex, GeoB = false: reaches no spatial vertex.
    kBTrue,   // B-vertex, GeoB = true.
    kR,       // R-vertex: carries RMBR.
    kG,       // G-vertex: carries ReachGrid.
  };

  /// Builds the SPA-Graph over the condensation of `cn`'s network. A
  /// non-null `pool` computes components level-by-level over the
  /// condensation DAG (a component only reads its successors' finished
  /// entries), producing the identical SPA-graph at any thread count.
  GeoReachMethod(const CondensedNetwork* cn, const Options& options,
                 exec::ThreadPool* pool = nullptr);
  explicit GeoReachMethod(const CondensedNetwork* cn)
      : GeoReachMethod(cn, Options{}) {}

  /// Per-thread BFS state (epoch-stamped marks + frontier). GeoReach's
  /// cost is the SPA-graph BFS, which vertices_visited and pruned count.
  struct Scratch : QueryScratch {
    explicit Scratch(uint32_t num_components) : mark(num_components, 0) {}
    std::vector<uint32_t> mark;
    std::vector<ComponentId> queue;
    uint32_t epoch = 0;
  };

  std::unique_ptr<QueryScratch> NewScratch() const override {
    return std::make_unique<Scratch>(cn_->num_components());
  }

  bool Evaluate(VertexId vertex, const Rect& region,
                QueryScratch& scratch) const override;

  /// Collection form: the same pruned BFS without the kAnswerTrue early
  /// exit — every visited component emits its own member points inside
  /// the region, and a component is pruned only when its SPA-graph entry
  /// proves nothing reachable from it lies in the region (B-false; RMBR
  /// disjoint; no ReachGrid cell intersecting). The BFS visits each
  /// component once, so members are emitted exactly once.
  void CollectInto(VertexId vertex, const Rect& region, ResultSink& sink,
                   QueryScratch& scratch) const override;

  /// Multi-source AnyReach: one multi-seed pruned BFS over the union of
  /// the sources' reachable components, instead of k independent
  /// traversals — overlapping friend circles share every visit.
  bool EvaluateAny(std::span<const VertexId> sources, const Rect& region,
                   QueryScratch& scratch) const override;

  using RangeReachMethod::Evaluate;
  using RangeReachMethod::EvaluateAny;

  std::string name() const override { return "GeoReach"; }

  size_t IndexSizeBytes() const override;

  /// Introspection for tests/benchmarks.
  SpaClass ClassOf(ComponentId c) const { return class_[c]; }
  const Rect& RmbrOf(ComponentId c) const { return rmbr_[c]; }
  const std::vector<GridCell>& ReachGridOf(ComponentId c) const {
    return reach_grid_[c];
  }
  const HierarchicalGrid& grid() const { return grid_; }

  struct ClassCounts {
    uint64_t b_false = 0;
    uint64_t b_true = 0;
    uint64_t r = 0;
    uint64_t g = 0;
  };
  ClassCounts CountClasses() const;

  Status SaveStructures(StructureOut& out) const override;
  static Result<std::unique_ptr<RangeReachMethod>> Load(
      StructureIn& in, const CondensedNetwork* cn, const MethodConfig& config);

 private:
  /// From-parts constructor used by the snapshot loader. The grid pyramid
  /// is deterministic given the network bounds and options, so it is
  /// rebuilt rather than persisted.
  GeoReachMethod(const CondensedNetwork* cn, const Options& options,
                 std::vector<SpaClass> classes, std::vector<Rect> rmbr,
                 std::vector<std::vector<GridCell>> reach_grid);

  /// Computes class/RMBR/ReachGrid for one component from its own spatial
  /// members and its successors' already-final entries.
  void BuildComponent(ComponentId c, double max_rmbr_area);

  /// Visit outcome for one component during the query BFS.
  enum class VisitAction { kPrune, kExpand, kAnswerTrue };
  VisitAction Visit(ComponentId c, const Rect& region) const;

  /// Collection-BFS prune test: true only when the SPA-graph entry of
  /// `c` proves no spatial vertex reachable from `c` lies in `region`.
  bool PruneForCollect(ComponentId c, const Rect& region) const;

  const CondensedNetwork* cn_;
  Options options_;
  HierarchicalGrid grid_;
  std::vector<SpaClass> class_;
  std::vector<Rect> rmbr_;                       // R-vertices (and G, exact)
  std::vector<std::vector<GridCell>> reach_grid_;  // G-vertices
};

}  // namespace gsr

#endif  // GSR_CORE_GEO_REACH_H_
