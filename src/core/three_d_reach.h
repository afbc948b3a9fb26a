#ifndef GSR_CORE_THREE_D_REACH_H_
#define GSR_CORE_THREE_D_REACH_H_

#include <memory>
#include <span>
#include <string>

#include "core/condensed_network.h"
#include "core/range_reach.h"
#include "labeling/interval_labeling.h"
#include "spatial/frozen_rtree.h"

namespace gsr {

/// 3DReach (Section 4.2): the paper's main contribution. The geosocial
/// network and its interval-based labeling are modelled in a 3-D space
/// whose first two dimensions are the original space and whose third is
/// the post-order-number domain. Every spatial vertex u becomes the 3-D
/// point (u.point, post(u)); a RangeReach(G, v, R) query becomes one
/// existence cuboid R x [l,h] per label [l,h] in L(v). A point inside a
/// cuboid is simultaneously (1) located in R and (2) a descendant of v, so
/// both predicates are evaluated in a single step. Each point's leaf id is
/// its vertex, so count and enum answers are the tree's hits themselves.
///
/// The MBR SCC variant indexes one box (MBR(c) x post(c)) per component
/// with spatial members instead of one point per member; hits whose box is
/// not fully inside a cuboid are verified against member points.
class ThreeDReach : public RangeReachMethod {
 public:
  struct Options {
    SccSpatialMode scc_mode = SccSpatialMode::kReplicate;
    /// Spanning-forest strategy for the underlying labeling (ablation).
    ForestStrategy forest_strategy = ForestStrategy::kDfs;
  };

  /// A non-null `pool` parallelizes the labeling build, the 3-D entry
  /// generation and the STR bulk load; the index is identical to serial.
  ThreeDReach(const CondensedNetwork* cn, const Options& options,
              exec::ThreadPool* pool = nullptr);
  explicit ThreeDReach(const CondensedNetwork* cn)
      : ThreeDReach(cn, Options{}) {}

  /// Per-thread state: the component dedup marks of EvaluateAny (friends
  /// in one SCC share a label set). The range_queries counter tracks the
  /// dominant cost: one 3-D existence query per label of the query vertex
  /// (until a hit).
  struct Scratch : QueryScratch {
    SeenMarks seen;
  };

  std::unique_ptr<QueryScratch> NewScratch() const override {
    return std::make_unique<Scratch>();
  }

  bool Evaluate(VertexId vertex, const Rect& region,
                QueryScratch& scratch) const override;

  /// Work-sharing form (replicate mode): per label of the query vertex,
  /// the cuboids of every still-pending region share one masked R-tree
  /// descent instead of one descent each. The MBR variant needs
  /// per-region hit verification mid-descent and keeps the serial loop.
  void EvaluateGroup(VertexId vertex, std::span<const Rect> regions,
                     std::span<bool> out,
                     QueryScratch& scratch) const override;

  /// Collection form: per label, one *enumerating* descent over the
  /// mode's tree. Every leaf sits at one post number and the labels are
  /// disjoint, so no leaf is met twice. A replicate hit is one answer
  /// vertex, added as is; an MBR hit is a component, whose member points
  /// inside the region are added (the MBR variant's verification).
  void CollectInto(VertexId vertex, const Rect& region, ResultSink& sink,
                   QueryScratch& scratch) const override;

  /// Grouped collection: per label, the cuboids of all regions share one
  /// masked enumerating descent (ForEachIntersectingMasked). Replicate
  /// hits go straight to their region's sink; MBR hits go through the
  /// member enumeration, so unlike the boolean group path this serves
  /// both SCC variants.
  void CollectGroupInto(VertexId vertex, std::span<const Rect> regions,
                        std::span<ResultSink> sinks,
                        QueryScratch& scratch) const override;

  /// Multi-source AnyReach (replicate mode): the cuboids of *all* the
  /// sources' labels are batched into masked existence descents — one
  /// k-way probe instead of k independent label loops. The MBR variant
  /// keeps the default per-source loop (per-hit verification).
  bool EvaluateAny(std::span<const VertexId> sources, const Rect& region,
                   QueryScratch& scratch) const override;

  using RangeReachMethod::Evaluate;
  using RangeReachMethod::EvaluateAny;

  std::string name() const override;

  size_t IndexSizeBytes() const override {
    return labeling_.SizeBytes() + RtreeSizeBytes();
  }

  const IntervalLabeling* interval_labeling() const override {
    return &labeling_;
  }

  Status SaveStructures(StructureOut& out) const override;
  static Result<std::unique_ptr<RangeReachMethod>> Load(
      StructureIn& in, const CondensedNetwork* cn, const MethodConfig& config);

 private:
  /// From-parts constructor used by the snapshot loader: no building, the
  /// index structures come in already deserialized.
  ThreeDReach(const CondensedNetwork* cn, const Options& options,
              IntervalLabeling labeling, FrozenRTreePoints3D points,
              FrozenRTree3D boxes)
      : cn_(cn),
        options_(options),
        labeling_(std::move(labeling)),
        points_(std::move(points)),
        boxes_(std::move(boxes)) {}

  /// Accepts the leaves of a loaded replicate tree only when they are
  /// exactly this network's spatial vertices, one each, at (point,
  /// post(component)). With the loads' own checks (one tree, leaf ranges
  /// tiling the entries, sorted and disjoint labels) a tree that passes
  /// answers exactly, whatever wrote it. Leaf ids are already known to
  /// be below num_vertices.
  static Status CheckReplicateLeaves(const CondensedNetwork& cn,
                                     const IntervalLabeling& labeling,
                                     std::span<const Point3D> points,
                                     std::span<const uint64_t> ids);

  /// The MBR counterpart of CheckReplicateLeaves: accepts the leaves of
  /// a loaded MBR tree only when they are exactly this network's
  /// components with spatial members, one each, with box (MBR(c),
  /// post(c)). The collection paths rely on it to need no dedup marks.
  /// Leaf ids are already known to be below num_components.
  static Status CheckMbrLeaves(const CondensedNetwork& cn,
                               const IntervalLabeling& labeling,
                               std::span<const Box3D> boxes,
                               std::span<const uint64_t> ids);

  size_t RtreeSizeBytes() const {
    return options_.scc_mode == SccSpatialMode::kReplicate
               ? points_.SizeBytes()
               : boxes_.SizeBytes();
  }

  const CondensedNetwork* cn_;
  Options options_;
  IntervalLabeling labeling_;
  // Both trees are built dynamically (STR bulk load) and frozen into the
  // packed query-side layout; only the mode's tree is non-empty.
  FrozenRTreePoints3D points_;  // kReplicate: one point per vertex, id v.
  FrozenRTree3D boxes_;         // kMbr: one flat box per component.
};

/// 3DReach-REV, the line-based variant (Section 4.2, second half). It uses
/// the *reversed* labeling: labels of the edge-reversed network, so each
/// label of u covers post numbers of u's ancestors. A spatial vertex u
/// becomes one vertical segment (u.point, [l,h]) per reversed label; a
/// query becomes a *single* plane R x post(v), which cuts a segment of u
/// iff u lies in R and v is an ancestor of u.
class ThreeDReachRev : public RangeReachMethod {
 public:
  struct Options {
    SccSpatialMode scc_mode = SccSpatialMode::kReplicate;
  };

  ThreeDReachRev(const CondensedNetwork* cn, const Options& options,
                 exec::ThreadPool* pool = nullptr);
  explicit ThreeDReachRev(const CondensedNetwork* cn)
      : ThreeDReachRev(cn, Options{}) {}

  /// Per-thread state: the collection/AnyReach dedup marks. The plane
  /// probe issues exactly one 3-D query per RangeReach, so range_queries
  /// stays zero; queries are counted as usual.
  struct Scratch : QueryScratch {
    SeenMarks seen;
    GroupSeenMarks group_seen;
  };

  std::unique_ptr<QueryScratch> NewScratch() const override {
    return std::make_unique<Scratch>();
  }

  /// The boolean paths use the scratch only for its queries counter;
  /// collection paths also use its dedup marks.
  bool Evaluate(VertexId vertex, const Rect& region,
                QueryScratch& scratch) const override;

  /// Work-sharing form (replicate mode): all planes of a group sit at the
  /// same z = post(v), so one masked descent answers the whole group. The
  /// MBR variant keeps the serial loop (per-hit verification).
  void EvaluateGroup(VertexId vertex, std::span<const Rect> regions,
                     std::span<bool> out,
                     QueryScratch& scratch) const override;

  /// Collection form: one enumerating plane descent; hit components are
  /// deduplicated and emit their member points inside the region (both
  /// SCC variants — the member enumeration doubles as verification).
  void CollectInto(VertexId vertex, const Rect& region, ResultSink& sink,
                   QueryScratch& scratch) const override;

  /// Grouped collection: all planes share z = post(v), so one masked
  /// enumerating descent feeds every sink of the group (both variants).
  void CollectGroupInto(VertexId vertex, std::span<const Rect> regions,
                        std::span<ResultSink> sinks,
                        QueryScratch& scratch) const override;

  /// Multi-source AnyReach (replicate mode): one plane per distinct
  /// source component — each at its own z = post(source) — batched into
  /// masked existence descents. The MBR variant keeps the default loop.
  bool EvaluateAny(std::span<const VertexId> sources, const Rect& region,
                   QueryScratch& scratch) const override;

  using RangeReachMethod::Evaluate;
  using RangeReachMethod::EvaluateAny;

  std::string name() const override;

  size_t IndexSizeBytes() const override {
    return labeling_.SizeBytes() + rtree_.SizeBytes();
  }

  /// The reversed labeling (post numbers refer to the reversed forest).
  const IntervalLabeling* interval_labeling() const override {
    return &labeling_;
  }

  Status SaveStructures(StructureOut& out) const override;
  static Result<std::unique_ptr<RangeReachMethod>> Load(
      StructureIn& in, const CondensedNetwork* cn, const MethodConfig& config);

 private:
  /// From-parts constructor used by the snapshot loader.
  ThreeDReachRev(const CondensedNetwork* cn, const Options& options,
                 IntervalLabeling labeling, FrozenRTree3D rtree)
      : cn_(cn),
        options_(options),
        labeling_(std::move(labeling)),
        rtree_(std::move(rtree)) {}

  const CondensedNetwork* cn_;
  Options options_;
  IntervalLabeling labeling_;
  // Vertical segments are stored as (degenerate) boxes in both SCC modes,
  // mirroring Boost ("segments and boxes are stored in a similar manner"),
  // which is why 3DReach-REV shows no MBR-variant overhead in Table 4.
  FrozenRTree3D rtree_;
};

}  // namespace gsr

#endif  // GSR_CORE_THREE_D_REACH_H_
