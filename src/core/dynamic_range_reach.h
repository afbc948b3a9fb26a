#ifndef GSR_CORE_DYNAMIC_RANGE_REACH_H_
#define GSR_CORE_DYNAMIC_RANGE_REACH_H_

#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "core/condensed_network.h"
#include "core/geosocial_network.h"
#include "core/method_snapshot.h"
#include "core/result_sink.h"
#include "core/three_d_reach.h"
#include "core/update_log.h"

namespace gsr {

namespace exec {
class EpochView;
class ThreadPool;
}

/// Incrementally updatable RangeReach evaluation — the paper's Section-8
/// future-work item ("how our approach can efficiently handle updates in
/// the network"), grown from a sketch into the streaming engine behind
/// exec::StreamingRangeReach. The design is the classic base + delta of
/// production index systems (cf. DAGGER's motivation: maintain, don't
/// rebuild per update):
///
///  - an immutable *Base* snapshot of the network carries a full 3DReach
///    index and remembers the UpdateLog position it folds in; bases are
///    shared (shared_ptr) between the live engine, pinned epoch views,
///    and in-flight background rebuilds;
///  - the full update set — vertex arrivals, check-ins (SetPoint),
///    check-outs (ClearPoint), edge insert/delete — accumulates in a
///    small *Delta* overlay consulted at query time;
///  - every applied state-changing update is appended to an UpdateLog,
///    whose positions are the time axis: a (base, delta) pair always
///    reproduces the network MaterializeNetwork() builds from the initial
///    snapshot plus the log prefix — *bit-identically*, which the tests
///    enforce against a rebuilt-from-scratch NaiveBFS oracle;
///  - Rebuild() (or a background rebuild through InstallBase) folds the
///    log into a fresh Base; the delta shrinks to the log suffix.
///
/// Query strategy: with an insert-only delta (no deleted base edges, no
/// moved/cleared base points) the delta search runs an *optimistic*
/// evaluation that treats the base index as exact — and it IS exact.
/// Once the delta turns risky() — a base edge was deleted or a base
/// point went stale — the base index may over-approximate, so a query is
/// first answered by a budgeted exact search of the live overlay graph
/// (base edges minus deleted, plus inserted, current points; O'Reach's
/// "cheap exact test first"). A witness found or the search exhausted
/// decides the query; only when the budget runs out does the optimistic
/// pass run, whose FALSE stays exact (it explores a superset of the live
/// reachability) and whose TRUE is settled by an unbounded overlay
/// search. Risky deltas therefore degrade speed, never correctness.
///
/// Concurrency: the engine itself is single-writer — one thread calls
/// Apply/Rebuild/InstallBase. Readers take an immutable View via
/// Snapshot() (cheap: shared base pointer + delta copy) and query it
/// through exec::EpochView, the one read surface, from any number of
/// threads, one Scratch each. exec::StreamingRangeReach wraps this in an
/// epoch manager so readers keep answering while a background thread
/// rebuilds and hot-swaps the base.
class DynamicRangeReach {
 public:
  /// An immutable base snapshot: the network at log position `position`
  /// with a fully built 3DReach index. Shared by the engine, epoch views,
  /// and rebuild tasks; destroyed when the last holder drops it.
  struct Base {
    std::shared_ptr<const GeoSocialNetwork> network;
    std::shared_ptr<const CondensedNetwork> cn;
    std::unique_ptr<RangeReachMethod> method;
    /// `method` downcast: the base index is always a ThreeDReach (built
    /// directly or round-tripped through the snapshot layer).
    const ThreeDReach* index = nullptr;
    /// UpdateLog position this base folds in: the network equals the
    /// initial snapshot plus log entries [0, position).
    uint64_t position = 0;
    /// True when `method` was hot-swapped in through the snapshot layer
    /// (bench/stats surface this; answers are identical either way).
    bool from_snapshot = false;

    VertexId num_vertices() const { return network->num_vertices(); }
    size_t IndexSizeBytes() const { return method->IndexSizeBytes(); }

    /// Builds a base over `network` at log position `position`. A non-null
    /// `pool` parallelizes the 3DReach build (identical index). It must be
    /// nullptr when called from inside a ParallelFor body (a nested
    /// ParallelFor fails a GSR_CHECK).
    static std::shared_ptr<const Base> Build(GeoSocialNetwork network,
                                             uint64_t position,
                                             exec::ThreadPool* pool = nullptr);

    /// Round-trips `built`'s index through the PR-4 snapshot layer: saves
    /// to `path`, reloads with `mode` (kMmap keeps the index arrays as
    /// zero-copy views into the file), and returns a new Base sharing
    /// `built`'s network/condensation. This is the hot-swap path of the
    /// streaming engine: the rebuilt base the readers switch to is the
    /// snapshot-loaded one. Answers are bit-identical to `built`.
    static Result<std::shared_ptr<const Base>> RoundTripThroughSnapshot(
        const std::shared_ptr<const Base>& built, const std::string& path,
        snapshot::LoadMode mode);
  };

  /// The delta overlay: every difference between the current network and
  /// the base snapshot, in query-ready sorted form. A plain value — a
  /// View snapshots the live delta by copying it (bitmap included: nb/8
  /// bytes, next to the override list itself).
  struct Delta {
    /// Points of vertices added since the base, id = base vertices + i.
    std::vector<std::optional<Point2D>> added_points;
    /// Inserted edges, sorted by (from, to); never duplicates a live base
    /// edge (inserting a deleted base edge un-deletes it instead).
    std::vector<std::pair<VertexId, VertexId>> inserted_edges;
    /// Distinct endpoints of inserted_edges, sorted — the stitch points
    /// of the optimistic delta search.
    std::vector<VertexId> stitch_nodes;
    /// Current point of base vertices whose point changed (moved, gained,
    /// or cleared), sorted by vertex.
    std::vector<std::pair<VertexId, std::optional<Point2D>>> point_overrides;
    /// One bit per base vertex, set when it has a point_overrides entry:
    /// OverrideFor binary-searches only on a set bit. Sized when the base
    /// is installed (a vertex past its end has no override); bits are
    /// never cleared, because an override entry is only ever reset to
    /// nullopt, never erased.
    std::vector<uint64_t> overridden;
    /// Deleted *base* edges, sorted by (from, to); deleting an inserted
    /// edge removes it from inserted_edges instead.
    std::vector<std::pair<VertexId, VertexId>> deleted_edges;
    /// Number of base-spatial vertices whose base point is stale (the
    /// vertex moved or cleared it). While 0 and deleted_edges is empty,
    /// the base index never produces a false positive.
    size_t stale_base_points = 0;

    bool empty() const {
      return added_points.empty() && inserted_edges.empty() &&
             point_overrides.empty() && deleted_edges.empty();
    }
    /// Pending-update count steering rebuild policy.
    size_t size() const {
      return added_points.size() + inserted_edges.size() +
             point_overrides.size() + deleted_edges.size();
    }
    /// True when the base index may over-approximate: a base edge was
    /// deleted or a base point is stale. Queries then go to the exact
    /// overlay search first; optimistic FALSE answers stay exact.
    bool risky() const {
      return stale_base_points > 0 || !deleted_edges.empty();
    }
    /// The override entry for base vertex `v`, or nullptr. O(1) unless
    /// `v` has one.
    const std::optional<Point2D>* OverrideFor(VertexId v) const;
    size_t SizeBytes() const;
  };

  /// Per-thread query state: a scratch for the base index (re-created
  /// when the view's base changes under it — hot swaps invalidate it),
  /// the stitch-search marks, and the overlay-search buffers. Overlay
  /// expansions count into counters.vertices_visited. Obtain via
  /// exec::EpochView::NewScratch; one per reader thread.
  struct Scratch : QueryScratch {
    std::unique_ptr<QueryScratch> base;
    uint64_t base_instance = 0;  // instance_id() of `base`'s owner method.
    std::vector<uint8_t> node_visited;
    std::vector<uint32_t> queue;
    std::vector<VertexId> extra_targets;
    std::vector<VertexId> overlay_queue;
    // Overlay-search visit marks (also exactly-once delivery marks of the
    // insert-only collection) and the arena the base index's per-anchor
    // collections land in before dedup.
    SeenMarks seen;
    std::vector<VertexId> collect_arena;
  };

  /// An immutable point-in-time state: shared base + delta copy. This is
  /// what an epoch pins; exec::EpochView answers queries over it.
  struct View {
    std::shared_ptr<const Base> base;
    Delta delta;
    /// The log position this view reflects (base->position plus the delta
    /// updates).
    uint64_t position = 0;

    VertexId num_vertices() const {
      return base->num_vertices() +
             static_cast<VertexId>(delta.added_points.size());
    }
    size_t SizeBytes() const {
      return base->IndexSizeBytes() + delta.SizeBytes();
    }
  };

  /// Takes ownership of the initial network snapshot and builds the base
  /// index over it. A non-null `pool` parallelizes base (re)builds.
  explicit DynamicRangeReach(GeoSocialNetwork network,
                             exec::ThreadPool* pool = nullptr);

  /// Total vertices (base + added).
  VertexId num_vertices() const {
    return base_->num_vertices() +
           static_cast<VertexId>(delta_.added_points.size());
  }

  // --- Writer API (single-writer; see class comment).

  /// Applies one Update, appending it to the update log when it changes
  /// network state; no-ops (self-loops, duplicate inserts, deleting an
  /// absent edge, setting an identical point) return Ok without logging.
  /// Returns the new vertex id for kAddVertex, kInvalidVertex otherwise.
  Result<VertexId> Apply(const Update& update);

  /// Number of pending delta entries (rebuild-policy signal).
  size_t pending_updates() const { return delta_.size(); }

  /// An immutable snapshot of the current (base, delta) — what epoch
  /// publication hands to readers.
  std::shared_ptr<const View> Snapshot() const;

  // --- Rebuild / epoch plumbing.

  /// Folds every pending update into a fresh base (built on the ctor
  /// pool). O(rebuild); afterwards pending_updates() == 0.
  void Rebuild();

  /// Installs `base` (typically built in the background from
  /// MaterializeAt/CopyLog) and re-derives the delta by replaying the log
  /// suffix [base->position, log_size()). The engine's observable network
  /// state is unchanged — only the base/delta split moves.
  void InstallBase(std::shared_ptr<const Base> base);

  /// The network at log position `position` (must lie in
  /// [base position, log_size()]), materialized from base + log range.
  GeoSocialNetwork MaterializeAt(uint64_t position) const;

  const std::shared_ptr<const Base>& base() const { return base_; }
  uint64_t log_size() const { return log_.size(); }
  std::vector<Update> CopyLog(uint64_t from, uint64_t to) const {
    return log_.CopyRange(from, to);
  }

 private:
  /// Applies `update` to `delta_` (no logging). Returns whether network
  /// state changed; errors on out-of-range vertices.
  Result<bool> ApplyToDelta(const Update& update);

  /// The evaluation routine behind exec::EpochView::Evaluate (strategy
  /// in the class comment).
  static bool EvaluateImpl(const Base& base, const Delta& delta,
                           VertexId vertex, const Rect& region,
                           Scratch& scratch);
  static bool OptimisticEvaluate(const Base& base, const Delta& delta,
                                 VertexId vertex, const Rect& region,
                                 Scratch& scratch);

  enum class SearchOutcome { kFound, kExhausted, kBudget };
  /// BFS of the live overlay graph from `vertex` (base out-edges minus
  /// deleted, plus inserted), testing each vertex's current point when it
  /// is discovered: a witness among `vertex`'s out-neighbors ends it
  /// after one expansion. kBudget means `max_expansions` expansions left
  /// vertices unexpanded. With a non-null `sink` it collects instead: no
  /// early exit, each discovered vertex inside `region` Add()ed once.
  static SearchOutcome OverlaySearch(const Base& base, const Delta& delta,
                                     VertexId vertex, const Rect& region,
                                     size_t max_expansions, ResultSink* sink,
                                     Scratch& scratch);
  /// The collection routine behind exec::EpochView::CollectInto: every
  /// distinct vertex whose current point lies in `region` and that
  /// `vertex` reaches is Add()ed exactly once, in unspecified order
  /// (count/enum sinks only).
  static void CollectImpl(const Base& base, const Delta& delta,
                          VertexId vertex, const Rect& region,
                          ResultSink& sink, Scratch& scratch);
  /// The point of `v` in the *current* network (override-aware).
  static std::optional<Point2D> CurrentPoint(const Base& base,
                                             const Delta& delta, VertexId v);
  friend class exec::EpochView;

  exec::ThreadPool* pool_ = nullptr;
  std::shared_ptr<const Base> base_;
  Delta delta_;
  UpdateLog log_;
};

}  // namespace gsr

#endif  // GSR_CORE_DYNAMIC_RANGE_REACH_H_
