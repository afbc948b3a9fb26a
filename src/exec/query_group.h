#ifndef GSR_EXEC_QUERY_GROUP_H_
#define GSR_EXEC_QUERY_GROUP_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "core/range_reach.h"

namespace gsr::exec {

/// Knobs for turning an admitted window of queries into shared-work
/// groups (see BatchRunner::RunShared). Queries group by query vertex
/// (axis (a): shared labeling / interval probes). A vertex's regions are
/// ordered by a coarse 64x64 grid cell of their center, over the bounds
/// of the window's region centers, before the max_group_regions split
/// (axis (b): spatially close regions land in the same group, so one
/// shared R-tree descent prunes them together instead of fanning out
/// across the tree).
struct GroupingOptions {
  /// Queries admitted per scheduling window. Grouping only happens within
  /// one window, so this is also the fairness bound: no query is
  /// reordered past more than `window` later arrivals.
  size_t window = 4096;
  /// Maximum *distinct* regions per group; clamped to simd::kMaskWidth
  /// (64) so grouped kernels can carry one query per mask bit. Duplicate
  /// (vertex, region) queries collapse onto one slot and do not count
  /// against the cap.
  size_t max_group_regions = 64;
};

/// One shared-work unit: every member query has the same query vertex and
/// its region deduplicated into `regions` (<= max_group_regions entries).
/// member_query[i] is the window-relative index of member i and
/// member_region[i] the slot of its region, so the scheduler can scatter
/// the per-region answers back to per-query answer slots.
struct QueryGroup {
  VertexId vertex = 0;
  std::vector<Rect> regions;
  std::vector<uint32_t> member_query;
  std::vector<uint32_t> member_region;
};

/// The bounds the spatial bucketing (axis (b)) snaps to: the union of
/// the window's region centers.
Rect CenterBounds(std::span<const RangeReachQuery> window);

/// Reusable allocation state for repeated grouping passes. A scheduler
/// dispatching many small windows (the open-loop serving shape) would
/// otherwise pay a fresh hash map, bucket vectors and per-group vectors
/// on every dispatch; the arena clears containers instead of freeing
/// them, so a steady-state Build touches no allocator at all. Not
/// thread-safe (RunShared keeps one per pool worker); the returned span
/// is valid until the next Build.
class GroupingArena {
 public:
  /// Partitions `window` into shared-work groups, deterministically:
  /// vertices in first-appearance order, one vertex's groups in bucketed
  /// region order, duplicates collapsed. Every query appears in exactly
  /// one group. Groups write disjoint answer slots, so they may run in
  /// any order and in parallel. The one-shard form of the Build below:
  /// every index, over CenterBounds(window).
  std::span<const QueryGroup> Build(std::span<const RangeReachQuery> window,
                                    const GroupingOptions& options);

  /// Groups only the window queries named by `indices` (window-relative,
  /// ascending), bucketing regions over `bounds`. A vertex's groups
  /// depend only on its own queries, their order and the bounds, so when
  /// `indices` holds all of a vertex's queries and `bounds` is
  /// CenterBounds(window), that vertex gets exactly the groups the
  /// whole-window Build gives it. That is what lets RunShared split a
  /// window into vertex shards and group each on its own worker.
  std::span<const QueryGroup> Build(std::span<const RangeReachQuery> window,
                                    std::span<const uint32_t> indices,
                                    const Rect& bounds,
                                    const GroupingOptions& options);

 private:
  /// Claims the next group slot, reusing its member vectors' capacity.
  QueryGroup& NewGroup();

  /// One cell of the open-addressed vertex -> bucket table. Generation
  /// stamping makes emptying the table O(1) per Build (a stamp bump, no
  /// clear): a cell is live only when its gen matches the current one.
  struct VertexSlot {
    VertexId vertex = 0;
    uint32_t bucket = 0;
    uint32_t gen = 0;
  };
  std::vector<VertexSlot> slots_;  // Power-of-two, linear probing.
  uint32_t slot_gen_ = 0;
  std::vector<std::vector<uint32_t>> buckets_;  // First buckets_used_ live.
  size_t buckets_used_ = 0;
  std::vector<std::pair<uint32_t, uint32_t>> ordered_;  // (cell, index)
  std::vector<QueryGroup> groups_;  // First groups_used_ live.
  size_t groups_used_ = 0;
  std::vector<uint32_t> all_;  // 0, 1, 2, ...: the one-shard Build's indices.
};

}  // namespace gsr::exec

#endif  // GSR_EXEC_QUERY_GROUP_H_
