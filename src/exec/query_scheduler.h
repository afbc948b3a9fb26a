#ifndef GSR_EXEC_QUERY_SCHEDULER_H_
#define GSR_EXEC_QUERY_SCHEDULER_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "exec/query_group.h"

namespace gsr::exec {

class BatchRunner;

/// The grouping state behind BatchRunner::RunShared, which owns one and
/// executes the groups (see BatchRunner). Everything is reused across
/// windows and batches, so a steady-state dispatch allocates nothing
/// (the open-loop serving shape: many small windows per second).
class QueryScheduler {
 public:
  /// Sharing achieved by the last RunShared (bench/test introspection).
  struct ShareStats {
    size_t groups = 0;            // Shared-work units executed.
    size_t queries = 0;           // Members across all groups.
    size_t distinct_regions = 0;  // Region slots after dedup.
  };
  const ShareStats& last_share_stats() const { return last_share_stats_; }

 private:
  friend class BatchRunner;

  /// What one pool worker grouped with and counted in the running batch.
  struct Worker {
    GroupingArena arena;
    ShareStats stats;
  };

  std::vector<Worker> workers_;  // One per pool worker.
  /// The running window's query indices, counting-sorted by vertex-hash
  /// shard, ascending within a shard.
  std::vector<uint32_t> shard_indices_;
  ShareStats last_share_stats_;
};

}  // namespace gsr::exec

#endif  // GSR_EXEC_QUERY_SCHEDULER_H_
