#ifndef GSR_EXEC_QUERY_SCHEDULER_H_
#define GSR_EXEC_QUERY_SCHEDULER_H_

#include <cstddef>

#include "exec/query_group.h"

namespace gsr::exec {

class BatchRunner;

/// The grouping state behind BatchRunner::RunShared, which owns one and
/// executes the groups (see BatchRunner). The arena is reused across
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

  GroupingArena arena_;
  ShareStats last_share_stats_;
};

}  // namespace gsr::exec

#endif  // GSR_EXEC_QUERY_SCHEDULER_H_
