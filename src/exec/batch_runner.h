#ifndef GSR_EXEC_BATCH_RUNNER_H_
#define GSR_EXEC_BATCH_RUNNER_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "core/range_reach.h"
#include "exec/query_group.h"
#include "exec/thread_pool.h"

namespace gsr::exec {

class QueryScheduler;

/// Tuning knobs for one batch evaluation.
struct BatchOptions {
  /// Queries per chunk claimed from the shared cursor. Large enough to
  /// amortize the atomic increment, small enough to balance skewed
  /// per-query costs (a BFS miss can be 1000x a label-lookup hit).
  size_t chunk = 32;
  /// When set, BatchResult::latencies_us gets one entry per query
  /// (steady-clock wall time of that query on its worker).
  bool record_latencies = false;
  /// What every query of the batch computes: boolean RangeReach (the
  /// default, the paper's Problem 1), RangeReachCount, or RangeReachEnum.
  /// Count/enum batches run the methods' collection paths and fill
  /// BatchResult::counts / ::enums alongside the answers.
  QueryKind kind = QueryKind::kBool;
};

/// Answers for one batch.
struct BatchResult {
  /// answers[i] == 1 iff queries[i] is TRUE (for count/enum kinds: iff
  /// the result set is non-empty). uint8_t (not vector<bool>) so
  /// concurrent writes to distinct indices are race-free.
  std::vector<uint8_t> answers;
  /// Number of TRUE answers (== sum of answers).
  size_t true_count = 0;
  /// counts[i] == |result set of queries[i]|; filled for kCount and
  /// kEnum batches, empty for kBool.
  std::vector<uint64_t> counts;
  /// enums[i] == the result vertices of queries[i] in canonical
  /// (ascending) order; filled for kEnum batches only.
  std::vector<std::vector<VertexId>> enums;
  /// Per-query latencies in microseconds, parallel to answers; empty
  /// unless BatchOptions::record_latencies.
  std::vector<double> latencies_us;
};

/// Evaluates batches of RangeReach queries on a thread pool.
///
/// Each pool worker gets its own QueryScratch (created via
/// method.NewScratch()), so any RangeReachMethod honoring the scratch
/// contract of core/range_reach.h can be driven from all workers at once.
/// After every batch the per-worker scratch counters are folded into the
/// method's aggregate counters on the calling thread, so
/// method.counters() reflects batch work exactly as if it ran serially.
///
/// Scratches are cached across Run() calls for the same method (index
/// buffers stay warm); switching methods re-creates them.
class BatchRunner {
 public:
  /// The pool must outlive the runner. Constructor and destructor are
  /// out of line: QueryScheduler is an incomplete type here.
  explicit BatchRunner(ThreadPool* pool);
  ~BatchRunner();

  /// Evaluates all queries; blocks until the batch is done. Rethrows the
  /// first exception any query evaluation threw.
  BatchResult Run(const RangeReachMethod& method,
                  const std::vector<RangeReachQuery>& queries,
                  const BatchOptions& options = {});

  /// Evaluates all queries through the work-sharing QueryScheduler:
  /// queries sharing a query vertex (and, within a vertex, spatially
  /// close regions) execute as one group via the method's EvaluateGroup
  /// hook. Answers are bit-identical to Run; shared probes/descents make
  /// it faster on skewed streams. The scheduler (and its scratch cache)
  /// persists across calls, like Run's.
  BatchResult RunShared(const RangeReachMethod& method,
                        const std::vector<RangeReachQuery>& queries,
                        const SchedulerOptions& options = {});

  /// Evaluates a batch of multi-source AnyReach queries (one per pool
  /// task, through the method's EvaluateAny hook — k-way batched probes
  /// where the method has them). Only answers/true_count are produced;
  /// BatchOptions::kind is ignored.
  BatchResult RunAny(const RangeReachMethod& method,
                     const std::vector<AnyReachQuery>& queries,
                     const BatchOptions& options = {});

  /// The scheduler behind RunShared (sharing stats); nullptr until the
  /// first RunShared call.
  const QueryScheduler* scheduler() const { return scheduler_.get(); }

  /// Number of per-worker scratches currently cached (test hook).
  size_t cached_scratch_count() const;

 private:
  /// (Re)fills the per-worker scratch cache for `method`.
  void EnsureScratches(const RangeReachMethod& method);

  /// pool_->ParallelFor(n, chunk, fn), then drains the scratches into
  /// `method`'s counters — also when a query threw, before rethrowing, so
  /// a failed batch's completed queries are neither lost nor billed to
  /// the next batch.
  void ParallelForThenDrain(
      const RangeReachMethod& method, size_t n, size_t chunk,
      const std::function<void(size_t index, unsigned worker)>& fn);

  ThreadPool* pool_;
  /// Scratch cache, one slot per pool worker, valid for the method whose
  /// instance_id() this holds (0 = empty). Keyed by id, not address: a
  /// destroyed method's address can be reoccupied by a new instance whose
  /// scratch layout differs.
  uint64_t scratch_method_id_ = 0;
  std::vector<std::unique_ptr<QueryScratch>> scratches_;
  /// Lazily created by RunShared (incomplete type here; the destructor
  /// is out of line for the same reason).
  std::unique_ptr<QueryScheduler> scheduler_;
};

}  // namespace gsr::exec

#endif  // GSR_EXEC_BATCH_RUNNER_H_
