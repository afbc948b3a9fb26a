#ifndef GSR_EXEC_BATCH_RUNNER_H_
#define GSR_EXEC_BATCH_RUNNER_H_

#include <cstddef>
#include <cstdint>
#include <exception>
#include <memory>
#include <mutex>
#include <vector>

#include "core/range_reach.h"
#include "exec/query_group.h"
#include "exec/query_scheduler.h"
#include "exec/thread_pool.h"

namespace gsr::exec {

/// Options for one batch evaluation.
struct BatchOptions {
  /// When set, BatchResult::latencies_us gets one entry per query
  /// (steady-clock wall time of that query on its worker).
  bool record_latencies = false;
  /// What every query of the batch computes: boolean RangeReach (the
  /// default, the paper's Problem 1), RangeReachCount, or RangeReachEnum.
  /// Count/enum batches run the methods' collection paths and fill
  /// BatchResult::counts / ::enums alongside the answers.
  QueryKind kind = QueryKind::kBool;
};

/// RunShared options: the batch options plus the grouping policy. Count
/// and enum windows group exactly like boolean ones (the shared probes
/// and descents are the same) but execute through the methods'
/// CollectGroupInto hook into per-region-slot sinks. A grouped query's
/// latency is the wall time of its whole group: all members of a group
/// complete together, so that is each member's service time.
struct SchedulerOptions : BatchOptions {
  GroupingOptions grouping;
  /// Windows smaller than this skip grouping and run one query per pool
  /// task, exactly like Run. A small window has little to share — on
  /// skewed streams duplicate density grows with window size — but would
  /// still pay the shard sort, the hash-and-sort grouping pass and the
  /// dispatch of every shard; under an open-loop arrival process that
  /// fixed cost is pure added latency whenever the backlog is small. The
  /// default is sized to the *fastest* method (sub-µs 3DReach probes),
  /// whose grouping breakeven sits near a thousand queries: below it the
  /// per-query path runs at parity with Run, and real backlogs — a
  /// scheduling stall at any method's sustainable offered rate backlogs
  /// queries in proportion to that rate, so slow methods only ever see
  /// large backlogs alongside large absolute sharing wins — still group
  /// and drain faster than per-query execution can. 0 means always group.
  size_t min_window_to_group = 1024;
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
/// Each pool lane (the caller's included) gets its own QueryScratch (from
/// method.NewScratch()), so any RangeReachMethod honoring the scratch
/// contract of core/range_reach.h can be driven from all lanes at once.
/// Every entry point shares one scratch cache, kept across batches for
/// the same method (index buffers stay warm) and re-created when the
/// method changes.
///
/// Error contract, the same for every entry point: a query (or group)
/// that throws is skipped and every other one still runs; then the
/// per-worker scratch counters are folded into the method's aggregate on
/// the calling thread — so method.counters() reflects exactly the work
/// done, as if it ran serially — and the first exception is rethrown.
/// The runner stays usable afterwards.
class BatchRunner {
 public:
  /// The pool must outlive the runner.
  explicit BatchRunner(ThreadPool* pool) : pool_(pool) {}

  /// Evaluates all queries, one per index; blocks until the batch is
  /// done.
  BatchResult Run(const RangeReachMethod& method,
                  const std::vector<RangeReachQuery>& queries,
                  const BatchOptions& options = {});

  /// Evaluates all queries with shared work: queries are admitted in
  /// windows of options.grouping.window (the fairness bound: no query
  /// waits on more than one window of later arrivals), and within a
  /// window queries sharing a query vertex (and, within a vertex,
  /// spatially close regions) execute as one group through the method's
  /// EvaluateGroup / CollectGroupInto hook. The calling thread only
  /// splits each window into vertex-hash shards; each pool task claims a
  /// shard, groups it with its worker's GroupingArena and runs the
  /// shard's groups. Answers are bit-identical to Run — grouping only
  /// changes how often shared probes and descents run — which
  /// methods_agreement_test enforces for every method, thread count and
  /// kernel level.
  BatchResult RunShared(const RangeReachMethod& method,
                        const std::vector<RangeReachQuery>& queries,
                        const SchedulerOptions& options = {});

  /// Evaluates a batch of multi-source AnyReach queries, one per index,
  /// through the method's EvaluateAny hook (k-way batched probes where
  /// the method has them). Only answers/true_count are produced;
  /// BatchOptions::kind is ignored.
  BatchResult RunAny(const RangeReachMethod& method,
                     const std::vector<AnyReachQuery>& queries,
                     const BatchOptions& options = {});

  /// The grouping state behind RunShared (sharing stats of the last
  /// RunShared).
  const QueryScheduler* scheduler() const { return &scheduler_; }

  /// Number of per-lane scratches currently cached (test hook).
  size_t cached_scratch_count() const { return scratches_.size(); }

 private:
  /// (Re)fills the per-lane scratch cache for `method`.
  void EnsureScratches(const RangeReachMethod& method);

  /// Runs fn(), keeping its exception (the batch's first one) for
  /// Finish instead of letting it escape. Safe on every lane.
  template <typename Fn>
  void Guarded(const Fn& fn);

  /// Runs fn(index, lane) for every index in [0, n) on the pool's lanes,
  /// `chunk` indices per claim. An index whose fn throws is skipped
  /// (Guarded) and every other index still runs. Defined (and only
  /// instantiated) in the .cc.
  template <typename Fn>
  void ParallelFor(size_t n, size_t chunk, const Fn& fn);

  /// Ends every batch, once the pool is idle: drains the lane
  /// scratches into `method`'s counters, then rethrows the first
  /// exception ParallelFor kept, or else fills result.true_count.
  void Finish(const RangeReachMethod& method, BatchResult& result);

  ThreadPool* pool_;
  /// Scratch cache, one slot per pool lane, valid for the method whose
  /// instance_id() this holds (0 = empty). Keyed by id, not address: a
  /// destroyed method's address can be reoccupied by a new instance whose
  /// scratch layout differs.
  uint64_t scratch_method_id_ = 0;
  std::vector<std::unique_ptr<QueryScratch>> scratches_;
  /// The first exception of the running batch, set by any lane.
  std::mutex error_mutex_;
  std::exception_ptr first_error_;
  QueryScheduler scheduler_;
};

}  // namespace gsr::exec

#endif  // GSR_EXEC_BATCH_RUNNER_H_
