#include "exec/batch_runner.h"

#include <chrono>
#include <exception>

#include "exec/query_scheduler.h"

namespace gsr::exec {

BatchRunner::BatchRunner(ThreadPool* pool) : pool_(pool) {}
BatchRunner::~BatchRunner() = default;

void BatchRunner::EnsureScratches(const RangeReachMethod& method) {
  if (scratch_method_id_ == method.instance_id()) return;
  scratches_.clear();
  scratches_.reserve(pool_->size());
  for (unsigned i = 0; i < pool_->size(); ++i) {
    scratches_.push_back(method.NewScratch());
  }
  scratch_method_id_ = method.instance_id();
}

void BatchRunner::ParallelForThenDrain(
    const RangeReachMethod& method, size_t n, size_t chunk,
    const std::function<void(size_t index, unsigned worker)>& fn) {
  std::exception_ptr error;
  try {
    pool_->ParallelFor(n, chunk, fn);
  } catch (...) {
    error = std::current_exception();
  }
  // Fold per-worker counters into the method aggregate on this thread;
  // the pool is idle now, so no query races with the drain.
  for (const std::unique_ptr<QueryScratch>& scratch : scratches_) {
    method.DrainScratchCounters(*scratch);
  }
  if (error) std::rethrow_exception(error);
}

BatchResult BatchRunner::Run(const RangeReachMethod& method,
                             const std::vector<RangeReachQuery>& queries,
                             const BatchOptions& options) {
  EnsureScratches(method);

  BatchResult result;
  result.answers.assign(queries.size(), 0);
  if (options.kind != QueryKind::kBool) {
    result.counts.assign(queries.size(), 0);
    if (options.kind == QueryKind::kEnum) {
      result.enums.assign(queries.size(), {});
    }
  }
  if (options.record_latencies) {
    result.latencies_us.assign(queries.size(), 0.0);
  }

  // One evaluation, kind-dispatched; workers write disjoint slots of the
  // result arrays, so no synchronization is needed.
  auto eval_one = [&](size_t i, QueryScratch& scratch) {
    const RangeReachQuery& query = queries[i];
    switch (options.kind) {
      case QueryKind::kBool:
        result.answers[i] =
            method.Evaluate(query.vertex, query.region, scratch) ? 1 : 0;
        break;
      case QueryKind::kCount: {
        ResultSink sink = ResultSink::Count();
        method.CollectInto(query.vertex, query.region, sink, scratch);
        result.counts[i] = sink.count();
        result.answers[i] = sink.found() ? 1 : 0;
        break;
      }
      case QueryKind::kEnum: {
        ResultSink sink = ResultSink::Enum(&result.enums[i]);
        method.CollectInto(query.vertex, query.region, sink, scratch);
        sink.Finalize();
        result.counts[i] = sink.count();
        result.answers[i] = sink.found() ? 1 : 0;
        break;
      }
    }
  };

  ParallelForThenDrain(
      method, queries.size(), options.chunk,
      [&](size_t i, unsigned worker) {
        QueryScratch& scratch = *scratches_[worker];
        if (options.record_latencies) {
          const auto start = std::chrono::steady_clock::now();
          eval_one(i, scratch);
          const auto stop = std::chrono::steady_clock::now();
          result.latencies_us[i] =
              std::chrono::duration<double, std::micro>(stop - start).count();
        } else {
          eval_one(i, scratch);
        }
      });

  for (const uint8_t answer : result.answers) result.true_count += answer;
  return result;
}

BatchResult BatchRunner::RunAny(const RangeReachMethod& method,
                                const std::vector<AnyReachQuery>& queries,
                                const BatchOptions& options) {
  EnsureScratches(method);

  BatchResult result;
  result.answers.assign(queries.size(), 0);
  if (options.record_latencies) {
    result.latencies_us.assign(queries.size(), 0.0);
  }

  ParallelForThenDrain(
      method, queries.size(), options.chunk,
      [&](size_t i, unsigned worker) {
        const AnyReachQuery& query = queries[i];
        QueryScratch& scratch = *scratches_[worker];
        if (options.record_latencies) {
          const auto start = std::chrono::steady_clock::now();
          result.answers[i] =
              method.EvaluateAny(query.sources, query.region, scratch) ? 1 : 0;
          const auto stop = std::chrono::steady_clock::now();
          result.latencies_us[i] =
              std::chrono::duration<double, std::micro>(stop - start).count();
        } else {
          result.answers[i] =
              method.EvaluateAny(query.sources, query.region, scratch) ? 1 : 0;
        }
      });

  for (const uint8_t answer : result.answers) result.true_count += answer;
  return result;
}

BatchResult BatchRunner::RunShared(const RangeReachMethod& method,
                                   const std::vector<RangeReachQuery>& queries,
                                   const SchedulerOptions& options) {
  if (!scheduler_) scheduler_ = std::make_unique<QueryScheduler>(pool_);
  return scheduler_->Run(method, queries, options);
}

size_t BatchRunner::cached_scratch_count() const { return scratches_.size(); }

}  // namespace gsr::exec
