#include "exec/batch_runner.h"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <span>
#include <utility>

#include "common/check.h"
#include "common/simd.h"

namespace gsr::exec {

namespace {

/// Queries per claim from the shared cursor. Large enough to amortize
/// the atomic increment, small enough to balance skewed per-query costs
/// (a BFS miss can be 1000x a label-lookup hit).
constexpr size_t kChunk = 32;

using Clock = std::chrono::steady_clock;

double MicrosSince(Clock::time_point begin) {
  return std::chrono::duration<double, std::micro>(Clock::now() - begin)
      .count();
}

BatchResult SizedResult(size_t n, const BatchOptions& options) {
  BatchResult result;
  result.answers.assign(n, 0);
  if (options.kind != QueryKind::kBool) result.counts.assign(n, 0);
  if (options.kind == QueryKind::kEnum) result.enums.assign(n, {});
  if (options.record_latencies) result.latencies_us.assign(n, 0.0);
  return result;
}

void EvaluateQueryInto(const RangeReachMethod& method,
                       const RangeReachQuery& query, ResultSink& sink,
                       QueryScratch& scratch) {
  method.EvaluateInto(query.vertex, query.region, sink, scratch);
}

void EvaluateQueryInto(const RangeReachMethod& method,
                       const AnyReachQuery& query, ResultSink& sink,
                       QueryScratch& scratch) {
  if (method.EvaluateAny(query.sources, query.region, scratch)) {
    sink.MarkFound();
  }
}

/// The per-query routine of every entry point: evaluates `query` into a
/// sink of the batch's kind and stores its answer, count, enum result
/// and latency in slot `i` of `result`. The clock is read only when
/// latencies were asked for: at sub-microsecond methods a steady_clock
/// call per query is measurable drag.
template <typename Query>
void EvaluateOne(const RangeReachMethod& method, const Query& query, size_t i,
                 const BatchOptions& options, QueryScratch& scratch,
                 BatchResult& result) {
  Clock::time_point begin;
  if (options.record_latencies) begin = Clock::now();
  ResultSink sink = options.kind == QueryKind::kCount ? ResultSink::Count()
                    : options.kind == QueryKind::kEnum
                        ? ResultSink::Enum(&result.enums[i])
                        : ResultSink::Bool();
  EvaluateQueryInto(method, query, sink, scratch);
  if (options.kind == QueryKind::kEnum) sink.Finalize();
  result.answers[i] = sink.found() ? 1 : 0;
  if (options.kind != QueryKind::kBool) result.counts[i] = sink.count();
  if (options.record_latencies) result.latencies_us[i] = MicrosSince(begin);
}

/// Executes one group of the window starting at query `start` and
/// scatters its per-region results to the member queries' slots.
void EvaluateGroup(const RangeReachMethod& method, const QueryGroup& group,
                   size_t start, const SchedulerOptions& options,
                   QueryScratch& scratch, BatchResult& result) {
  // GroupingArena clamps groups to the kernel mask width, so stack
  // answer/sink buffers suffice.
  GSR_CHECK(group.regions.size() <= simd::kMaskWidth);
  const size_t slots = group.regions.size();
  const std::span<const Rect> regions(group.regions);
  const size_t members = group.member_query.size();
  // The latency window closes before the scatter to the member queries.
  Clock::time_point begin;
  if (options.record_latencies) begin = Clock::now();
  const auto elapsed_us = [&] {
    return options.record_latencies ? MicrosSince(begin) : 0.0;
  };

  if (options.kind == QueryKind::kBool) {
    bool answers[simd::kMaskWidth];
    method.EvaluateGroup(group.vertex, regions,
                         std::span<bool>(answers, slots), scratch);
    const double micros = elapsed_us();
    for (size_t m = 0; m < members; ++m) {
      const size_t slot = start + group.member_query[m];
      result.answers[slot] = answers[group.member_region[m]] ? 1 : 0;
      if (options.record_latencies) result.latencies_us[slot] = micros;
    }
    return;
  }

  ResultSink sinks[simd::kMaskWidth];
  // Enum slots collect straight into the result vector of their first
  // member query (window-relative index below); the slot's other members
  // copy it after Finalize.
  uint32_t first_query[simd::kMaskWidth];
  if (options.kind == QueryKind::kCount) {
    for (size_t r = 0; r < slots; ++r) sinks[r] = ResultSink::Count();
  } else {
    std::fill_n(first_query, slots, UINT32_MAX);
    for (size_t m = 0; m < members; ++m) {
      uint32_t& first = first_query[group.member_region[m]];
      if (first == UINT32_MAX) first = group.member_query[m];
    }
    for (size_t r = 0; r < slots; ++r) {
      sinks[r] = ResultSink::Enum(&result.enums[start + first_query[r]]);
    }
  }
  method.CollectGroupInto(group.vertex, regions,
                          std::span<ResultSink>(sinks, slots), scratch);
  if (options.kind == QueryKind::kEnum) {
    for (size_t r = 0; r < slots; ++r) sinks[r].Finalize();
  }
  const double micros = elapsed_us();
  for (size_t m = 0; m < members; ++m) {
    const size_t slot = start + group.member_query[m];
    const uint32_t r = group.member_region[m];
    result.counts[slot] = sinks[r].count();
    result.answers[slot] = sinks[r].found() ? 1 : 0;
    if (options.kind == QueryKind::kEnum &&
        first_query[r] != group.member_query[m]) {
      result.enums[slot] = result.enums[start + first_query[r]];
    }
    if (options.record_latencies) result.latencies_us[slot] = micros;
  }
}

}  // namespace

void BatchRunner::EnsureScratches(const RangeReachMethod& method) {
  if (scratch_method_id_ == method.instance_id()) return;
  scratches_.clear();
  scratches_.reserve(pool_->size());
  for (unsigned i = 0; i < pool_->size(); ++i) {
    scratches_.push_back(method.NewScratch());
  }
  scratch_method_id_ = method.instance_id();
}

template <typename Fn>
void BatchRunner::ParallelFor(size_t n, size_t chunk, const Fn& fn) {
  pool_->ParallelFor(n, chunk, [&](size_t index, unsigned worker) {
    try {
      fn(index, *scratches_[worker]);
    } catch (...) {
      // Swallowed here so this worker keeps claiming indices (the pool
      // would otherwise abandon the rest of its chunk).
      const std::lock_guard<std::mutex> lock(error_mutex_);
      if (!first_error_) first_error_ = std::current_exception();
    }
  });
}

void BatchRunner::Finish(const RangeReachMethod& method,
                         BatchResult& result) {
  // The pool is idle, so no query races with the drain; the scratches
  // are still healthy on the error path.
  for (const std::unique_ptr<QueryScratch>& scratch : scratches_) {
    method.DrainScratchCounters(*scratch);
  }
  if (first_error_) std::rethrow_exception(std::exchange(first_error_, {}));
  for (const uint8_t answer : result.answers) result.true_count += answer;
}

BatchResult BatchRunner::Run(const RangeReachMethod& method,
                             const std::vector<RangeReachQuery>& queries,
                             const BatchOptions& options) {
  EnsureScratches(method);
  BatchResult result = SizedResult(queries.size(), options);
  ParallelFor(queries.size(), kChunk, [&](size_t i, QueryScratch& scratch) {
    EvaluateOne(method, queries[i], i, options, scratch, result);
  });
  Finish(method, result);
  return result;
}

BatchResult BatchRunner::RunAny(const RangeReachMethod& method,
                                const std::vector<AnyReachQuery>& queries,
                                const BatchOptions& options) {
  BatchOptions bool_options = options;
  bool_options.kind = QueryKind::kBool;
  EnsureScratches(method);
  BatchResult result = SizedResult(queries.size(), bool_options);
  ParallelFor(queries.size(), kChunk, [&](size_t i, QueryScratch& scratch) {
    EvaluateOne(method, queries[i], i, bool_options, scratch, result);
  });
  Finish(method, result);
  return result;
}

BatchResult BatchRunner::RunShared(const RangeReachMethod& method,
                                   const std::vector<RangeReachQuery>& queries,
                                   const SchedulerOptions& options) {
  EnsureScratches(method);
  BatchResult result = SizedResult(queries.size(), options);
  QueryScheduler::ShareStats& stats = scheduler_.last_share_stats_;
  stats = {};
  const size_t window = std::max<size_t>(1, options.grouping.window);
  for (size_t start = 0; start < queries.size(); start += window) {
    const size_t count = std::min(window, queries.size() - start);
    if (count < options.min_window_to_group) {
      // Too small a window to share much: every query is its own group,
      // on Run's per-query path.
      stats.groups += count;
      stats.queries += count;
      stats.distinct_regions += count;
      ParallelFor(count, kChunk, [&](size_t i, QueryScratch& scratch) {
        EvaluateOne(method, queries[start + i], start + i, options, scratch,
                    result);
      });
      continue;
    }
    const std::span<const QueryGroup> groups = scheduler_.arena_.Build(
        std::span<const RangeReachQuery>(queries.data() + start, count),
        options.grouping);
    for (const QueryGroup& group : groups) {
      ++stats.groups;
      stats.queries += group.member_query.size();
      stats.distinct_regions += group.regions.size();
    }
    ParallelFor(groups.size(), 1, [&](size_t g, QueryScratch& scratch) {
      EvaluateGroup(method, groups[g], start, options, scratch, result);
    });
  }
  Finish(method, result);
  return result;
}

}  // namespace gsr::exec
