#include "exec/batch_runner.h"

#include <algorithm>
#include <array>
#include <bit>
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

/// Vertex-hash shards per grouped window: the unit a pool worker claims,
/// groups and evaluates in RunShared. On serve_planner (4 workers) 16
/// shards read 19% below 64, and 128 or 256 within 1.3% of it (noise).
constexpr size_t kShards = 64;

/// The vertex-hash shard of `vertex`, in [0, kShards). Its multiplier
/// differs from the one GroupingArena hashes vertices with: the arena
/// indexes its table by the top bits of its own product, which one shared
/// multiplier would make equal across a whole shard.
uint32_t ShardOf(VertexId vertex) {
  constexpr int kShift =
      64 - std::countr_zero(static_cast<uint64_t>(kShards));
  return static_cast<uint32_t>(
      (static_cast<uint64_t>(vertex) * 0xC2B2AE3D27D4EB4Full) >> kShift);
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
void BatchRunner::Guarded(const Fn& fn) {
  try {
    fn();
  } catch (...) {
    const std::lock_guard<std::mutex> lock(error_mutex_);
    if (!first_error_) first_error_ = std::current_exception();
  }
}

template <typename Fn>
void BatchRunner::ParallelFor(size_t n, size_t chunk, const Fn& fn) {
  pool_->ParallelFor(n, chunk, [&](size_t index, unsigned worker) {
    // Guarded here so this worker keeps claiming indices (the pool would
    // otherwise abandon the rest of its chunk).
    Guarded([&] { fn(index, worker); });
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
  ParallelFor(queries.size(), kChunk, [&](size_t i, unsigned worker) {
    EvaluateOne(method, queries[i], i, options, *scratches_[worker], result);
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
  ParallelFor(queries.size(), kChunk, [&](size_t i, unsigned worker) {
    EvaluateOne(method, queries[i], i, bool_options, *scratches_[worker],
                result);
  });
  Finish(method, result);
  return result;
}

BatchResult BatchRunner::RunShared(const RangeReachMethod& method,
                                   const std::vector<RangeReachQuery>& queries,
                                   const SchedulerOptions& options) {
  EnsureScratches(method);
  BatchResult result = SizedResult(queries.size(), options);
  scheduler_.workers_.resize(pool_->size());
  for (QueryScheduler::Worker& worker : scheduler_.workers_) {
    worker.stats = {};
  }
  QueryScheduler::ShareStats stats;
  const size_t window = std::max<size_t>(1, options.grouping.window);
  for (size_t start = 0; start < queries.size(); start += window) {
    const size_t count = std::min(window, queries.size() - start);
    if (count < options.min_window_to_group) {
      // Too small a window to share much: every query is its own group,
      // on Run's per-query path.
      stats.groups += count;
      stats.queries += count;
      stats.distinct_regions += count;
      ParallelFor(count, kChunk, [&](size_t i, unsigned worker) {
        EvaluateOne(method, queries[start + i], start + i, options,
                    *scratches_[worker], result);
      });
      continue;
    }
    // The serial prelude: the window-wide bounds every shard buckets
    // regions over, and a counting sort of the window's indices into
    // vertex-hash shards (ascending within a shard, so each vertex's
    // groups are exactly the whole-window Build's).
    const std::span<const RangeReachQuery> span(queries.data() + start,
                                                count);
    const Rect bounds = CenterBounds(span);
    std::array<uint32_t, kShards + 1> begin{};
    for (const RangeReachQuery& query : span) {
      ++begin[ShardOf(query.vertex) + 1];
    }
    for (size_t s = 0; s < kShards; ++s) begin[s + 1] += begin[s];
    std::array<uint32_t, kShards> next;
    std::copy_n(begin.begin(), kShards, next.begin());
    scheduler_.shard_indices_.resize(count);
    for (size_t i = 0; i < count; ++i) {
      scheduler_.shard_indices_[next[ShardOf(span[i].vertex)]++] =
          static_cast<uint32_t>(i);
    }
    ParallelFor(kShards, 1, [&](size_t shard, unsigned w) {
      QueryScheduler::Worker& worker = scheduler_.workers_[w];
      const std::span<const QueryGroup> groups = worker.arena.Build(
          span,
          std::span<const uint32_t>(scheduler_.shard_indices_)
              .subspan(begin[shard], begin[shard + 1] - begin[shard]),
          bounds, options.grouping);
      for (const QueryGroup& group : groups) {
        ++worker.stats.groups;
        worker.stats.queries += group.member_query.size();
        worker.stats.distinct_regions += group.regions.size();
        // Guarded per group: a throwing group is skipped and the rest of
        // its shard still runs.
        Guarded([&] {
          EvaluateGroup(method, group, start, options, *scratches_[w],
                        result);
        });
      }
    });
  }
  for (const QueryScheduler::Worker& worker : scheduler_.workers_) {
    stats.groups += worker.stats.groups;
    stats.queries += worker.stats.queries;
    stats.distinct_regions += worker.stats.distinct_regions;
  }
  scheduler_.last_share_stats_ = stats;
  Finish(method, result);
  return result;
}

}  // namespace gsr::exec
