#include "exec/query_scheduler.h"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <exception>
#include <mutex>
#include <span>

#include "common/check.h"
#include "common/simd.h"

namespace gsr::exec {

BatchResult QueryScheduler::Run(const RangeReachMethod& method,
                                const std::vector<RangeReachQuery>& queries,
                                const SchedulerOptions& options) {
  if (scratch_method_id_ != method.instance_id()) {
    scratches_.clear();
    scratches_.reserve(pool_->size());
    for (unsigned i = 0; i < pool_->size(); ++i) {
      scratches_.push_back(method.NewScratch());
    }
    scratch_method_id_ = method.instance_id();
  }

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
  last_share_stats_ = ShareStats{};

  const size_t window = std::max<size_t>(1, options.grouping.window);
  std::mutex error_mutex;
  std::exception_ptr first_error;

  for (size_t start = 0; start < queries.size(); start += window) {
    const size_t count = std::min(window, queries.size() - start);

    if (count < options.min_window_to_group) {
      // A window this small has (almost) nothing to share; skip the
      // grouping pass and run one query per pool task, exactly like
      // BatchRunner::Run. Under open-loop serving this is the common
      // dispatch shape whenever the backlog is small, and the grouping
      // pass would be pure added latency there; a real backlog exceeds
      // the threshold and gets grouped as usual.
      last_share_stats_.groups += count;
      last_share_stats_.queries += count;
      last_share_stats_.distinct_regions += count;
      // Match BatchRunner::Run's per-query cost exactly: same claim
      // chunk, and no clock read unless latencies were asked for — at
      // sub-microsecond methods a steady_clock call per query is
      // measurable drag on a backlog drain.
      pool_->ParallelFor(count, BatchOptions{}.chunk, [&](size_t i,
                                                          unsigned worker) {
        const RangeReachQuery& query = queries[start + i];
        std::chrono::steady_clock::time_point begin;
        if (options.record_latencies) begin = std::chrono::steady_clock::now();
        try {
          switch (options.kind) {
            case QueryKind::kBool:
              result.answers[start + i] =
                  method.Evaluate(query.vertex, query.region,
                                  *scratches_[worker])
                      ? 1
                      : 0;
              break;
            case QueryKind::kCount: {
              ResultSink sink = ResultSink::Count();
              method.CollectInto(query.vertex, query.region, sink,
                                 *scratches_[worker]);
              result.counts[start + i] = sink.count();
              result.answers[start + i] = sink.found() ? 1 : 0;
              break;
            }
            case QueryKind::kEnum: {
              ResultSink sink = ResultSink::Enum(&result.enums[start + i]);
              method.CollectInto(query.vertex, query.region, sink,
                                 *scratches_[worker]);
              sink.Finalize();
              result.counts[start + i] = sink.count();
              result.answers[start + i] = sink.found() ? 1 : 0;
              break;
            }
          }
        } catch (...) {
          const std::lock_guard<std::mutex> lock(error_mutex);
          if (!first_error) first_error = std::current_exception();
          return;
        }
        if (options.record_latencies) {
          result.latencies_us[start + i] =
              std::chrono::duration<double, std::micro>(
                  std::chrono::steady_clock::now() - begin)
                  .count();
        }
      });
      continue;
    }

    const std::span<const QueryGroup> groups = arena_.Build(
        std::span<const RangeReachQuery>(queries.data() + start, count),
        options.grouping);
    for (const QueryGroup& group : groups) {
      ++last_share_stats_.groups;
      last_share_stats_.queries += group.member_query.size();
      last_share_stats_.distinct_regions += group.regions.size();
    }

    pool_->ParallelFor(groups.size(), 1, [&](size_t g, unsigned worker) {
      const QueryGroup& group = groups[g];
      // BuildGroups clamps groups to the kernel mask width, so stack
      // answer/sink buffers suffice.
      GSR_CHECK(group.regions.size() <= simd::kMaskWidth);
      const size_t slots = group.regions.size();
      const std::span<const Rect> regions(group.regions);
      const size_t members = group.member_query.size();
      QueryScratch& scratch = *scratches_[worker];
      // Clock reads only when asked: a low-dedup window degenerates into
      // hundreds of singleton groups, and a steady_clock call per group
      // is real overhead against sub-microsecond evaluations. The window
      // closes before the scatter to the member queries.
      std::chrono::steady_clock::time_point begin;
      if (options.record_latencies) begin = std::chrono::steady_clock::now();
      const auto elapsed_us = [&] {
        if (!options.record_latencies) return 0.0;
        return std::chrono::duration<double, std::micro>(
                   std::chrono::steady_clock::now() - begin)
            .count();
      };
      try {
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
        // Enum slots collect straight into the result vector of their
        // first member query (window-relative index below); the slot's
        // other members copy it after Finalize.
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
      } catch (...) {
        // Swallow here so this worker keeps draining its remaining
        // groups (ParallelFor would otherwise abandon them); the first
        // exception is rethrown after the batch.
        const std::lock_guard<std::mutex> lock(error_mutex);
        if (!first_error) first_error = std::current_exception();
      }
    });
  }

  // Pool idle: drain per-worker counters into the method aggregate, even
  // on the error path (the scratches are still healthy).
  for (const std::unique_ptr<QueryScratch>& scratch : scratches_) {
    method.DrainScratchCounters(*scratch);
  }
  if (first_error) std::rethrow_exception(first_error);

  for (const uint8_t answer : result.answers) result.true_count += answer;
  return result;
}

}  // namespace gsr::exec
