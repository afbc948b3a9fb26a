// Parallel batch-query throughput: evaluates one large RangeReach batch
// on the exec::ThreadPool + exec::BatchRunner engine at increasing thread
// counts and reports queries/second plus per-query latency percentiles,
// per method of the final comparison (Figure 7 set).
//
// Expected shape: the label-lookup methods (3DReach, 3DReach-REV,
// SpaReach) scale near-linearly until memory bandwidth saturates — all
// shared state is read-only at query time and each worker owns its
// scratch. SocReach and GeoReach scale too but start from much slower
// single-thread baselines on negative queries.
//
// Outputs one table + CSV per dataset (<out>/throughput_<dataset>.csv)
// and a machine-readable <out>/BENCH_throughput.json with every
// (dataset, method, threads) measurement and its speedup over 1 thread.

#include <algorithm>
#include <cstdio>
#include <span>
#include <string>
#include <vector>

#include "bench/bench_support.h"
#include "common/simd.h"
#include "common/table_printer.h"
#include "exec/query_group.h"
#include "exec/thread_pool.h"

namespace {

using namespace gsr;         // NOLINT
using namespace gsr::bench;  // NOLINT

/// Thread counts to sweep: 1, 2, 4, ... up to `max_threads` (always
/// including `max_threads` itself).
std::vector<unsigned> ThreadSweep(unsigned max_threads) {
  std::vector<unsigned> sweep;
  for (unsigned t = 1; t < max_threads; t *= 2) sweep.push_back(t);
  sweep.push_back(max_threads);
  return sweep;
}

/// Repeats the workload until the batch is large enough that per-batch
/// overheads (pool wakeup, chunk claiming) are amortized.
std::vector<RangeReachQuery> TileBatch(std::vector<RangeReachQuery> queries,
                                       size_t min_size) {
  if (queries.empty()) return queries;
  const size_t base = queries.size();
  while (queries.size() < min_size) {
    for (size_t i = 0; i < base && queries.size() < min_size; ++i) {
      queries.push_back(queries[i]);
    }
  }
  return queries;
}

struct Measurement {
  std::string dataset;
  std::string method;
  unsigned threads = 0;
  ThroughputStats stats;
  double speedup = 1.0;  // qps relative to the same method at 1 thread.
};

void WriteJson(const std::string& path, const std::vector<Measurement>& all,
               size_t batch_size, double scale) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "warning: cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(f, "{\n  \"bench\": \"throughput\",\n");
  std::fprintf(f, "  \"kernel\": \"%s\",\n",
               simd::KernelLevelName(simd::ActiveLevel()));
  std::fprintf(f, "  \"scale\": %g,\n  \"batch_size\": %zu,\n", scale,
               batch_size);
  std::fprintf(f, "  \"measurements\": [\n");
  for (size_t i = 0; i < all.size(); ++i) {
    const Measurement& m = all[i];
    std::fprintf(f,
                 "    {\"dataset\": \"%s\", \"method\": \"%s\", "
                 "\"threads\": %u, \"qps\": %.1f, \"speedup\": %.3f, "
                 "\"p50_us\": %.2f, \"p95_us\": %.2f, \"p99_us\": %.2f, "
                 "\"true_answers\": %zu}%s\n",
                 m.dataset.c_str(), m.method.c_str(), m.threads, m.stats.qps,
                 m.speedup, m.stats.p50_us, m.stats.p95_us,
                 m.stats.p99_us, m.stats.true_answers,
                 i + 1 < all.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::fprintf(stderr, "[throughput] wrote %s\n", path.c_str());
}

/// One shared-vs-unshared comparison point of the scheduler A/B: a
/// closed-loop capacity pair plus an open-loop latency pair at the same
/// offered rate (0.65x the unshared capacity, so both runs face an
/// identical feasible arrival schedule).
struct SchedulerMeasurement {
  std::string dataset;
  std::string method;
  double zipf = 0.0;
  unsigned threads = 0;
  double unshared_qps = 0.0;
  double shared_qps = 0.0;
  double speedup = 0.0;  // shared_qps / unshared_qps.
  size_t groups = 0;            // Work groups over the batch.
  size_t distinct_regions = 0;  // Regions left after in-group dedup.
  double offered_qps = 0.0;     // Open-loop arrival rate for both modes.
  double unshared_p50_us = 0.0;  // Open-loop latency from intended arrival.
  double shared_p50_us = 0.0;
  double unshared_p99_us = 0.0;  // Cleanest window across interleaved reps.
  double shared_p99_us = 0.0;
  size_t unshared_max_batch = 0;  // Largest backlog in that cleanest window.
  size_t shared_max_batch = 0;
};

/// Methods with real EvaluateGroup overrides — the ones the scheduler can
/// actually amortize work for (the rest fall back to a serial loop and
/// only save dispatch overhead).
std::vector<MethodConfig> SchedulerMethodConfigs() {
  std::vector<MethodConfig> configs;
  for (const MethodKind kind : {MethodKind::kSocReach, MethodKind::kSpaReachInt,
                                MethodKind::kThreeDReach}) {
    MethodConfig config;
    config.kind = kind;
    configs.push_back(config);
  }
  return configs;
}

void WriteSchedulerJson(const std::string& path,
                        const std::vector<SchedulerMeasurement>& all,
                        size_t batch_size, double scale) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "warning: cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(f, "{\n  \"bench\": \"scheduler\",\n");
  std::fprintf(f, "  \"kernel\": \"%s\",\n",
               simd::KernelLevelName(simd::ActiveLevel()));
  std::fprintf(f, "  \"scale\": %g,\n  \"batch_size\": %zu,\n", scale,
               batch_size);
  std::fprintf(f, "  \"measurements\": [\n");
  for (size_t i = 0; i < all.size(); ++i) {
    const SchedulerMeasurement& m = all[i];
    std::fprintf(
        f,
        "    {\"dataset\": \"%s\", \"method\": \"%s\", \"zipf\": %.2f, "
        "\"threads\": %u, \"unshared_qps\": %.1f, \"shared_qps\": %.1f, "
        "\"speedup\": %.3f, \"groups\": %zu, \"distinct_regions\": %zu, "
        "\"offered_qps\": %.1f, \"unshared_p50_us\": %.2f, "
        "\"shared_p50_us\": %.2f, \"unshared_p99_us\": %.2f, "
        "\"shared_p99_us\": %.2f, \"unshared_max_batch\": %zu, "
        "\"shared_max_batch\": %zu}%s\n",
        m.dataset.c_str(), m.method.c_str(), m.zipf, m.threads, m.unshared_qps,
        m.shared_qps, m.speedup, m.groups, m.distinct_regions, m.offered_qps,
        m.unshared_p50_us, m.shared_p50_us, m.unshared_p99_us, m.shared_p99_us,
        m.unshared_max_batch, m.shared_max_batch,
        i + 1 < all.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::fprintf(stderr, "[throughput] wrote %s\n", path.c_str());
}

/// The work-sharing A/B: for each method with a grouped kernel, compare
/// per-query BatchRunner::Run against scheduler RunShared on the same
/// batch, across query-vertex skew levels. Skewed workloads draw regions
/// from small per-vertex pools (the re-issued-shapes pattern sharing
/// exploits); zipf 0 is the adversarial uniform case where grouping finds
/// little to share. Open-loop latencies (from intended Poisson arrival,
/// the coordinated-omission fix) are measured at 0.65x unshared capacity.
void RunSchedulerAb(const BenchOptions& options,
                    const std::vector<DatasetBundle>& bundles,
                    unsigned max_threads, bool csv,
                    std::vector<SchedulerMeasurement>& all,
                    size_t& batch_size) {
  const std::vector<double> zipfs = {0.0, 1.0, 1.2};
  for (const DatasetBundle& bundle : bundles) {
    TablePrinter table(
        "scheduler A/B / " + bundle.name() + ": shared vs unshared at " +
            std::to_string(max_threads) + " threads",
        {"method", "zipf", "unshared qps", "shared qps", "speedup", "groups",
         "open-loop p99 us (unshared/shared)"});

    for (const MethodConfig& config : SchedulerMethodConfigs()) {
      const TimedMethod built = BuildTimed(bundle.cn.get(), config);
      const std::string method_name = MethodKindName(config.kind);

      for (const double zipf : zipfs) {
        // Fresh generator per point so every (method, zipf) sees the same
        // query stream regardless of sweep order.
        WorkloadGenerator workload(bundle.network.get(), /*seed=*/20250807);
        QuerySpec spec;
        spec.count = options.queries;
        spec.vertex_zipf = zipf;
        spec.regions_per_vertex = 4;
        const std::vector<RangeReachQuery> queries =
            TileBatch(workload.Generate(spec), /*min_size=*/2000);
        batch_size = queries.size();

        exec::ThreadPool pool(max_threads);
        SchedulerMeasurement m;
        m.dataset = bundle.name();
        m.method = method_name;
        m.zipf = zipf;
        m.threads = max_threads;

        // Closed-loop capacity as best-of-3 interleaved repetitions:
        // capacity is a property of the software on a quiet core, and a
        // multi-millisecond box stall inside one measurement window can
        // understate it by an order of magnitude (which would also skew
        // the offered rate the open-loop comparison below runs at).
        ThroughputStats unshared, shared;
        for (int rep = 0; rep < 3; ++rep) {
          const ThroughputStats u =
              MeasureThroughput(*built.method, queries, pool);
          const ThroughputStats s =
              MeasureThroughputShared(*built.method, queries, pool);
          if (rep == 0 || u.qps > unshared.qps) unshared = u;
          if (rep == 0 || s.qps > shared.qps) shared = s;
        }
        m.unshared_qps = unshared.qps;
        m.shared_qps = shared.qps;
        m.speedup = unshared.qps > 0.0 ? shared.qps / unshared.qps : 0.0;

        exec::GroupingArena arena;
        const std::span<const exec::QueryGroup> groups =
            arena.Build(queries, {});
        m.groups = groups.size();
        for (const exec::QueryGroup& group : groups) {
          m.distinct_regions += group.regions.size();
        }

        // Equal offered load for both modes, below unshared capacity so
        // the comparison is about latency, not about one side melting.
        // Interleaved A/B repetitions; p50 is the median per mode, p99
        // the minimum per mode. The shared CI box preempts the process
        // for several milliseconds a few times per second, and one such
        // stall backlogs >1% of a short stream — p99 of any single run
        // therefore measures preemption luck, not the software path. The
        // cleanest window out of several short interleaved runs is the
        // tail the *path* produces; alongside it, max_batch of that
        // window records the backlog exposure it was measured under.
        m.offered_qps = 0.65 * unshared.qps;
        constexpr int kOpenLoopReps = 7;
        std::vector<double> u50, s50;
        for (int rep = 0; rep < kOpenLoopReps; ++rep) {
          const OpenLoopStats ol_unshared = MeasureOpenLoop(
              *built.method, queries, pool, m.offered_qps, /*shared=*/false);
          const OpenLoopStats ol_shared = MeasureOpenLoop(
              *built.method, queries, pool, m.offered_qps, /*shared=*/true);
          u50.push_back(ol_unshared.p50_us);
          s50.push_back(ol_shared.p50_us);
          if (rep == 0 || ol_unshared.p99_us < m.unshared_p99_us) {
            m.unshared_p99_us = ol_unshared.p99_us;
            m.unshared_max_batch = ol_unshared.max_batch;
          }
          if (rep == 0 || ol_shared.p99_us < m.shared_p99_us) {
            m.shared_p99_us = ol_shared.p99_us;
            m.shared_max_batch = ol_shared.max_batch;
          }
        }
        const auto median = [](std::vector<double>& v) {
          std::sort(v.begin(), v.end());
          return v[v.size() / 2];
        };
        m.unshared_p50_us = median(u50);
        m.shared_p50_us = median(s50);
        all.push_back(m);

        char zipf_cell[16];
        std::snprintf(zipf_cell, sizeof(zipf_cell), "%.1f", zipf);
        table.AddRow({method_name, zipf_cell,
                      TablePrinter::FormatNumber(m.unshared_qps, 4),
                      TablePrinter::FormatNumber(m.shared_qps, 4),
                      TablePrinter::FormatNumber(m.speedup, 3) + "x",
                      std::to_string(m.groups),
                      Micros(m.unshared_p99_us) + " / " +
                          Micros(m.shared_p99_us)});
      }
    }

    table.Print();
    if (csv) {
      (void)table.WriteCsv(options.out_dir + "/scheduler_" + bundle.name() +
                           ".csv");
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  const BenchOptions options = BenchOptions::Parse(argc, argv);
  const unsigned max_threads = options.threads != 0
                                   ? options.threads
                                   : exec::ThreadPool::DefaultThreads();
  const std::vector<unsigned> sweep = ThreadSweep(max_threads);
  const auto bundles = LoadDatasets(options);
  const bool csv = EnsureDir(options.out_dir);

  std::vector<Measurement> all;
  size_t batch_size = 0;

  for (const DatasetBundle& bundle : bundles) {
    // One mixed batch per dataset: the default workload (5% extent,
    // degree 50-99), tiled so even fast methods run long enough to
    // measure.
    WorkloadGenerator workload(bundle.network.get(), /*seed=*/20250706);
    QuerySpec spec;
    spec.count = options.queries;
    const std::vector<RangeReachQuery> queries =
        TileBatch(workload.Generate(spec), /*min_size=*/2000);
    batch_size = queries.size();

    std::vector<std::string> headers = {"method"};
    for (const unsigned t : sweep) {
      headers.push_back(std::to_string(t) + "T qps");
    }
    headers.push_back("speedup");
    headers.push_back("p95 us (max T)");
    TablePrinter table("throughput / " + bundle.name() + ": batch of " +
                           std::to_string(queries.size()) +
                           " queries, threads 1.." +
                           std::to_string(max_threads),
                       headers);

    for (const MethodConfig& config : Figure7MethodConfigs()) {
      const TimedMethod built = BuildTimed(bundle.cn.get(), config);
      const std::string method_name = MethodKindName(config.kind);

      double qps_1t = 0.0;
      std::vector<std::string> cells = {method_name};
      ThroughputStats last;
      for (const unsigned threads : sweep) {
        exec::ThreadPool pool(threads);
        const ThroughputStats stats =
            MeasureThroughput(*built.method, queries, pool);
        if (threads == 1) qps_1t = stats.qps;
        last = stats;

        Measurement m;
        m.dataset = bundle.name();
        m.method = method_name;
        m.threads = threads;
        m.stats = stats;
        m.speedup = qps_1t > 0.0 ? stats.qps / qps_1t : 1.0;
        all.push_back(m);

        cells.push_back(TablePrinter::FormatNumber(stats.qps, 4));
      }
      cells.push_back(TablePrinter::FormatNumber(
          qps_1t > 0.0 ? last.qps / qps_1t : 1.0, 3));
      cells.push_back(Micros(last.p95_us));
      table.AddRow(std::move(cells));
    }

    table.Print();
    if (csv) {
      (void)table.WriteCsv(options.out_dir + "/throughput_" + bundle.name() +
                           ".csv");
    }
  }

  const std::string json_path = options.out_dir + "/BENCH_throughput.json";
  WriteJson(json_path, all, batch_size, options.scale);
  MirrorBenchJson(options, json_path);

  std::vector<SchedulerMeasurement> scheduler_all;
  size_t scheduler_batch = 0;
  RunSchedulerAb(options, bundles, max_threads, csv, scheduler_all,
                 scheduler_batch);
  const std::string scheduler_json =
      options.out_dir + "/BENCH_scheduler.json";
  WriteSchedulerJson(scheduler_json, scheduler_all, scheduler_batch,
                     options.scale);
  MirrorBenchJson(options, scheduler_json);
  return 0;
}
