#include "bench/bench_support.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <thread>

#include "exec/batch_runner.h"

#include "common/rng.h"
#include "common/simd.h"
#include "common/stopwatch.h"
#include "common/table_printer.h"

namespace gsr::bench {

namespace {

std::vector<std::string> SplitCommas(const std::string& value) {
  std::vector<std::string> out;
  size_t start = 0;
  while (start <= value.size()) {
    const size_t comma = value.find(',', start);
    if (comma == std::string::npos) {
      out.push_back(value.substr(start));
      break;
    }
    out.push_back(value.substr(start, comma - start));
    start = comma + 1;
  }
  return out;
}

[[noreturn]] void Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--scale f] [--queries n] [--out dir] "
               "[--datasets a,b,...] [--threads n] "
               "[--kernel scalar|avx2|native]\n",
               argv0);
  std::exit(2);
}

}  // namespace

BenchOptions BenchOptions::Parse(int argc, char** argv) {
  BenchOptions options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) Usage(argv[0]);
      return argv[++i];
    };
    if (arg == "--scale") {
      options.scale = std::atof(next());
      if (options.scale <= 0.0 || options.scale > 1.0) Usage(argv[0]);
    } else if (arg == "--queries") {
      options.queries = static_cast<uint32_t>(std::atoi(next()));
      if (options.queries == 0) Usage(argv[0]);
    } else if (arg == "--out") {
      options.out_dir = next();
    } else if (arg == "--datasets") {
      options.datasets = SplitCommas(next());
    } else if (arg == "--threads") {
      options.threads = static_cast<unsigned>(std::atoi(next()));
    } else if (arg == "--kernel") {
      const char* name = next();
      if (!simd::SetKernelLevelFromString(name)) Usage(argv[0]);
      std::fprintf(stderr, "[bench] query kernels forced to %s\n",
                   simd::KernelLevelName(simd::ActiveLevel()));
    } else {
      Usage(argv[0]);
    }
  }
  return options;
}

std::vector<DatasetBundle> LoadDatasets(const BenchOptions& options) {
  std::vector<DatasetBundle> bundles;
  for (const std::string& name : options.datasets) {
    DatasetBundle bundle;
    bundle.config = BenchmarkDatasetConfig(name, options.scale);
    Stopwatch watch;
    bundle.network = std::make_unique<GeoSocialNetwork>(
        GenerateGeoSocialNetwork(bundle.config));
    bundle.cn = std::make_unique<CondensedNetwork>(bundle.network.get());
    std::fprintf(stderr,
                 "[datagen] %-10s |V|=%u |E|=%llu |P|=%llu #SCC=%u (%.2fs)\n",
                 name.c_str(), bundle.network->num_vertices(),
                 static_cast<unsigned long long>(bundle.network->num_edges()),
                 static_cast<unsigned long long>(
                     bundle.network->num_spatial_vertices()),
                 bundle.cn->num_components(), watch.ElapsedSeconds());
    bundles.push_back(std::move(bundle));
  }
  return bundles;
}

TimedMethod BuildTimed(const CondensedNetwork* cn,
                       const MethodConfig& config) {
  TimedMethod out;
  Stopwatch watch;
  out.method = CreateMethod(cn, config);
  out.build_seconds = watch.ElapsedSeconds();
  return out;
}

QueryStats MeasureQueries(const RangeReachMethod& method,
                          const std::vector<RangeReachQuery>& queries) {
  QueryStats stats;
  if (queries.empty()) return stats;
  Stopwatch watch;
  for (const RangeReachQuery& query : queries) {
    if (method.EvaluateQuery(query)) ++stats.true_answers;
  }
  stats.avg_micros = watch.ElapsedMicros() / static_cast<double>(queries.size());
  return stats;
}

namespace {

/// Closed-loop throughput runs repeat the batch until this much wall time
/// has accumulated (or kMaxMeasuredReps, whichever first): one 2000-query
/// batch of a fast method is sub-millisecond, i.e. timer noise.
constexpr double kMinMeasuredSeconds = 0.1;
constexpr int kMaxMeasuredReps = 64;

double Percentile(std::vector<double>& sorted_in_place, double p) {
  if (sorted_in_place.empty()) return 0.0;
  std::sort(sorted_in_place.begin(), sorted_in_place.end());
  const double rank = p / 100.0 * static_cast<double>(sorted_in_place.size() - 1);
  const size_t lo = static_cast<size_t>(rank);
  const size_t hi = std::min(lo + 1, sorted_in_place.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return sorted_in_place[lo] * (1.0 - frac) + sorted_in_place[hi] * frac;
}

}  // namespace

ThroughputStats MeasureThroughput(const RangeReachMethod& method,
                                  const std::vector<RangeReachQuery>& queries,
                                  exec::ThreadPool& pool) {
  ThroughputStats stats;
  if (queries.empty()) return stats;

  exec::BatchRunner runner(&pool);
  exec::BatchOptions batch;
  batch.record_latencies = true;

  // Warmup run: fault in per-worker scratches and warm caches so the
  // measured run is steady state.
  (void)runner.Run(method, queries, batch);

  // A fast method resolves one batch in well under a millisecond, where a
  // single-shot rate is timer noise; repeat until enough wall time
  // accumulates, aggregating latencies across repetitions.
  Stopwatch watch;
  std::vector<double> latencies;
  size_t total = 0;
  int reps = 0;
  do {
    const exec::BatchResult result = runner.Run(method, queries, batch);
    stats.true_answers = result.true_count;
    latencies.insert(latencies.end(), result.latencies_us.begin(),
                     result.latencies_us.end());
    total += queries.size();
    ++reps;
  } while (watch.ElapsedSeconds() < kMinMeasuredSeconds &&
           reps < kMaxMeasuredReps);
  stats.wall_seconds = watch.ElapsedSeconds();
  stats.qps = static_cast<double>(total) / std::max(1e-12, stats.wall_seconds);
  stats.p50_us = Percentile(latencies, 50.0);
  stats.p95_us = Percentile(latencies, 95.0);
  stats.p99_us = Percentile(latencies, 99.0);
  return stats;
}

ThroughputStats MeasureThroughputShared(
    const RangeReachMethod& method,
    const std::vector<RangeReachQuery>& queries, exec::ThreadPool& pool) {
  ThroughputStats stats;
  if (queries.empty()) return stats;

  exec::BatchRunner runner(&pool);
  exec::SchedulerOptions options;
  options.record_latencies = true;

  // Warmup run: fault in per-worker scratches and warm caches so the
  // measured run is steady state (mirrors MeasureThroughput).
  (void)runner.RunShared(method, queries, options);

  // Same repeat-to-minimum-wall-time aggregation as MeasureThroughput.
  Stopwatch watch;
  std::vector<double> latencies;
  size_t total = 0;
  int reps = 0;
  do {
    const exec::BatchResult result = runner.RunShared(method, queries, options);
    stats.true_answers = result.true_count;
    latencies.insert(latencies.end(), result.latencies_us.begin(),
                     result.latencies_us.end());
    total += queries.size();
    ++reps;
  } while (watch.ElapsedSeconds() < kMinMeasuredSeconds &&
           reps < kMaxMeasuredReps);
  stats.wall_seconds = watch.ElapsedSeconds();
  stats.qps = static_cast<double>(total) / std::max(1e-12, stats.wall_seconds);
  stats.p50_us = Percentile(latencies, 50.0);
  stats.p95_us = Percentile(latencies, 95.0);
  stats.p99_us = Percentile(latencies, 99.0);
  return stats;
}

OpenLoopStats MeasureOpenLoop(const RangeReachMethod& method,
                              const std::vector<RangeReachQuery>& queries,
                              exec::ThreadPool& pool, double offered_qps,
                              bool shared, uint64_t seed) {
  OpenLoopStats stats;
  stats.offered_qps = offered_qps;
  if (queries.empty() || offered_qps <= 0.0) return stats;

  // Tile the stream so the run lasts long enough for a meaningful tail:
  // at millions of offered qps, 2000 queries are gone in under a
  // millisecond and p99 would hinge on ~20 samples — one timer tick
  // either way. The length is a deliberate compromise: long enough that
  // the tail has thousands of samples, short enough that a run has a
  // real chance of dodging the multi-millisecond OS preemptions the
  // shared CI box suffers a few times per second. The caller interleaves
  // several such runs per mode and takes the minimum p99 (the cleanest
  // window per mode), which filters those exogenous stalls out of the
  // A/B — see RunSchedulerAb in bench_throughput.cc.
  constexpr double kMinStreamSeconds = 0.15;
  constexpr size_t kMaxStreamQueries = 500000;
  const size_t target = std::max(
      queries.size(),
      std::min(kMaxStreamQueries,
               static_cast<size_t>(offered_qps * kMinStreamSeconds)));
  std::vector<RangeReachQuery> stream;
  stream.reserve(target);
  while (stream.size() < target) {
    const size_t take = std::min(queries.size(), target - stream.size());
    stream.insert(stream.end(), queries.begin(),
                  queries.begin() + static_cast<ptrdiff_t>(take));
  }

  // Intended arrival times: exponential inter-arrival gaps at the offered
  // rate, fixed by `seed` so shared and unshared runs face the identical
  // arrival schedule.
  Rng rng(seed);
  std::vector<double> arrival(stream.size());
  double t = 0.0;
  for (size_t i = 0; i < stream.size(); ++i) {
    double u = rng.NextDouble();
    if (u <= 0.0) u = 0x1.0p-53;
    t += -std::log(u) / offered_qps;
    arrival[i] = t;
  }

  exec::BatchRunner runner(&pool);
  // Warmup outside the clock: scratches, caches, pool wakeup.
  if (shared) {
    (void)runner.RunShared(method, queries);
  } else {
    (void)runner.Run(method, queries);
  }

  std::vector<double> latencies(stream.size(), 0.0);
  std::vector<RangeReachQuery> batch;
  Stopwatch watch;
  size_t next = 0;
  while (next < stream.size()) {
    const double now = watch.ElapsedSeconds();
    if (now < arrival[next]) {
      // Ahead of the feed: sleep down to ~0.2ms before the next arrival,
      // then spin out the remainder (sleep_for alone overshoots by more
      // than the inter-arrival gap at high rates).
      const double remaining = arrival[next] - now;
      if (remaining > 2e-4) {
        std::this_thread::sleep_for(
            std::chrono::duration<double>(remaining - 2e-4));
      }
      continue;
    }
    // Admit every query that has arrived by now as one dispatch.
    size_t end = next;
    batch.clear();
    while (end < stream.size() && arrival[end] <= now) {
      batch.push_back(stream[end]);
      ++end;
    }
    const exec::BatchResult result = shared ? runner.RunShared(method, batch)
                                            : runner.Run(method, batch);
    const double done = watch.ElapsedSeconds();
    for (size_t i = next; i < end; ++i) {
      latencies[i] = (done - arrival[i]) * 1e6;
    }
    stats.true_answers += result.true_count;
    ++stats.dispatches;
    stats.max_batch = std::max(stats.max_batch, batch.size());
    next = end;
  }
  stats.wall_seconds = watch.ElapsedSeconds();
  stats.achieved_qps = static_cast<double>(stream.size()) /
                       std::max(1e-12, stats.wall_seconds);
  stats.p50_us = Percentile(latencies, 50.0);
  stats.p95_us = Percentile(latencies, 95.0);
  stats.p99_us = Percentile(latencies, 99.0);
  return stats;
}

namespace {

/// Measures every series on one query batch and appends a table row:
/// x-label, then "avg_us" per series, then the batch's TRUE ratio.
void SweepRow(TablePrinter& table, const std::string& x_label,
              const std::vector<FigureSeries>& series,
              const std::vector<RangeReachQuery>& queries) {
  std::vector<std::string> cells = {x_label};
  uint32_t true_answers = 0;
  for (const FigureSeries& s : series) {
    const QueryStats stats = MeasureQueries(*s.method, queries);
    cells.push_back(Micros(stats.avg_micros));
    true_answers = stats.true_answers;  // Identical across series.
  }
  cells.push_back(TablePrinter::FormatNumber(
      queries.empty() ? 0.0
                      : 100.0 * true_answers /
                            static_cast<double>(queries.size()),
      2));
  table.AddRow(std::move(cells));
}

std::vector<std::string> SweepHeaders(const std::string& x_name,
                                      const std::vector<FigureSeries>& series) {
  std::vector<std::string> headers = {x_name};
  for (const FigureSeries& s : series) headers.push_back(s.label + " [us]");
  headers.push_back("TRUE %");
  return headers;
}

}  // namespace

void RunQuerySweeps(const BenchOptions& options, const std::string& file_tag,
                    const DatasetBundle& bundle,
                    const std::vector<FigureSeries>& series,
                    bool include_selectivity) {
  const bool csv = EnsureDir(options.out_dir);
  WorkloadGenerator workload(bundle.network.get(), /*seed=*/20250706);

  // Sweep 1: region extent, default degree bucket.
  {
    TablePrinter table(
        file_tag + " / " + bundle.name() +
            ": avg query time vs region extent (degree 50-99)",
        SweepHeaders("extent %", series));
    for (const double extent : PaperExtents()) {
      QuerySpec spec;
      spec.count = options.queries;
      spec.extent_percent = extent;
      SweepRow(table, TablePrinter::FormatNumber(extent, 2), series,
               workload.Generate(spec));
    }
    table.Print();
    if (csv) {
      (void)table.WriteCsv(options.out_dir + "/" + file_tag + "_" +
                           bundle.name() + "_extent.csv");
    }
  }

  // Sweep 2: query-vertex out-degree bucket, default extent.
  {
    TablePrinter table(
        file_tag + " / " + bundle.name() +
            ": avg query time vs query vertex degree (extent 5%)",
        SweepHeaders("degree", series));
    for (const DegreeBucket& bucket : PaperDegreeBuckets()) {
      QuerySpec spec;
      spec.count = options.queries;
      spec.min_out_degree = bucket.lo;
      spec.max_out_degree = bucket.hi;
      SweepRow(table, bucket.label, series, workload.Generate(spec));
    }
    table.Print();
    if (csv) {
      (void)table.WriteCsv(options.out_dir + "/" + file_tag + "_" +
                           bundle.name() + "_degree.csv");
    }
  }

  if (!include_selectivity) return;

  // Sweep 3: spatial selectivity, default degree bucket.
  {
    TablePrinter table(
        file_tag + " / " + bundle.name() +
            ": avg query time vs spatial selectivity (degree 50-99)",
        SweepHeaders("selectivity %", series));
    for (const double selectivity : PaperSelectivities()) {
      QuerySpec spec;
      spec.count = options.queries;
      spec.selectivity_percent = selectivity;
      SweepRow(table, TablePrinter::FormatNumber(selectivity, 3), series,
               workload.Generate(spec));
    }
    table.Print();
    if (csv) {
      (void)table.WriteCsv(options.out_dir + "/" + file_tag + "_" +
                           bundle.name() + "_selectivity.csv");
    }
  }
}

bool EnsureDir(const std::string& dir) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    std::fprintf(stderr, "warning: cannot create %s: %s (skipping CSVs)\n",
                 dir.c_str(), ec.message().c_str());
    return false;
  }
  return true;
}

void MirrorBenchJson(const BenchOptions& options,
                     const std::string& json_path) {
  if (options.out_dir != BenchOptions().out_dir) return;
  namespace fs = std::filesystem;
  const fs::path src(json_path);
  const fs::path dst = src.filename();
  std::error_code ec;
  // equivalent() errors when dst does not exist yet; that just means
  // "not the same file", so fall through to the copy.
  if (fs::equivalent(src, dst, ec)) return;
  ec.clear();
  fs::copy_file(src, dst, fs::copy_options::overwrite_existing, ec);
  if (ec) {
    std::fprintf(stderr, "warning: cannot mirror %s to %s: %s\n",
                 json_path.c_str(), dst.string().c_str(),
                 ec.message().c_str());
    return;
  }
  std::fprintf(stderr, "[bench] mirrored %s -> %s\n", json_path.c_str(),
               dst.string().c_str());
}

std::string Mb(size_t bytes) {
  return TablePrinter::FormatNumber(static_cast<double>(bytes) / 1048576.0);
}

std::string Micros(double micros) {
  return TablePrinter::FormatNumber(micros);
}

}  // namespace gsr::bench
