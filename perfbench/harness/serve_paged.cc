// serve_paged: out-of-core serving. 3DReach on gowalla (the largest
// 3DReach index of the four datasets) is built, saved and loaded kPaged
// with a page-cache budget of a quarter of the snapshot file, then
// answers boolean batches of 4096 through BatchRunner::Run — no grouping,
// no planner — with uniform query vertices from the [50-99] degree
// bucket and fresh regions at the paper's default 5% extent.
//
// The traced run wraps each batch and each worker chunk of Evaluate
// calls in spans; from outside, the page cache shows through its
// counters, a pin/unpin micro-timing on a resident page, and the same
// query stream on a kMmap load of the same file.

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/method_factory.h"
#include "core/three_d_reach.h"
#include "datagen/generator.h"
#include "datagen/workload.h"
#include "exec/batch_runner.h"
#include "exec/thread_pool.h"
#include "snapshot/page_cache.h"
#include "harness/workloads.h"

namespace perfbench {

namespace {

using namespace gsr;  // NOLINT

constexpr size_t kBatchSize = 4096;
constexpr size_t kBatches = 40;
constexpr size_t kSliceBatches = 4;
constexpr size_t kChunk = 32;  // BatchOptions::chunk.
constexpr double kBudgetFraction = 0.25;
/// Pool workers. Every page touch takes the cache's one mutex twice; at
/// four workers on four cores the threads fall into lock convoys lasting
/// seconds (throughput flips between two levels 3.5x apart), so the run
/// uses two, which contend steadily.
constexpr unsigned kThreads = 2;

struct TracedStats {
  double qps = 0.0;
  uint64_t queries = 0;
  uint64_t mismatches = 0;
};

/// Batches on the pool with a span per batch and per worker chunk. Each
/// query is timed on its own, as record_latencies does in the untraced
/// run, so the two runs differ by their spans alone.
TracedStats TracedLoop(const RangeReachMethod& method, exec::ThreadPool& pool,
                       const std::vector<std::vector<RangeReachQuery>>& batches,
                       const std::vector<Expected>& expected, double seconds,
                       Tracer& tracer) {
  const uint32_t request = tracer.Name("request");
  const uint32_t wait = tracer.Name("exec.pool.wait");
  const uint32_t evaluate = tracer.Name("core.three_d_reach.evaluate");
  std::vector<std::unique_ptr<QueryScratch>> scratch;
  for (unsigned w = 0; w < pool.size(); ++w) {
    scratch.push_back(method.NewScratch());
  }
  const unsigned main_thread = pool.size();
  TracedStats s;
  double busy_seconds = 0.0;
  const int64_t start = NowNs();
  for (size_t i = 0;; ++i) {
    if (i > 0 && (SecondsSince(start) >= seconds || tracer.full())) break;
    const size_t b = i % batches.size();
    const std::vector<RangeReachQuery>& batch = batches[b];
    exec::BatchResult result;
    result.answers.assign(batch.size(), 0);
    result.latencies_us.assign(batch.size(), 0.0);
    const int64_t t0 = NowNs();
    {
      ScopedSpan root(&tracer, main_thread, request, i);
      root.set_items(batch.size());
      const uint32_t waiting = tracer.Begin(main_thread, wait, i);
      const size_t chunks = (batch.size() + kChunk - 1) / kChunk;
      pool.ParallelFor(chunks, 1, [&](size_t c, unsigned worker) {
        const size_t begin = c * kChunk;
        const size_t end = std::min(batch.size(), begin + kChunk);
        const uint32_t span =
            tracer.BeginChildOf(worker, evaluate, i, main_thread, waiting);
        for (size_t q = begin; q < end; ++q) {
          const int64_t q0 = NowNs();
          result.answers[q] =
              method.EvaluateQuery(batch[q], *scratch[worker]) ? 1 : 0;
          result.latencies_us[q] = static_cast<double>(NowNs() - q0) / 1e3;
        }
        tracer.End(worker, span, end - begin);
      });
      tracer.End(main_thread, waiting);
    }
    busy_seconds += static_cast<double>(NowNs() - t0) / 1e9;
    s.queries += batch.size();
    s.mismatches += CountMismatches(expected[b], result);
  }
  s.qps = static_cast<double>(s.queries) / busy_seconds;
  return s;
}

/// ns per PinPage+UnpinPage pair on a resident page, per thread, with
/// `threads` threads pinning at once.
double PinUnpinNs(snapshot::PageCache& cache, unsigned threads) {
  constexpr uint64_t kPairs = 400000;
  void* handle = nullptr;
  if (cache.PinPage(0, &handle) == nullptr) return 0.0;  // Make it resident.
  cache.UnpinPage(handle);
  std::vector<double> per_thread(threads, 0.0);
  std::vector<std::thread> pinners;
  for (unsigned t = 0; t < threads; ++t) {
    pinners.emplace_back([&, t] {
      const int64_t t0 = NowNs();
      for (uint64_t i = 0; i < kPairs; ++i) {
        void* h = nullptr;
        if (cache.PinPage(0, &h) != nullptr) cache.UnpinPage(h);
      }
      per_thread[t] = static_cast<double>(NowNs() - t0) / kPairs;
    });
  }
  for (std::thread& t : pinners) t.join();
  return Median(per_thread);
}

}  // namespace

int RunServePaged(const Options& run_options, RunResult& result) {
  Options options = run_options;
  options.threads = std::min(options.threads, kThreads);
  // The dataset is fixed, like the paper's; the seed draws the workload.
  const GeneratorConfig dataset =
      BenchmarkDatasetConfig("gowalla", options.scale);
  const GeoSocialNetwork network = GenerateGeoSocialNetwork(dataset);
  Json record = RunRecord(options, dataset.name, network);

  std::unique_ptr<Tracer> tracer;
  if (options.trace) {
    tracer = std::make_unique<Tracer>(options.threads + 1, kMaxTraceSpans);
  }
  MethodConfig config;
  config.kind = MethodKind::kThreeDReach;
  const std::string path = options.out_dir + "/serve_paged.snap";
  Served served;
  SetupTimes setup;
  if (!SetUpServed(network, config, path, snapshot::LoadMode::kPaged,
                   kBudgetFraction, tracer.get(), options.threads, served,
                   setup)) {
    return 1;
  }
  setup.Report(result);
  result.Set("index_mb", static_cast<double>(served.file_bytes) / 1e6);
  const RangeReachMethod& paged = *served.loaded.method;
  snapshot::PageCache& cache = *served.loaded.page_cache;
  const auto& three_d = static_cast<const ThreeDReach&>(paged);

  WorkloadGenerator generator(&network, MixSeed(0x9A6ED, options.seed));
  QuerySpec spec;
  spec.count = kBatchSize;
  std::vector<std::vector<RangeReachQuery>> batches;
  Fingerprint query_fp;
  for (size_t b = 0; b < kBatches; ++b) {
    batches.push_back(generator.Generate(spec));
    AddQueries(query_fp, batches.back());
  }
  record.Str("query_fingerprint", query_fp.Hex());
  record.Int("cache_frames", cache.num_frames());
  record.Int("cache_budget_bytes", cache.budget_bytes());

  // Reference answers from the resident built index.
  exec::ThreadPool pool(options.threads);
  exec::BatchRunner runner(&pool);
  std::vector<Expected> expected;
  for (const auto& batch : batches) {
    expected.push_back(
        ToExpected(QueryKind::kBool, runner.Run(*served.built, batch)));
  }

  // Warm-up: one pass over every batch fills the cache to steady state.
  for (size_t b = 0; b < kBatches; ++b) {
    result.attempted += batches[b].size();
    result.failed += CountMismatches(expected[b], runner.Run(paged, batches[b]));
  }
  cache.ResetStats();
  three_d.ResetCounters();

  const double untraced_seconds =
      options.trace ? 0.3 * options.seconds : options.seconds;
  const LoopStats loop = ClosedLoop(
      expected, kSliceBatches, untraced_seconds, [&](size_t b) {
        exec::BatchOptions batch_options;
        batch_options.record_latencies = true;
        return runner.Run(paged, batches[b], batch_options);
      });
  result.attempted += loop.queries;
  result.failed += loop.mismatches;
  result.Set("qps", loop.qps);
  result.Set("query_p50_us", Quantile(loop.latencies.kept(), 0.50));
  result.Set("query_p99_us", Quantile(loop.latencies.kept(), 0.99));

  const snapshot::PageCache::Stats stats = cache.GetStats();
  const double queries = static_cast<double>(loop.queries);
  const double touches = static_cast<double>(stats.hits + stats.misses);
  const double hit_rate =
      touches > 0.0 ? static_cast<double>(stats.hits) / touches : 0.0;
  result.Set("snapshot.page_cache.hit_rate", hit_rate);
  result.Set("snapshot.page_cache.touches_per_query", touches / queries);
  result.Set("snapshot.page_cache.misses_per_query",
             static_cast<double>(stats.misses) / queries);
  result.Set("snapshot.page_cache.evictions_per_query",
             static_cast<double>(stats.evictions) / queries);
  result.Set("snapshot.page_cache.bypass_per_query",
             static_cast<double>(stats.bypass_reads) / queries);
  const ThreeDReach::Counters& counters = three_d.counters();
  result.Set("core.three_d_reach.range_queries_per_query",
             counters.queries > 0
                 ? static_cast<double>(counters.range_queries) /
                       static_cast<double>(counters.queries)
                 : 0.0);
  Json drift;
  drift.Num("hit_rate", hit_rate);
  drift.Num("misses_per_query", static_cast<double>(stats.misses) / queries);

  Json measured;
  measured.Obj("latency", LatencySummary(loop.latencies));
  measured.Int("batches_per_slice", kSliceBatches);
  measured.NumList("slice_qps", loop.slice_qps);
  measured.NumList("setup_s", setup.total);

  if (tracer != nullptr) {
    const TracedStats traced = TracedLoop(paged, pool, batches, expected,
                                          0.5 * options.seconds, *tracer);
    result.attempted += traced.queries;
    result.failed += traced.mismatches;
    measured.Num("traced_qps", traced.qps);

    // The same stream, one thread, on the kPaged load and on a kMmap load
    // of the same file, alternating.
    SnapshotLoadOptions mmap_options;
    mmap_options.mode = snapshot::LoadMode::kMmap;
    auto mapped = LoadMethodSnapshot(served.cn.get(), path, mmap_options);
    if (!mapped.ok()) {
      std::fprintf(stderr, "error: kMmap load failed: %s\n",
                   mapped.status().ToString().c_str());
      return 1;
    }
    const RangeReachMethod& resident = *mapped->method;
    auto paged_scratch = paged.NewScratch();
    auto mmap_scratch = resident.NewScratch();
    std::vector<double> paged_ns, mmap_ns;
    uint64_t mismatches = 0;
    for (size_t rep = 0; rep < 8; ++rep) {
      const size_t b = rep % kBatches;
      paged_ns.push_back(SerialNsPerQuery(paged, *paged_scratch, batches[b],
                                          expected[b], mismatches));
      mmap_ns.push_back(SerialNsPerQuery(resident, *mmap_scratch, batches[b],
                                         expected[b], mismatches));
      result.attempted += 2 * batches[b].size();
    }
    result.failed += mismatches;
    const double paged_eval = Median(paged_ns);
    const double mmap_eval = Median(mmap_ns);
    result.Set("core.three_d_reach.paged_eval_ns", paged_eval);
    result.Set("core.three_d_reach.mmap_eval_ns", mmap_eval);
    result.Set("snapshot.paged_over_mmap",
               mmap_eval > 0.0 ? paged_eval / mmap_eval : 0.0);

    const uint32_t pin_name = tracer->Name("snapshot.page_cache.pin_unpin");
    const unsigned main_thread = options.threads;
    {
      ScopedSpan span(tracer.get(), main_thread, pin_name, 0);
      result.Set("snapshot.page_cache.pin_unpin_ns", PinUnpinNs(cache, 1));
    }
    {
      ScopedSpan span(tracer.get(), main_thread, pin_name, 1);
      result.Set("snapshot.page_cache.pin_unpin_ns_contended",
                 PinUnpinNs(cache, options.threads));
    }
    SetTraceMetrics(*tracer, options, loop.qps, traced.qps, result);
  }

  result.detail.Obj("record", record);
  result.detail.Obj("drift", drift);
  result.detail.Obj("measured", measured);
  served = Served{};
  std::remove(path.c_str());
  return 0;
}

}  // namespace perfbench
