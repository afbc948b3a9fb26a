// Streaming-update throughput: the epoch-based StreamingRangeReach under
// a generated check-in / edge-churn stream. Three measurements per
// dataset:
//
//  1. ingest-only: sustained updates/sec of the writer path with
//     publish-per-update, background rebuilds on the pool and base
//     hot-swaps through the snapshot layer (mmap spill).
//
//  2. mixed read-while-update: reader threads pin epochs and issue
//     boolean RangeReach queries non-stop while the writer streams the
//     same-shaped stream. Reported: sustained updates/sec, aggregate
//     query qps, and the agreement audit — sampled (position, query,
//     answer) triples are re-answered post-run by a NaiveBFS oracle on
//     the network materialized at that exact log position. Violations
//     must be zero: pinned epochs answer bit-identically to a rebuilt-
//     from-scratch index at their position, by contract.
//
//  3. drained query qps: BatchRunner throughput against the flushed
//     engine's epoch view — the "cost of dynamism" anchor to compare
//     with the static bench_throughput numbers.
//
// Outputs one table per dataset, <out>/update_<dataset>.csv and a
// machine-readable <out>/BENCH_update.json (mirrored over the tracked
// repo-root copy).

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_support.h"
#include "common/stopwatch.h"
#include "common/table_printer.h"
#include "core/naive_bfs.h"
#include "core/update_log.h"
#include "datagen/generator.h"
#include "datagen/workload.h"
#include "exec/batch_runner.h"
#include "exec/streaming_engine.h"
#include "exec/thread_pool.h"

namespace {

using namespace gsr;         // NOLINT
using namespace gsr::bench;  // NOLINT

struct UpdateMeasurement {
  std::string dataset;
  size_t stream_size = 0;
  unsigned readers = 0;
  double ingest_ups = 0.0;      // Updates/sec, writer alone.
  double mixed_ups = 0.0;       // Updates/sec with readers querying.
  double mixed_qps = 0.0;       // Aggregate reader queries/sec meanwhile.
  double drained_qps = 0.0;     // BatchRunner qps on the flushed view.
  uint64_t rebuilds = 0;        // Background rebuilds completed (mixed run).
  uint64_t snapshot_swaps = 0;  // Bases installed from snapshot images.
  uint64_t epochs = 0;          // Epochs published over the mixed run.
  size_t agreement_checks = 0;
  size_t agreement_violations = 0;
};

exec::StreamingOptions EngineOptions(const BenchOptions& options,
                               const std::string& dataset) {
  exec::StreamingOptions streaming;
  streaming.publish_every = 1;
  streaming.rebuild_threshold = 512;
  streaming.spill_dir = options.out_dir + "/update_spill_" + dataset;
  return streaming;
}

/// Ingest-only updates/sec: one writer, no readers, rebuilds on the pool.
double MeasureIngest(const BenchOptions& options, const DatasetBundle& bundle,
                     const std::vector<Update>& stream,
                     exec::ThreadPool& pool) {
  exec::StreamingRangeReach engine(GenerateGeoSocialNetwork(bundle.config),
                                   &pool, EngineOptions(options, bundle.name()));
  Stopwatch watch;
  for (const Update& update : stream) {
    if (!engine.Apply(update).ok()) break;
  }
  engine.WaitForRebuilds();
  return static_cast<double>(stream.size()) /
         std::max(1e-12, watch.ElapsedSeconds());
}

/// The mixed run: writer streams updates while `readers` threads pin
/// epochs and query; sampled answers are audited post-run.
void MeasureMixed(const BenchOptions& options, const DatasetBundle& bundle,
                  const std::vector<Update>& stream,
                  const std::vector<RangeReachQuery>& queries,
                  exec::ThreadPool& pool, UpdateMeasurement* m) {
  const GeoSocialNetwork initial = GenerateGeoSocialNetwork(bundle.config);
  exec::StreamingRangeReach engine(GenerateGeoSocialNetwork(bundle.config),
                                   &pool, EngineOptions(options, bundle.name()));

  struct Sample {
    uint64_t position;
    VertexId vertex;
    Rect region;
    bool answer;
  };
  constexpr size_t kSamplesPerReader = 8;
  std::vector<std::vector<Sample>> samples(m->readers);
  std::vector<uint64_t> executed(m->readers, 0);
  std::atomic<bool> done{false};

  std::vector<std::thread> reader_threads;
  reader_threads.reserve(m->readers);
  for (unsigned r = 0; r < m->readers; ++r) {
    reader_threads.emplace_back([&, r] {
      size_t next = r;  // Stagger the readers across the workload.
      while (!done.load(std::memory_order_acquire)) {
        const auto view = engine.Pin();
        auto scratch = view->NewScratch();
        for (int q = 0; q < 64 && !done.load(std::memory_order_relaxed);
             ++q) {
          const RangeReachQuery& query = queries[next % queries.size()];
          ++next;
          const bool answer =
              view->Evaluate(query.vertex, query.region, *scratch);
          ++executed[r];
          if (q == 0 && samples[r].size() < kSamplesPerReader) {
            samples[r].push_back(
                Sample{view->position(), query.vertex, query.region, answer});
          }
        }
      }
    });
  }

  Stopwatch watch;
  for (const Update& update : stream) {
    if (!engine.Apply(update).ok()) break;
  }
  engine.WaitForRebuilds();
  const double write_seconds = watch.ElapsedSeconds();
  done.store(true, std::memory_order_release);
  for (auto& t : reader_threads) t.join();
  const double wall_seconds = watch.ElapsedSeconds();

  m->mixed_ups = static_cast<double>(stream.size()) /
                 std::max(1e-12, write_seconds);
  uint64_t total_queries = 0;
  for (const uint64_t e : executed) total_queries += e;
  m->mixed_qps =
      static_cast<double>(total_queries) / std::max(1e-12, wall_seconds);
  const auto stats = engine.stats();
  m->rebuilds = stats.rebuilds_completed;
  m->snapshot_swaps = stats.snapshot_swaps;
  m->epochs = engine.current_epoch();

  // The agreement audit: every sample re-answered from scratch at its
  // exact log position.
  std::map<uint64_t, std::unique_ptr<GeoSocialNetwork>> networks;
  for (unsigned r = 0; r < m->readers; ++r) {
    for (const Sample& sample : samples[r]) {
      auto& network = networks[sample.position];
      if (!network) {
        auto materialized =
            MaterializeNetwork(initial, engine.CopyLog(0, sample.position));
        if (!materialized.ok()) continue;
        network = std::make_unique<GeoSocialNetwork>(
            std::move(materialized).value());
      }
      const NaiveBfsMethod oracle(network.get());
      ++m->agreement_checks;
      if (oracle.Evaluate(sample.vertex, sample.region) != sample.answer) {
        ++m->agreement_violations;
      }
    }
  }

  // Drained qps: flush the delta into a fresh base, then batch-query the
  // resulting epoch view like any static method.
  engine.Flush();
  const auto view = engine.Pin();
  exec::BatchRunner runner(&pool);
  (void)runner.Run(*view, queries);  // Warmup.
  Stopwatch drain_watch;
  size_t total = 0;
  int reps = 0;
  do {
    (void)runner.Run(*view, queries);
    total += queries.size();
    ++reps;
  } while (drain_watch.ElapsedSeconds() < 0.25 && reps < 200);
  m->drained_qps =
      static_cast<double>(total) / std::max(1e-12, drain_watch.ElapsedSeconds());
}

void WriteJson(const std::string& path,
               const std::vector<UpdateMeasurement>& all, double scale,
               unsigned threads) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "warning: cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(f, "{\n  \"bench\": \"update\",\n");
  std::fprintf(f, "  \"scale\": %g,\n  \"threads\": %u,\n", scale, threads);
  std::fprintf(f, "  \"measurements\": [\n");
  for (size_t i = 0; i < all.size(); ++i) {
    const UpdateMeasurement& m = all[i];
    std::fprintf(f,
                 "    {\"dataset\": \"%s\", \"stream_size\": %zu, "
                 "\"readers\": %u, \"ingest_ups\": %.1f, "
                 "\"mixed_ups\": %.1f, \"mixed_qps\": %.1f, "
                 "\"drained_qps\": %.1f, \"rebuilds\": %llu, "
                 "\"snapshot_swaps\": %llu, \"epochs\": %llu, "
                 "\"agreement_checks\": %zu, "
                 "\"agreement_violations\": %zu}%s\n",
                 m.dataset.c_str(), m.stream_size, m.readers, m.ingest_ups,
                 m.mixed_ups, m.mixed_qps, m.drained_qps,
                 static_cast<unsigned long long>(m.rebuilds),
                 static_cast<unsigned long long>(m.snapshot_swaps),
                 static_cast<unsigned long long>(m.epochs),
                 m.agreement_checks, m.agreement_violations,
                 i + 1 < all.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::fprintf(stderr, "[update] wrote %s\n", path.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  const BenchOptions options = BenchOptions::Parse(argc, argv);
  const unsigned max_threads = options.threads != 0
                                   ? options.threads
                                   : exec::ThreadPool::DefaultThreads();
  const auto bundles = LoadDatasets(options);
  const bool csv = EnsureDir(options.out_dir);

  std::vector<UpdateMeasurement> all;
  for (const DatasetBundle& bundle : bundles) {
    (void)EnsureDir(options.out_dir + "/update_spill_" + bundle.name());

    // The churn stream: mostly point moves plus edge flips, sized to
    // force several background rebuilds at threshold 512.
    UpdateStreamSpec stream_spec;
    stream_spec.count = std::max<uint32_t>(2000, options.queries * 10);
    const auto stream =
        GenerateUpdateStream(*bundle.network, stream_spec, /*seed=*/20250809);

    // The reader workload, bounded to base vertices (valid in every
    // epoch).
    WorkloadGenerator workload(bundle.network.get(), /*seed=*/20250809);
    QuerySpec query_spec;
    query_spec.count = std::max<uint32_t>(options.queries, 500);
    const std::vector<RangeReachQuery> queries = workload.Generate(query_spec);

    exec::ThreadPool pool(max_threads);
    UpdateMeasurement m;
    m.dataset = bundle.name();
    m.stream_size = stream.size();
    m.readers = std::max(1u, max_threads / 2);
    m.ingest_ups = MeasureIngest(options, bundle, stream, pool);
    MeasureMixed(options, bundle, stream, queries, pool, &m);
    all.push_back(m);

    TablePrinter table(
        "update / " + bundle.name() + ": " + std::to_string(m.stream_size) +
            " updates, " + std::to_string(m.readers) + " readers",
        {"metric", "value"});
    table.AddRow({"ingest updates/s", TablePrinter::FormatNumber(m.ingest_ups, 4)});
    table.AddRow({"mixed updates/s", TablePrinter::FormatNumber(m.mixed_ups, 4)});
    table.AddRow({"mixed query qps", TablePrinter::FormatNumber(m.mixed_qps, 4)});
    table.AddRow(
        {"drained query qps", TablePrinter::FormatNumber(m.drained_qps, 4)});
    table.AddRow({"rebuilds completed", std::to_string(m.rebuilds)});
    table.AddRow({"snapshot swaps", std::to_string(m.snapshot_swaps)});
    table.AddRow({"epochs published", std::to_string(m.epochs)});
    table.AddRow({"agreement checks", std::to_string(m.agreement_checks)});
    table.AddRow({"agreement violations",
                  std::to_string(m.agreement_violations)});
    table.Print();
    if (csv) {
      (void)table.WriteCsv(options.out_dir + "/update_" + bundle.name() +
                           ".csv");
    }
    if (m.agreement_violations != 0) {
      std::fprintf(stderr, "[update] ERROR: %zu agreement violations on %s\n",
                   m.agreement_violations, bundle.name().c_str());
    }
  }

  const std::string json_path = options.out_dir + "/BENCH_update.json";
  WriteJson(json_path, all, options.scale, max_threads);
  MirrorBenchJson(options, json_path);

  for (const UpdateMeasurement& m : all) {
    if (m.agreement_violations != 0) return 1;
  }
  return 0;
}
