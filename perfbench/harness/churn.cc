// churn: the write path beside reads. StreamingRangeReach on weeplaces
// takes one writer applying a GenerateUpdateStream default-mix stream,
// publishing every update, with background rebuilds spilled through a
// kMmap snapshot, while reader threads pin epochs and issue boolean
// queries. Then Flush(), pin, and drained reads through BatchRunner::Run.
//
// Threads: the writer, kReaders readers and the engine's one rebuild
// worker (4 at kReaders = 2); the drained phase runs a fresh pool of the
// same size after the readers have stopped.
//
// Sampled reader answers are audited at their exact log position against
// MaterializeNetwork + NaiveBfsMethod; drained answers against a base
// built from scratch on the materialized end-of-stream network.

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/dynamic_range_reach.h"
#include "core/method_factory.h"
#include "core/naive_bfs.h"
#include "core/update_log.h"
#include "datagen/generator.h"
#include "datagen/workload.h"
#include "exec/batch_runner.h"
#include "exec/streaming_engine.h"
#include "exec/thread_pool.h"
#include "harness/workloads.h"

namespace perfbench {

namespace {

using namespace gsr;  // NOLINT

constexpr unsigned kReaders = 2;
constexpr size_t kQueriesPerPin = 64;
constexpr size_t kQueryBatches = 4;
constexpr size_t kBatchSize = 4096;
/// Updates in the stream at scale 1.0: about seven seconds of mixed
/// phase on a 4-core Xeon, dozens of rebuild cycles at the engine's
/// default threshold of 4096. A fixed length, not a time budget: a
/// longer stream grows the network further and makes per-query cost
/// drift with run length.
constexpr double kStreamUpdates = 315000.0;
/// The drained reads fill the rest of --seconds after the mixed phase,
/// but get at least this share of it.
constexpr double kMinDrainedShare = 0.1;
/// Reader pins whose 64 answers are kept for the audit, per reader,
/// spread evenly over the stream's log positions.
constexpr uint64_t kAuditPinsPerReader = 40;

struct Sample {
  uint64_t position;
  uint32_t query;
  uint8_t answer;
};

struct alignas(64) Reader {
  std::atomic<uint64_t> queries{0};
  Reservoir latencies{1u << 19};
  std::vector<Sample> samples;
  uint64_t pins = 0;
  uint64_t delta_entries = 0;
  uint64_t risky_pins = 0;
};

struct MixedStats {
  double qps = 0.0;
  double ups = 0.0;
  uint64_t applied = 0;
  uint64_t failed_updates = 0;
  uint64_t reader_queries = 0;
  Reservoir query_latency{1u << 20};
  Reservoir update_latency{1u << 20};
  std::vector<double> window_qps;
  uint64_t alive_max = 0;
  double delta_entries_mean = 0.0;
  double risky_share = 0.0;
  std::vector<Sample> samples;
};

struct TraceNames {
  uint32_t request = 0, pin = 0, evaluate = 0, apply = 0;
};

/// The mixed phase: `updates` applied on this thread while kReaders
/// threads pin and query. Every query and every Apply is timed on its
/// own; with a tracer, readers also record a request per pin (pin +
/// evaluate spans) and the writer one span per Apply, so a traced run
/// differs from an untraced one by its spans alone.
MixedStats RunMixed(exec::StreamingRangeReach& engine,
                    const std::vector<RangeReachQuery>& queries,
                    const std::vector<Update>& updates, Tracer* tracer) {
  TraceNames names;
  if (tracer != nullptr) {
    names.request = tracer->Name("request");
    names.pin = tracer->Name("exec.epoch.pin");
    names.evaluate = tracer->Name("core.dynamic.view_evaluate");
    names.apply = tracer->Name("exec.streaming.apply");
  }
  const uint64_t sample_every =
      std::max<uint64_t>(1, updates.size() / kAuditPinsPerReader);

  std::vector<Reader> readers(kReaders);
  std::atomic<bool> done{false};
  std::vector<std::thread> threads;
  for (unsigned r = 0; r < kReaders; ++r) {
    threads.emplace_back([&, r] {
      Reader& me = readers[r];
      size_t next = r * (queries.size() / kReaders);
      uint64_t next_sample = 0;
      uint64_t request = 0;
      std::vector<uint8_t> answers(kQueriesPerPin);
      while (!done.load(std::memory_order_acquire)) {
        const uint64_t req = request++;
        ScopedSpan root(tracer, r, names.request, req);
        std::shared_ptr<const exec::EpochView> view;
        {
          ScopedSpan span(tracer, r, names.pin, req);
          view = engine.Pin();
        }
        ++me.pins;
        me.delta_entries += view->view().delta.size();
        if (view->view().delta.risky()) ++me.risky_pins;
        auto scratch = view->NewScratch();
        const size_t first = next;
        {
          ScopedSpan span(tracer, r, names.evaluate, req);
          span.set_items(kQueriesPerPin);
          for (size_t q = 0; q < kQueriesPerPin; ++q) {
            const RangeReachQuery& query = queries[next % queries.size()];
            ++next;
            const int64_t t0 = NowNs();
            answers[q] = view->EvaluateQuery(query, *scratch) ? 1 : 0;
            me.latencies.Add(static_cast<double>(NowNs() - t0) / 1e3);
          }
        }
        me.queries.fetch_add(kQueriesPerPin, std::memory_order_relaxed);
        if (view->position() >= next_sample) {
          next_sample = view->position() + sample_every;
          for (size_t q = 0; q < kQueriesPerPin; ++q) {
            me.samples.push_back(
                Sample{view->position(),
                       static_cast<uint32_t>((first + q) % queries.size()),
                       answers[q]});
          }
        }
      }
    });
  }

  const auto reader_total = [&] {
    uint64_t total = 0;
    for (const Reader& r : readers) {
      total += r.queries.load(std::memory_order_relaxed);
    }
    return total;
  };
  MixedStats s;
  const unsigned writer = kReaders;
  const int64_t start = NowNs();
  int64_t window_start = start;
  uint64_t window_queries = reader_total();
  for (size_t i = 0; i < updates.size(); ++i) {
    const int64_t t0 = NowNs();
    bool ok = false;
    {
      ScopedSpan span(tracer, writer, names.apply, i);
      ok = engine.Apply(updates[i]).ok();
    }
    s.update_latency.Add(static_cast<double>(NowNs() - t0) / 1e3);
    if (!ok) ++s.failed_updates;
    ++s.applied;
    if (i % 64 == 0) {
      s.alive_max = std::max<uint64_t>(s.alive_max, engine.alive_epochs());
      const int64_t now = NowNs();
      if (now - window_start >= 250'000'000) {
        const uint64_t total = reader_total();
        s.window_qps.push_back(static_cast<double>(total - window_queries) /
                               (static_cast<double>(now - window_start) / 1e9));
        window_start = now;
        window_queries = total;
      }
    }
  }
  engine.WaitForRebuilds();
  const double write_seconds = SecondsSince(start);
  done.store(true, std::memory_order_release);
  for (std::thread& t : threads) t.join();
  const double read_seconds = SecondsSince(start);

  s.ups = static_cast<double>(s.applied) / write_seconds;
  s.reader_queries = reader_total();
  s.qps = s.window_qps.size() >= 3
              ? Median(s.window_qps)
              : static_cast<double>(s.reader_queries) / read_seconds;
  uint64_t pins = 0, delta = 0, risky = 0;
  for (const Reader& r : readers) {
    s.query_latency.Append(r.latencies);
    s.samples.insert(s.samples.end(), r.samples.begin(), r.samples.end());
    pins += r.pins;
    delta += r.delta_entries;
    risky += r.risky_pins;
  }
  if (pins > 0) {
    s.delta_entries_mean =
        static_cast<double>(delta) / static_cast<double>(pins);
    s.risky_share = static_cast<double>(risky) / static_cast<double>(pins);
  }
  return s;
}

/// Re-answers every sample with NaiveBFS on the network materialized at
/// its log position (incrementally, in position order). Returns the
/// number of disagreements; unmaterializable positions count as failures.
uint64_t Audit(const GeoSocialNetwork& initial,
               const exec::StreamingRangeReach& engine,
               const std::vector<RangeReachQuery>& queries,
               std::vector<Sample> samples) {
  std::sort(samples.begin(), samples.end(),
            [](const Sample& a, const Sample& b) {
              return a.position < b.position;
            });
  GeoSocialNetwork network = initial;
  uint64_t position = 0;
  uint64_t failures = 0;
  std::unique_ptr<NaiveBfsMethod> oracle;
  for (const Sample& sample : samples) {
    if (oracle == nullptr || sample.position != position) {
      const std::vector<Update> range = engine.CopyLog(position, sample.position);
      auto next = MaterializeNetwork(network, range);
      if (!next.ok()) {
        ++failures;
        continue;
      }
      oracle.reset();
      network = std::move(next).value();
      position = sample.position;
      oracle = std::make_unique<NaiveBfsMethod>(&network);
    }
    const RangeReachQuery& q = queries[sample.query];
    if ((oracle->Evaluate(q.vertex, q.region) ? 1 : 0) != sample.answer) {
      ++failures;
    }
  }
  return failures;
}

exec::StreamingOptions EngineOptions(const std::string& spill_dir) {
  exec::StreamingOptions streaming;
  streaming.publish_every = 1;
  streaming.spill_dir = spill_dir;
  streaming.spill_mode = snapshot::LoadMode::kMmap;
  return streaming;
}

/// The newest spilled base in `dir` (highest log position), in bytes.
uint64_t LastSpillBytes(const std::string& dir) {
  uint64_t best_position = 0;
  uint64_t bytes = 0;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("base_", 0) != 0) continue;
    const uint64_t position = std::strtoull(name.c_str() + 5, nullptr, 10);
    if (bytes == 0 || position >= best_position) {
      best_position = position;
      bytes = FileBytes(entry.path().string());
    }
  }
  return bytes;
}

}  // namespace

int RunChurn(const Options& options, RunResult& result) {
  // The dataset is fixed, like the paper's; the seed draws the workload.
  const GeneratorConfig dataset =
      BenchmarkDatasetConfig("weeplaces", options.scale);
  const GeoSocialNetwork network = GenerateGeoSocialNetwork(dataset);
  Json record = RunRecord(options, dataset.name, network);
  record.Int("readers", kReaders);

  // Queries stay on base vertices, valid in every epoch.
  WorkloadGenerator generator(&network, MixSeed(0xC4A2, options.seed));
  QuerySpec spec;
  spec.count = kBatchSize;
  std::vector<std::vector<RangeReachQuery>> batches;
  std::vector<RangeReachQuery> queries;
  Fingerprint query_fp;
  for (size_t b = 0; b < kQueryBatches; ++b) {
    batches.push_back(generator.Generate(spec));
    AddQueries(query_fp, batches.back());
    queries.insert(queries.end(), batches.back().begin(), batches.back().end());
  }
  record.Str("query_fingerprint", query_fp.Hex());

  UpdateStreamSpec stream_spec;
  stream_spec.count = static_cast<uint32_t>(kStreamUpdates * options.scale);
  const std::vector<Update> updates =
      GenerateUpdateStream(network, stream_spec, MixSeed(0x0DA7E, options.seed));
  record.Str("update_fingerprint", UpdatesFingerprint(updates));
  record.Int("updates", updates.size());

  std::unique_ptr<Tracer> tracer;
  if (options.trace) {
    tracer = std::make_unique<Tracer>(kReaders + 1, kMaxTraceSpans);
  }
  const std::string spill_root = options.out_dir + "/churn_spill";
  const std::string spill_a = spill_root + "/a";
  const std::string spill_b = spill_root + "/b";
  std::filesystem::create_directories(spill_a);
  std::filesystem::create_directories(spill_b);

  // Set-up: the engine construction (initial base build, epoch 1).
  exec::ThreadPool rebuild_pool(1);
  std::unique_ptr<exec::StreamingRangeReach> engine;
  std::vector<double> setup_s;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    engine.reset();
    GeoSocialNetwork copy = network;
    const int64_t t0 = NowNs();
    engine = std::make_unique<exec::StreamingRangeReach>(
        std::move(copy), &rebuild_pool, EngineOptions(spill_a));
    setup_s.push_back(SecondsSince(t0));
  }
  result.Set("setup_s", Median(setup_s));

  // The mixed phase (untraced): the end-to-end numbers.
  const int64_t mixed_start = NowNs();
  const MixedStats mixed = RunMixed(*engine, queries, updates, nullptr);
  result.Set("qps", mixed.qps);
  result.Set("query_p50_us", Quantile(mixed.query_latency.kept(), 0.50));
  result.Set("query_p99_us", Quantile(mixed.query_latency.kept(), 0.99));
  result.attempted += mixed.applied;
  result.failed += mixed.failed_updates;
  const uint64_t audit_failures = Audit(network, *engine, queries, mixed.samples);
  result.attempted += mixed.samples.size();
  result.failed += audit_failures;

  const double update_p50 = Quantile(mixed.update_latency.kept(), 0.50);
  const double update_p99 = Quantile(mixed.update_latency.kept(), 0.99);
  result.Set("exec.streaming.update_ups", mixed.ups);
  result.Set("exec.streaming.update_p50_us", update_p50);
  result.Set("exec.streaming.update_p99_us", update_p99);
  result.Set("exec.epoch.alive_max", static_cast<double>(mixed.alive_max));
  result.Set("core.dynamic.delta_entries_mean", mixed.delta_entries_mean);
  result.Set("core.dynamic.risky_share", mixed.risky_share);
  const exec::StreamingRangeReach::Stats stats = engine->stats();
  result.Set("exec.streaming.rebuilds",
             static_cast<double>(stats.rebuilds_completed));
  result.Set("exec.streaming.snapshot_swaps",
             static_cast<double>(stats.snapshot_swaps));
  result.Set("exec.streaming.rebuild_failures",
             static_cast<double>(stats.rebuild_failures));
  // A rebuild whose snapshot spill failed is a failed operation.
  result.attempted += stats.rebuilds_completed;
  result.failed += stats.rebuild_failures;

  Json drift;
  drift.Int("rebuilds", stats.rebuilds_completed);
  drift.Int("snapshot_swaps", stats.snapshot_swaps);
  drift.Int("rebuild_failures", stats.rebuild_failures);
  Json measured;
  measured.Obj("latency", LatencySummary(mixed.query_latency));
  measured.Obj("update_latency", LatencySummary(mixed.update_latency));
  measured.Num("update_ups", mixed.ups);
  measured.Int("updates_applied", mixed.applied);
  measured.Int("reader_queries", mixed.reader_queries);
  measured.Int("audited_answers", mixed.samples.size());
  measured.NumList("window_qps", mixed.window_qps);
  measured.NumList("setup_s", setup_s);

  if (tracer != nullptr) {
    // The same stream again on a fresh engine, traced.
    engine.reset();
    engine = std::make_unique<exec::StreamingRangeReach>(
        GeoSocialNetwork(network), &rebuild_pool, EngineOptions(spill_b));
    const MixedStats traced =
        RunMixed(*engine, queries, updates, tracer.get());
    const exec::StreamingRangeReach::Stats traced_stats = engine->stats();
    result.attempted += traced.applied + traced.samples.size() +
                        traced_stats.rebuilds_completed;
    result.failed += traced.failed_updates + traced_stats.rebuild_failures +
                     Audit(network, *engine, queries, traced.samples);
    result.Set("exec.epoch.pin_ns", tracer->NsPerItem("exec.epoch.pin"));
    measured.Num("traced_qps", traced.qps);
    SetTraceMetrics(*tracer, options, mixed.qps, traced.qps, result);
  }

  // Drained reads: fold everything into a fresh base, pin, and serve.
  engine->Flush();
  const std::shared_ptr<const exec::EpochView> view = engine->Pin();
  result.Set("core.dynamic.delta_after_flush",
             static_cast<double>(view->view().delta.size()));
  result.Set("index_mb",
             static_cast<double>(LastSpillBytes(options.trace ? spill_b
                                                              : spill_a)) /
                 1e6);
  auto materialized = engine->MaterializeView(*view);
  if (!materialized.ok()) {
    std::fprintf(stderr, "error: materializing the drained view failed: %s\n",
                 materialized.status().ToString().c_str());
    return 1;
  }
  std::shared_ptr<const DynamicRangeReach::Base> reference;
  {
    const int64_t t0 = NowNs();
    reference = DynamicRangeReach::Base::Build(std::move(materialized).value(),
                                               view->position());
    result.Set("core.dynamic.base_build_s", SecondsSince(t0));
  }
  exec::ThreadPool pool(kReaders + 2);
  exec::BatchRunner runner(&pool);
  std::vector<Expected> expected;
  for (const auto& batch : batches) {
    expected.push_back(
        ToExpected(QueryKind::kBool, runner.Run(*reference->method, batch)));
  }
  const double drained_seconds =
      std::max(kMinDrainedShare * options.seconds,
               options.seconds - SecondsSince(mixed_start));
  std::vector<double> drained_qps;
  const int64_t drain_start = NowNs();
  for (size_t i = 0; i < kQueryBatches || SecondsSince(drain_start) <
                                               drained_seconds;
       ++i) {
    const size_t b = i % kQueryBatches;
    const int64_t t0 = NowNs();
    const exec::BatchResult got = runner.Run(*view, batches[b]);
    drained_qps.push_back(static_cast<double>(batches[b].size()) /
                          SecondsSince(t0));
    result.attempted += batches[b].size();
    result.failed += CountMismatches(expected[b], got);
  }
  result.Set("exec.streaming.drained_qps", Median(drained_qps));
  measured.Num("drained_qps", Median(drained_qps));

  if (tracer != nullptr) {
    const std::string path = options.out_dir + "/churn_roundtrip.gsr";
    const int64_t t0 = NowNs();
    auto round_trip = DynamicRangeReach::Base::RoundTripThroughSnapshot(
        reference, path, snapshot::LoadMode::kMmap);
    result.Set("core.dynamic.snapshot_roundtrip_s", SecondsSince(t0));
    if (!round_trip.ok()) {
      ++result.failed;
    }
    // graph.condense_s and core.build_s: the two halves of Base::Build,
    // timed on the initial network.
    std::vector<double> condense_s, build_s;
    for (int rep = 0; rep < kSetupReps; ++rep) {
      const int64_t c0 = NowNs();
      CondensedNetwork cn(&network);
      const int64_t c1 = NowNs();
      MethodConfig config;
      config.kind = MethodKind::kThreeDReach;
      const auto built = CreateMethod(&cn, config);
      const int64_t c2 = NowNs();
      condense_s.push_back(static_cast<double>(c1 - c0) / 1e9);
      build_s.push_back(static_cast<double>(c2 - c1) / 1e9);
    }
    result.Set("graph.condense_s", Median(condense_s));
    result.Set("core.build_s", Median(build_s));

    // The drained stream through the view and through its base directly.
    const RangeReachMethod& base = *view->view().base->method;
    auto view_scratch = view->NewScratch();
    auto base_scratch = base.NewScratch();
    std::vector<double> view_ns, base_ns;
    uint64_t mismatches = 0;
    for (size_t rep = 0; rep < 8; ++rep) {
      const size_t b = rep % kQueryBatches;
      view_ns.push_back(
          SerialNsPerQuery(*view, *view_scratch, batches[b], expected[b], mismatches));
      base_ns.push_back(
          SerialNsPerQuery(base, *base_scratch, batches[b], expected[b], mismatches));
      result.attempted += 2 * batches[b].size();
    }
    result.failed += mismatches;
    result.Set("core.dynamic.view_eval_ns", Median(view_ns));
    result.Set("core.dynamic.base_eval_ns", Median(base_ns));
    std::remove(path.c_str());
  }

  result.detail.Obj("record", record);
  result.detail.Obj("drift", drift);
  result.detail.Obj("measured", measured);
  engine.reset();
  std::error_code ec;
  std::filesystem::remove_all(spill_root, ec);
  return 0;
}

}  // namespace perfbench
