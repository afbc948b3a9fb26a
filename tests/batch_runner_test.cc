#include "exec/batch_runner.h"

#include <gtest/gtest.h>

#include <atomic>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/dynamic_range_reach.h"
#include "core/method_factory.h"
#include "core/soc_reach.h"
#include "datagen/workload.h"
#include "exec/streaming_engine.h"
#include "exec/thread_pool.h"
#include "tests/test_util.h"

namespace gsr {
namespace {

/// The execution-layer correctness property: a batch evaluated in
/// parallel (per-worker scratches, merged counters) must be bit-identical
/// to the same batch evaluated serially through the classic two-argument
/// Evaluate. Run this suite under -DGSR_SANITIZE=thread to also certify
/// the absence of data races.

std::vector<MethodConfig> AllConfigs() {
  std::vector<MethodConfig> configs;
  for (const MethodKind kind :
       {MethodKind::kNaiveBfs, MethodKind::kSpaReachBfl,
        MethodKind::kSpaReachInt, MethodKind::kSpaReachPll,
        MethodKind::kSpaReachFeline, MethodKind::kGeoReach,
        MethodKind::kSocReach, MethodKind::kThreeDReach,
        MethodKind::kThreeDReachRev}) {
    MethodConfig config;
    config.kind = kind;
    configs.push_back(config);
  }
  return configs;
}

std::vector<RangeReachQuery> MixedWorkload(const GeoSocialNetwork& network,
                                           uint32_t count, uint64_t seed) {
  WorkloadGenerator workload(&network, seed);
  QuerySpec spec;
  spec.count = count;
  spec.min_out_degree = 0;
  spec.max_out_degree = 1u << 30;
  return workload.Generate(spec);
}

TEST(BatchRunnerTest, ParallelMatchesSerialForEveryMethod) {
  const GeoSocialNetwork network =
      testing::RandomGeoSocialNetwork(250, 2.5, 0.4, 11);
  const CondensedNetwork cn(&network);
  const std::vector<RangeReachQuery> queries =
      MixedWorkload(network, 400, 77);

  exec::ThreadPool pool(4);
  exec::BatchRunner runner(&pool);

  for (const MethodConfig& config : AllConfigs()) {
    const auto method = CreateMethod(&cn, config);

    std::vector<uint8_t> serial;
    serial.reserve(queries.size());
    size_t serial_true = 0;
    for (const RangeReachQuery& query : queries) {
      const bool answer = method->EvaluateQuery(query);
      serial.push_back(answer ? 1 : 0);
      serial_true += answer ? 1 : 0;
    }
    const RangeReachMethod::Counters serial_counters = method->counters();

    const exec::BatchResult parallel = runner.Run(*method, queries);
    ASSERT_EQ(parallel.answers.size(), queries.size()) << method->name();
    EXPECT_EQ(parallel.answers, serial) << method->name();
    EXPECT_EQ(parallel.true_count, serial_true) << method->name();

    // A twin that only runs the parallel batch ends with the serial
    // pass's counters, every field; `method` (serial pass plus the same
    // batch) holds exactly twice that.
    const auto parallel_twin = CreateMethod(&cn, config);
    (void)runner.Run(*parallel_twin, queries);
    RangeReachMethod::Counters serial_twice = serial_counters;
    serial_twice += serial_counters;
    EXPECT_EQ(parallel_twin->counters(), serial_counters) << method->name();
    EXPECT_EQ(method->counters(), serial_twice) << method->name();
  }
}

TEST(BatchRunnerTest, CountersMatchSerialTwin) {
  // Two instances of the same method over the same condensation: one
  // answers the batch serially, one in parallel. After the batch the
  // parallel instance's merged counters must equal the serial one's.
  const GeoSocialNetwork network =
      testing::RandomGeoSocialNetwork(200, 2.0, 0.5, 21);
  const CondensedNetwork cn(&network);
  const std::vector<RangeReachQuery> queries =
      MixedWorkload(network, 300, 88);

  const SocReach serial_soc(&cn);
  const SocReach parallel_soc(&cn);
  for (const RangeReachQuery& query : queries) {
    (void)serial_soc.EvaluateQuery(query);
  }

  exec::ThreadPool pool(4);
  exec::BatchRunner runner(&pool);
  (void)runner.Run(parallel_soc, queries);

  EXPECT_EQ(parallel_soc.counters().queries, serial_soc.counters().queries);
  EXPECT_EQ(parallel_soc.counters().descendants,
            serial_soc.counters().descendants);
  EXPECT_EQ(parallel_soc.counters().containment_tests,
            serial_soc.counters().containment_tests);
  EXPECT_EQ(serial_soc.counters().queries, queries.size());
}

TEST(BatchRunnerTest, ScratchesAreReusedAcrossRunsAndRebuiltOnMethodSwitch) {
  const GeoSocialNetwork network =
      testing::RandomGeoSocialNetwork(120, 2.0, 0.5, 31);
  const CondensedNetwork cn(&network);
  const std::vector<RangeReachQuery> queries =
      MixedWorkload(network, 100, 99);

  exec::ThreadPool pool(3);
  exec::BatchRunner runner(&pool);
  EXPECT_EQ(runner.cached_scratch_count(), 0u);

  MethodConfig config;
  config.kind = MethodKind::kThreeDReach;
  const auto first = CreateMethod(&cn, config);
  const exec::BatchResult a = runner.Run(*first, queries);
  EXPECT_EQ(runner.cached_scratch_count(), pool.size());
  const exec::BatchResult b = runner.Run(*first, queries);
  EXPECT_EQ(runner.cached_scratch_count(), pool.size());
  EXPECT_EQ(a.answers, b.answers);

  config.kind = MethodKind::kSocReach;
  const auto second = CreateMethod(&cn, config);
  (void)runner.Run(*second, queries);
  EXPECT_EQ(runner.cached_scratch_count(), pool.size());
}

TEST(BatchRunnerTest, MethodSwitchMidStreamRebuildsScratchesAndDrainsOnce) {
  // Alternating between two method instances through one runner: every
  // switch must rebuild the scratch cache for the new instance (keyed by
  // instance_id, not type — both are SocReach) and drain the outgoing
  // batch's counters exactly once, never double-counting across rounds.
  const GeoSocialNetwork network =
      testing::RandomGeoSocialNetwork(150, 2.5, 0.4, 67);
  const CondensedNetwork cn(&network);
  const std::vector<RangeReachQuery> queries =
      MixedWorkload(network, 200, 91);

  const SocReach serial_twin(&cn);
  const SocReach parallel_a(&cn);
  const SocReach parallel_b(&cn);

  exec::ThreadPool pool(4);
  exec::BatchRunner runner(&pool);
  for (int round = 0; round < 3; ++round) {
    (void)runner.Run(parallel_a, queries);
    EXPECT_EQ(runner.cached_scratch_count(), pool.size());
    (void)runner.Run(parallel_b, queries);
    EXPECT_EQ(runner.cached_scratch_count(), pool.size());
  }
  for (int round = 0; round < 3; ++round) {
    for (const RangeReachQuery& query : queries) {
      (void)serial_twin.EvaluateQuery(query);
    }
  }
  EXPECT_EQ(parallel_a.counters().queries, serial_twin.counters().queries);
  EXPECT_EQ(parallel_a.counters().descendants,
            serial_twin.counters().descendants);
  EXPECT_EQ(parallel_a.counters().containment_tests,
            serial_twin.counters().containment_tests);
  EXPECT_EQ(parallel_b.counters().queries, parallel_a.counters().queries);

  // The scheduler path keeps the exactly-once drain too. Shared execution
  // may amortize probes (descendants/containment_tests shrink), but this
  // workload has no duplicate (vertex, region) pair — regions are fresh
  // random rectangles — so each RunShared adds exactly |batch| to the
  // grouped query counter. Grouping is forced: 200 queries sit below the
  // adaptive small-window bypass, which drains through the per-query
  // path instead of the grouped one.
  exec::SchedulerOptions scheduler_options;
  scheduler_options.min_window_to_group = 1;
  const uint64_t before = parallel_a.counters().queries;
  (void)runner.RunShared(parallel_a, queries, scheduler_options);
  (void)runner.RunShared(parallel_a, queries, scheduler_options);
  EXPECT_EQ(parallel_a.counters().queries, before + 2 * queries.size());
}

/// Counts every completed Evaluate, on its scratch and in `evaluations`,
/// and throws on a poison vertex — so a test can tell what a failed batch
/// did and compare it with what the runner drained.
class PoisonedCountingMethod : public RangeReachMethod {
 public:
  static constexpr VertexId kPoison = 7;

  bool Evaluate(VertexId vertex, const Rect& region,
                QueryScratch& scratch) const override {
    (void)region;
    if (vertex == kPoison) throw std::runtime_error("poison vertex");
    ++scratch.counters.queries;
    evaluations.fetch_add(1, std::memory_order_relaxed);
    return true;
  }
  std::string name() const override { return "PoisonedCounting"; }
  size_t IndexSizeBytes() const override { return 1; }

  mutable std::atomic<uint64_t> evaluations{0};
};

TEST(BatchRunnerTest, EveryEntryPointRunsAllButTheThrowingQuery) {
  // One query of 200 throws. Every entry point still evaluates the other
  // 199 (the throw must not take the rest of its worker's claim with
  // it), drains their counters into the method aggregate before the
  // rethrow, and stays usable for the next batch.
  std::vector<RangeReachQuery> queries;
  std::vector<AnyReachQuery> any_queries;
  for (VertexId v = 0; v < 200; ++v) {
    queries.push_back({v, Rect(0, 0, 1, 1)});
    any_queries.push_back({{v}, Rect(0, 0, 1, 1)});
  }
  const PoisonedCountingMethod method;
  exec::ThreadPool pool(2);
  exec::BatchRunner runner(&pool);
  exec::SchedulerOptions grouped;
  grouped.min_window_to_group = 1;
  const std::vector<std::pair<std::string, std::function<void()>>> runs = {
      {"Run", [&] { (void)runner.Run(method, queries); }},
      {"RunAny", [&] { (void)runner.RunAny(method, any_queries); }},
      {"RunShared grouped",
       [&] { (void)runner.RunShared(method, queries, grouped); }},
      // 200 queries sit below the default min_window_to_group.
      {"RunShared small window",
       [&] { (void)runner.RunShared(method, queries); }},
  };
  uint64_t evaluated = 0;
  for (const auto& [name, run] : runs) {
    SCOPED_TRACE(name);
    EXPECT_THROW(run(), std::runtime_error);
    evaluated += queries.size() - 1;
    EXPECT_EQ(method.evaluations.load(), evaluated);
    EXPECT_EQ(method.counters().queries, evaluated);
  }

  queries.erase(queries.begin() + PoisonedCountingMethod::kPoison);
  const exec::BatchResult clean = runner.Run(method, queries);
  EXPECT_EQ(clean.true_count, queries.size());
  EXPECT_EQ(method.counters().queries, evaluated + queries.size());
}

/// Answers TRUE everywhere and counts NewScratch calls (all made on the
/// calling thread, by the runner's scratch cache).
class ScratchCountingMethod : public RangeReachMethod {
 public:
  bool Evaluate(VertexId vertex, const Rect& region,
                QueryScratch& scratch) const override {
    (void)vertex;
    (void)region;
    (void)scratch;
    return true;
  }
  std::unique_ptr<QueryScratch> NewScratch() const override {
    ++new_scratch_calls;
    return RangeReachMethod::NewScratch();
  }
  std::string name() const override { return "ScratchCounting"; }
  size_t IndexSizeBytes() const override { return 1; }

  mutable size_t new_scratch_calls = 0;
};

TEST(BatchRunnerTest, EveryEntryPointSharesOneScratchCache) {
  std::vector<RangeReachQuery> queries;
  std::vector<AnyReachQuery> any_queries;
  for (VertexId v = 0; v < 100; ++v) {
    queries.push_back({v % 10, Rect(0, 0, 1, 1)});
    any_queries.push_back({{v}, Rect(0, 0, 1, 1)});
  }
  const ScratchCountingMethod method;
  (void)method.counters();  // Creates the method-owned default scratch.
  const size_t before = method.new_scratch_calls;

  exec::ThreadPool pool(3);
  exec::BatchRunner runner(&pool);
  exec::SchedulerOptions grouped;
  grouped.min_window_to_group = 1;
  (void)runner.Run(method, queries);
  (void)runner.RunShared(method, queries, grouped);
  (void)runner.RunShared(method, queries);
  (void)runner.RunAny(method, any_queries);
  EXPECT_EQ(runner.Run(method, queries).true_count, queries.size());
  EXPECT_EQ(method.new_scratch_calls - before, pool.size());
  EXPECT_EQ(runner.cached_scratch_count(), pool.size());
}

TEST(BatchRunnerTest, RecordLatenciesProducesOnePerQuery) {
  const GeoSocialNetwork network =
      testing::RandomGeoSocialNetwork(80, 2.0, 0.5, 51);
  const CondensedNetwork cn(&network);
  const std::vector<RangeReachQuery> queries = MixedWorkload(network, 64, 7);

  MethodConfig config;
  config.kind = MethodKind::kThreeDReach;
  const auto method = CreateMethod(&cn, config);

  exec::ThreadPool pool(2);
  exec::BatchRunner runner(&pool);
  exec::BatchOptions options;
  options.record_latencies = true;
  const exec::BatchResult result = runner.Run(*method, queries, options);
  ASSERT_EQ(result.latencies_us.size(), queries.size());
  for (const double latency : result.latencies_us) {
    EXPECT_GE(latency, 0.0);
  }
}

TEST(BatchRunnerTest, DynamicRangeReachParallelReaders) {
  // A DynamicRangeReach is read through an EpochView over its snapshot;
  // explicit per-worker scratches support the same multi-reader regime,
  // exercised here directly on the pool.
  GeoSocialNetwork base = testing::RandomGeoSocialNetwork(150, 2.0, 0.5, 61);
  DynamicRangeReach dynamic(std::move(base));
  const auto venue = dynamic.Apply(Update::AddVertex(Point2D{50.0, 50.0}));
  ASSERT_TRUE(venue.ok());
  ASSERT_TRUE(dynamic.Apply(Update::InsertEdge(0, *venue)).ok());

  std::vector<RangeReachQuery> queries =
      MixedWorkload(*dynamic.base()->network, 200, 71);
  for (auto& query : queries) {
    // Keep vertices in range of the updated network (they already are;
    // the workload draws from the base network).
    ASSERT_LT(query.vertex, dynamic.num_vertices());
  }

  const exec::EpochView view(dynamic.Snapshot(), /*epoch=*/1);
  std::vector<uint8_t> serial;
  serial.reserve(queries.size());
  auto scratch = view.NewScratch();
  for (const RangeReachQuery& query : queries) {
    serial.push_back(
        view.Evaluate(query.vertex, query.region, *scratch) ? 1 : 0);
  }

  exec::ThreadPool pool(4);
  std::vector<std::unique_ptr<QueryScratch>> scratches;
  for (unsigned i = 0; i < pool.size(); ++i) {
    scratches.push_back(view.NewScratch());
  }
  std::vector<uint8_t> parallel(queries.size(), 0);
  pool.ParallelFor(queries.size(), 8, [&](size_t i, unsigned worker) {
    parallel[i] = view.Evaluate(queries[i].vertex, queries[i].region,
                                *scratches[worker])
                      ? 1
                      : 0;
  });
  EXPECT_EQ(parallel, serial);
}

}  // namespace
}  // namespace gsr
