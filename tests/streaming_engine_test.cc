#include "exec/streaming_engine.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "core/naive_bfs.h"
#include "datagen/workload.h"
#include "exec/batch_runner.h"
#include "exec/query_scheduler.h"
#include "tests/test_util.h"

namespace gsr::exec {
namespace {

Rect RandomRegion(Rng& rng) {
  const double x = rng.NextDoubleInRange(-5, 85);
  const double y = rng.NextDoubleInRange(-5, 85);
  return Rect(x, y, x + rng.NextDoubleInRange(2, 25),
              y + rng.NextDoubleInRange(2, 25));
}

TEST(StreamingRangeReachTest, StreamAgreesWithOracleAtEveryStep) {
  const GeoSocialNetwork initial =
      testing::RandomGeoSocialNetwork(60, 1.5, 0.4, 7);
  StreamingOptions options;
  options.publish_every = 1;
  options.rebuild_threshold = 24;  // Several inline rebuilds over the run.
  StreamingRangeReach engine(
      testing::RandomGeoSocialNetwork(60, 1.5, 0.4, 7), /*pool=*/nullptr,
      options);

  const auto stream =
      GenerateUpdateStream(initial, UpdateStreamSpec{.count = 150}, 8);
  Rng rng(9);
  for (size_t i = 0; i < stream.size(); ++i) {
    ASSERT_TRUE(engine.Apply(stream[i]).ok());
    if (i % 10 != 0) continue;

    const auto view = engine.Pin();
    auto materialized = engine.MaterializeView(*view);
    ASSERT_TRUE(materialized.ok());
    const NaiveBfsMethod oracle(&*materialized);
    auto scratch = view->NewScratch();
    for (int q = 0; q < 10; ++q) {
      const VertexId v =
          static_cast<VertexId>(rng.NextBounded(view->num_vertices()));
      const Rect region = RandomRegion(rng);
      ASSERT_EQ(view->Evaluate(v, region, *scratch),
                oracle.Evaluate(v, region))
          << "update " << i << " vertex " << v;
    }
  }
  EXPECT_GE(engine.stats().rebuilds_completed, 1u);
  EXPECT_EQ(engine.stats().updates, engine.log_size());
}

TEST(StreamingRangeReachTest, PinnedEpochsAnswerAtTheirOwnPosition) {
  const GeoSocialNetwork initial =
      testing::RandomGeoSocialNetwork(50, 1.5, 0.4, 11);
  StreamingOptions options;
  options.rebuild_threshold = 0;  // Only the explicit Flush below rebuilds.
  StreamingRangeReach engine(
      testing::RandomGeoSocialNetwork(50, 1.5, 0.4, 11), /*pool=*/nullptr,
      options);

  const auto stream =
      GenerateUpdateStream(initial, UpdateStreamSpec{.count = 90}, 12);
  std::vector<std::shared_ptr<const EpochView>> pins;
  for (size_t i = 0; i < stream.size(); ++i) {
    ASSERT_TRUE(engine.Apply(stream[i]).ok());
    if (i % 30 == 0) pins.push_back(engine.Pin());
  }
  pins.push_back(engine.Pin());
  engine.Flush();  // Base hot-swap: pinned views must keep their answers.
  EXPECT_EQ(engine.pending_updates(), 0u);
  pins.push_back(engine.Pin());

  Rng rng(13);
  for (const auto& view : pins) {
    auto materialized = engine.MaterializeView(*view);
    ASSERT_TRUE(materialized.ok());
    const NaiveBfsMethod oracle(&*materialized);
    auto scratch = view->NewScratch();
    for (int q = 0; q < 25; ++q) {
      const VertexId v =
          static_cast<VertexId>(rng.NextBounded(view->num_vertices()));
      const Rect region = RandomRegion(rng);
      ASSERT_EQ(view->Evaluate(v, region, *scratch),
                oracle.Evaluate(v, region))
          << view->name() << " at position " << view->position();
    }
  }
  // Distinct epochs, monotone positions.
  for (size_t i = 1; i < pins.size(); ++i) {
    EXPECT_LT(pins[i - 1]->epoch(), pins[i]->epoch());
    EXPECT_LE(pins[i - 1]->position(), pins[i]->position());
  }
}

TEST(StreamingRangeReachTest, BatchRunnerDrivesEpochViews) {
  const GeoSocialNetwork initial =
      testing::RandomGeoSocialNetwork(80, 2.0, 0.4, 21);
  ThreadPool pool(4);
  StreamingRangeReach engine(
      testing::RandomGeoSocialNetwork(80, 2.0, 0.4, 21), &pool);
  const auto stream =
      GenerateUpdateStream(initial, UpdateStreamSpec{.count = 40}, 22);
  ASSERT_TRUE(engine.ApplyAll(stream).ok());
  engine.WaitForRebuilds();

  const auto view = engine.Pin();
  Rng rng(23);
  std::vector<RangeReachQuery> queries;
  for (int q = 0; q < 200; ++q) {
    queries.push_back(RangeReachQuery{
        static_cast<VertexId>(rng.NextBounded(view->num_vertices())),
        RandomRegion(rng)});
  }
  // The pinned epoch is a RangeReachMethod: the batch layer fans it out
  // over the same pool that runs background rebuilds.
  BatchRunner runner(&pool);
  const BatchResult result = runner.Run(*view, queries);

  auto scratch = view->NewScratch();
  for (size_t q = 0; q < queries.size(); ++q) {
    ASSERT_EQ(result.answers[q] != 0,
              view->Evaluate(queries[q].vertex, queries[q].region, *scratch));
  }
}

TEST(StreamingRangeReachTest, EpochViewCountsQueriesAndOverlayWork) {
  const GeoSocialNetwork initial =
      testing::RandomGeoSocialNetwork(80, 2.0, 0.4, 41);
  StreamingOptions options;
  options.rebuild_threshold = 0;  // Only the explicit Flush below rebuilds.
  StreamingRangeReach engine(
      testing::RandomGeoSocialNetwork(80, 2.0, 0.4, 41), /*pool=*/nullptr,
      options);
  const auto stream =
      GenerateUpdateStream(initial, UpdateStreamSpec{.count = 60}, 42);
  ASSERT_TRUE(engine.ApplyAll(stream).ok());

  Rng rng(43);
  std::vector<RangeReachQuery> queries;
  for (int q = 0; q < 120; ++q) {
    queries.push_back(RangeReachQuery{
        static_cast<VertexId>(rng.NextBounded(engine.num_vertices())),
        RandomRegion(rng)});
  }

  // Runs a boolean and a count batch at 1 and 4 threads; returns the
  // overlay vertices each batch expanded, after checking that every
  // query was counted.
  const auto run_batches = [&](const EpochView& view) {
    std::vector<uint64_t> visited;
    for (const unsigned threads : {1u, 4u}) {
      ThreadPool pool(threads);
      BatchRunner runner(&pool);
      for (const QueryKind kind : {QueryKind::kBool, QueryKind::kCount}) {
        view.ResetCounters();
        BatchOptions batch;
        batch.kind = kind;
        runner.Run(view, queries, batch);
        EXPECT_EQ(view.counters().queries, queries.size())
            << threads << " threads";
        visited.push_back(view.counters().vertices_visited);
      }
    }
    return visited;
  };

  const auto risky = engine.Pin();
  ASSERT_TRUE(risky->view().delta.risky());
  for (const uint64_t visited : run_batches(*risky)) EXPECT_GT(visited, 0u);

  engine.Flush();
  const auto drained = engine.Pin();
  ASSERT_EQ(drained->view().delta.size(), 0u);
  for (const uint64_t visited : run_batches(*drained)) EXPECT_EQ(visited, 0u);
}

TEST(StreamingRangeReachTest, RunSharedOnPinnedViewsMatchesRunAndOracle) {
  const GeoSocialNetwork initial =
      testing::RandomGeoSocialNetwork(80, 2.0, 0.4, 51);
  StreamingOptions options;
  options.rebuild_threshold = 0;  // Only the explicit Flush below rebuilds.
  StreamingRangeReach engine(
      testing::RandomGeoSocialNetwork(80, 2.0, 0.4, 51), /*pool=*/nullptr,
      options);
  const auto stream =
      GenerateUpdateStream(initial, UpdateStreamSpec{.count = 60}, 52);
  ASSERT_TRUE(engine.ApplyAll(stream).ok());

  // Half the queries start at one of eight hot vertices, so grouping has
  // same-vertex groups to share; the regions are all distinct.
  Rng rng(53);
  std::vector<RangeReachQuery> queries;
  for (int q = 0; q < 160; ++q) {
    const uint64_t range = q % 2 == 0 ? 8 : engine.num_vertices();
    queries.push_back(RangeReachQuery{
        static_cast<VertexId>(rng.NextBounded(range)), RandomRegion(rng)});
  }

  // Every kind through Run, through RunShared grouped (window above
  // min_window_to_group) and bypassed, and through Run on a NaiveBFS
  // oracle over the view's materialized network.
  const auto check = [&](const EpochView& view) {
    auto materialized = engine.MaterializeView(view);
    ASSERT_TRUE(materialized.ok());
    const NaiveBfsMethod oracle(&*materialized);
    ThreadPool pool(4);
    BatchRunner runner(&pool);
    for (const QueryKind kind :
         {QueryKind::kBool, QueryKind::kCount, QueryKind::kEnum}) {
      BatchOptions batch;
      batch.kind = kind;
      const BatchResult expected = runner.Run(oracle, queries, batch);
      const BatchResult run = runner.Run(view, queries, batch);
      EXPECT_EQ(run.answers, expected.answers);
      EXPECT_EQ(run.counts, expected.counts);
      EXPECT_EQ(run.enums, expected.enums);
      for (const bool grouped : {true, false}) {
        SchedulerOptions shared;
        shared.kind = kind;
        shared.min_window_to_group = grouped ? 1 : queries.size() + 1;
        view.ResetCounters();
        const BatchResult got = runner.RunShared(view, queries, shared);
        const std::string where = view.name() + " kind " +
                                  std::to_string(static_cast<int>(kind)) +
                                  (grouped ? " grouped" : " bypassed");
        EXPECT_EQ(got.answers, run.answers) << where;
        EXPECT_EQ(got.counts, run.counts) << where;
        EXPECT_EQ(got.enums, run.enums) << where;
        EXPECT_EQ(got.answers, expected.answers) << where;
        EXPECT_EQ(got.counts, expected.counts) << where;
        EXPECT_EQ(got.enums, expected.enums) << where;
        EXPECT_EQ(view.counters().queries, queries.size()) << where;
        if (grouped) {
          ASSERT_NE(runner.scheduler(), nullptr);
          EXPECT_LT(runner.scheduler()->last_share_stats().groups,
                    queries.size())
              << where;
        }
      }
    }
  };

  const auto risky = engine.Pin();
  ASSERT_TRUE(risky->view().delta.risky());
  check(*risky);

  engine.Flush();
  const auto drained = engine.Pin();
  ASSERT_EQ(drained->view().delta.size(), 0u);
  check(*drained);
}

TEST(StreamingRangeReachTest, FailedSpillKeepsTheBuiltBase) {
  // The spill directory's parent is a regular file, so saving the rebuilt
  // base fails: the engine must install the directly built base, count
  // the failure and keep answering exactly.
  const std::string file = ::testing::TempDir() + "/spill_parent_is_a_file";
  std::ofstream(file) << "not a directory";
  const GeoSocialNetwork initial =
      testing::RandomGeoSocialNetwork(60, 1.5, 0.4, 11);
  StreamingOptions options;
  options.rebuild_threshold = 0;  // The Flush below is the only rebuild.
  options.spill_dir = file + "/spill";
  StreamingRangeReach engine(
      testing::RandomGeoSocialNetwork(60, 1.5, 0.4, 11), /*pool=*/nullptr,
      options);
  ASSERT_TRUE(engine
                  .ApplyAll(GenerateUpdateStream(
                      initial, UpdateStreamSpec{.count = 80}, 12))
                  .ok());
  engine.Flush();

  const auto stats = engine.stats();
  EXPECT_EQ(stats.rebuilds_completed, 1u);
  EXPECT_EQ(stats.rebuild_failures, 1u);
  EXPECT_EQ(stats.snapshot_swaps, 0u);
  EXPECT_FALSE(engine.last_rebuild_error().ok());

  const auto view = engine.Pin();
  auto materialized = engine.MaterializeView(*view);
  ASSERT_TRUE(materialized.ok());
  const NaiveBfsMethod oracle(&*materialized);
  auto scratch = view->NewScratch();
  Rng rng(13);
  for (int q = 0; q < 50; ++q) {
    const VertexId v =
        static_cast<VertexId>(rng.NextBounded(view->num_vertices()));
    const Rect region = RandomRegion(rng);
    ASSERT_EQ(view->Evaluate(v, region, *scratch), oracle.Evaluate(v, region))
        << "vertex " << v;
  }
  std::remove(file.c_str());
}

/// The read-while-update gate: reader threads pin epochs and query while
/// the writer streams updates and background rebuilds hot-swap bases
/// through the snapshot layer. Sampled answers are verified afterwards
/// against a rebuilt-from-scratch oracle at the sampled log position —
/// zero violations required, across 1, 4, and hardware-many readers.
/// The TSan CI job runs this test to certify the absence of data races.
class ReadWhileUpdateTest : public ::testing::TestWithParam<unsigned> {};

TEST_P(ReadWhileUpdateTest, ConcurrentReadersSeeExactAnswers) {
  const unsigned readers = GetParam();
  const GeoSocialNetwork initial =
      testing::RandomGeoSocialNetwork(120, 1.8, 0.4, 31);

  ThreadPool pool(readers);
  StreamingOptions options;
  options.publish_every = 1;
  options.rebuild_threshold = 48;
  options.spill_dir = ::testing::TempDir();  // Swap through snapshots.
  StreamingRangeReach engine(
      testing::RandomGeoSocialNetwork(120, 1.8, 0.4, 31), &pool, options);

  const auto stream =
      GenerateUpdateStream(initial, UpdateStreamSpec{.count = 400}, 32);

  struct Sample {
    uint64_t position;
    VertexId vertex;
    Rect region;
    bool answer;
  };
  std::vector<std::vector<Sample>> samples(readers);
  std::atomic<bool> done{false};
  // Readers that have taken their first sample. The writer starts only
  // once all are running, so a loaded machine cannot schedule the whole
  // update stream before any reader (which would leave nothing to verify).
  std::atomic<unsigned> started{0};

  std::vector<std::thread> reader_threads;
  for (unsigned r = 0; r < readers; ++r) {
    reader_threads.emplace_back([&, r] {
      Rng rng(1000 + r);
      for (bool first = true; !done.load(std::memory_order_acquire);
           first = false) {
        const auto view = engine.Pin();
        auto scratch = view->NewScratch();
        for (int q = 0; q < 16; ++q) {
          const VertexId v =
              static_cast<VertexId>(rng.NextBounded(view->num_vertices()));
          const Rect region = RandomRegion(rng);
          const bool answer = view->Evaluate(v, region, *scratch);
          // Sample sparsely: the post-run oracle materializes each
          // distinct sampled position once.
          if (q == 0 && samples[r].size() < 40) {
            samples[r].push_back(Sample{view->position(), v, region, answer});
          }
        }
        if (first) started.fetch_add(1, std::memory_order_release);
      }
    });
  }

  while (started.load(std::memory_order_acquire) < readers) {
    std::this_thread::yield();
  }
  for (const Update& update : stream) {
    ASSERT_TRUE(engine.Apply(update).ok());
  }
  engine.WaitForRebuilds();
  done.store(true, std::memory_order_release);
  for (auto& t : reader_threads) t.join();

  // At least one background rebuild hot-swapped a snapshot-loaded base
  // while the readers were live.
  const auto stats = engine.stats();
  EXPECT_GE(stats.rebuilds_completed, 1u);
  EXPECT_GE(stats.snapshot_swaps, 1u);
  EXPECT_EQ(stats.rebuild_failures, 0u)
      << engine.last_rebuild_error().ToString();

  // Verify every sample against the from-scratch oracle at its position.
  std::map<uint64_t, std::unique_ptr<GeoSocialNetwork>> networks;
  uint64_t verified = 0;
  for (unsigned r = 0; r < readers; ++r) {
    for (const Sample& sample : samples[r]) {
      auto& network = networks[sample.position];
      if (!network) {
        auto log = engine.CopyLog(0, sample.position);
        auto materialized = MaterializeNetwork(initial, log);
        ASSERT_TRUE(materialized.ok());
        network = std::make_unique<GeoSocialNetwork>(
            std::move(materialized).value());
      }
      const NaiveBfsMethod oracle(network.get());
      ASSERT_EQ(sample.answer, oracle.Evaluate(sample.vertex, sample.region))
          << "reader " << r << " at position " << sample.position;
      ++verified;
    }
  }
  EXPECT_GT(verified, 0u);
}

INSTANTIATE_TEST_SUITE_P(Threads, ReadWhileUpdateTest,
                         ::testing::Values(1u, 4u, ThreadPool::DefaultThreads()),
                         [](const ::testing::TestParamInfo<unsigned>& info) {
                           return "readers_" + std::to_string(info.param) +
                                  "_idx" + std::to_string(info.index);
                         });

}  // namespace
}  // namespace gsr::exec
