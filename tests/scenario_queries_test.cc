#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <memory>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <unordered_set>
#include <vector>

#include "common/rng.h"
#include "core/condensed_network.h"
#include "core/method_factory.h"
#include "core/naive_bfs.h"
#include "core/range_reach.h"
#include "core/result_sink.h"
#include "datagen/workload.h"
#include "exec/batch_runner.h"
#include "exec/thread_pool.h"
#include "tests/test_util.h"

namespace gsr {
namespace {

/// The result-sink query surface: RangeReachCount, RangeReachEnum and
/// multi-source AnyReach, from the sink primitives up through the exec
/// engine. Method-vs-oracle agreement at scale lives in
/// methods_agreement_test; this suite owns the contracts and the edge
/// cases (degenerate regions, empty sources, kind plumbing).

std::vector<MethodConfig> AllConfigs() {
  std::vector<MethodConfig> configs;
  for (const MethodKind kind :
       {MethodKind::kNaiveBfs, MethodKind::kSpaReachBfl,
        MethodKind::kSpaReachInt, MethodKind::kSpaReachPll,
        MethodKind::kSpaReachFeline, MethodKind::kGeoReach,
        MethodKind::kSocReach, MethodKind::kThreeDReach,
        MethodKind::kThreeDReachRev}) {
    for (const SccSpatialMode mode :
         {SccSpatialMode::kReplicate, SccSpatialMode::kMbr}) {
      MethodConfig config;
      config.kind = kind;
      config.scc_mode = mode;
      configs.push_back(config);
    }
  }
  return configs;
}

// ---------------------------------------------------------------------
// ResultSink primitives.

TEST(ResultSinkTest, BoolSinkShortCircuitsAfterFirstHit) {
  ResultSink sink = ResultSink::Bool();
  EXPECT_FALSE(sink.found());
  EXPECT_FALSE(sink.done());
  EXPECT_FALSE(sink.Add(7));  // Bool sink wants nothing further.
  EXPECT_TRUE(sink.found());
  EXPECT_TRUE(sink.done());
  EXPECT_EQ(sink.count(), 1u);
}

TEST(ResultSinkTest, MarkFoundRecordsExistenceWithoutWitness) {
  ResultSink sink = ResultSink::Bool();
  sink.MarkFound();
  EXPECT_TRUE(sink.found());
  EXPECT_TRUE(sink.done());
  EXPECT_TRUE(sink.vertices().empty());
}

TEST(ResultSinkTest, CountSinkNeverStops) {
  ResultSink sink = ResultSink::Count();
  for (VertexId v = 0; v < 10; ++v) {
    EXPECT_TRUE(sink.Add(v));
    EXPECT_FALSE(sink.done());
  }
  EXPECT_EQ(sink.count(), 10u);
  EXPECT_TRUE(sink.vertices().empty());  // Counting stores nothing.
}

TEST(ResultSinkTest, EnumSinkClearsArenaAndFinalizeSorts) {
  std::vector<VertexId> arena = {99, 98, 97};  // Stale from a prior query.
  ResultSink sink = ResultSink::Enum(&arena);
  EXPECT_TRUE(arena.empty());
  EXPECT_TRUE(sink.Add(5));
  EXPECT_TRUE(sink.Add(1));
  EXPECT_TRUE(sink.Add(3));
  EXPECT_FALSE(sink.done());
  sink.Finalize();
  EXPECT_EQ(arena, (std::vector<VertexId>{1, 3, 5}));
  EXPECT_EQ(sink.count(), 3u);
  EXPECT_EQ(sink.vertices().size(), 3u);
}

/// Adds `ids` to a fresh enum sink and returns its finalized arena.
std::vector<VertexId> Finalized(const std::vector<VertexId>& ids) {
  std::vector<VertexId> arena;
  ResultSink sink = ResultSink::Enum(&arena);
  for (const VertexId v : ids) sink.Add(v);
  sink.Finalize();
  return arena;
}

std::vector<VertexId> Sorted(std::vector<VertexId> ids) {
  std::sort(ids.begin(), ids.end());
  return ids;
}

/// `n` distinct ids drawn from [0, n * spread), in random order: spread 1
/// is dense (every id of 0..n-1), 2 half-dense (bitmap path from 64 ids
/// on), 1000 sparse (sort path).
std::vector<VertexId> DistinctIds(size_t n, uint64_t spread, uint64_t seed) {
  Rng rng(seed);
  std::vector<VertexId> ids;
  if (spread == 1) {
    ids.resize(n);
    std::iota(ids.begin(), ids.end(), VertexId{0});
    for (size_t i = n; i > 1; --i) {  // Fisher-Yates.
      std::swap(ids[i - 1], ids[rng.NextBounded(i)]);
    }
    return ids;
  }
  std::unordered_set<VertexId> drawn;
  while (ids.size() < n) {
    const auto v = static_cast<VertexId>(rng.NextBounded(n * spread));
    if (drawn.insert(v).second) ids.push_back(v);
  }
  return ids;
}

TEST(ResultSinkTest, FinalizeMatchesSortOnRandomDraws) {
  for (const size_t n : {0, 1, 63, 64, 65, 1000, 50000}) {
    for (const uint64_t spread : {1, 2, 1000}) {
      for (uint64_t seed = 1; seed <= 3; ++seed) {
        const std::vector<VertexId> ids = DistinctIds(n, spread, seed);
        EXPECT_EQ(Finalized(ids), Sorted(ids))
            << "n=" << n << " spread=" << spread << " seed=" << seed;
      }
    }
  }
}

TEST(ResultSinkTest, FinalizeKeepsIdsAtWordBoundaries) {
  std::vector<VertexId> ids = {128, 64, 127, 63};
  for (VertexId v = 0; v < 60; ++v) ids.push_back(v);  // 64 ids: bitmap.
  EXPECT_EQ(Finalized(ids), Sorted(ids));
}

TEST(ResultSinkTest, FinalizeSortsWhenMaxIdWouldSizeAHugeBitmap) {
  // 1001 ids up to the largest VertexId: a bitmap would need 2^26 words,
  // far over 4 per id, so this must take the sort path.
  std::vector<VertexId> ids = DistinctIds(1000, 1, 7);
  ids.push_back(std::numeric_limits<VertexId>::max());
  EXPECT_EQ(Finalized(ids), Sorted(ids));
}

TEST(ResultSinkTest, FinalizeLeavesNoStaleBitsForTheNextCall) {
  const std::vector<VertexId> dense = DistinctIds(5000, 1, 11);
  EXPECT_EQ(Finalized(dense), Sorted(dense));
  const std::vector<VertexId> smaller = DistinctIds(200, 1, 12);
  EXPECT_EQ(Finalized(smaller), Sorted(smaller));
  const std::vector<VertexId> sparser = DistinctIds(300, 2, 13);
  EXPECT_EQ(Finalized(sparser), Sorted(sparser));
}

TEST(ResultSinkTest, FinalizeOnFourThreadsMatchesSort) {
  constexpr int kThreads = 4;
  std::vector<int> mismatches(kThreads, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t, &mismatches] {
      for (uint64_t round = 0; round < 20; ++round) {
        const std::vector<VertexId> ids =
            DistinctIds(500 + 100 * round, 1 + round % 2, 100 * t + round);
        if (Finalized(ids) != Sorted(ids)) ++mismatches[t];
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(mismatches, std::vector<int>(kThreads, 0));
}

TEST(ResultSinkDeathTest, FinalizeAbortsOnDuplicateId) {
  std::vector<VertexId> ids = DistinctIds(100, 1, 5);
  ids.push_back(50);  // Breaks the exactly-once producer contract.
  EXPECT_DEATH(Finalized(ids), "GSR_CHECK failed");
}

TEST(SeenMarksTest, DedupsWithinPassAndResetsAcrossPasses) {
  SeenMarks marks;
  marks.BeginPass(8);
  EXPECT_TRUE(marks.TestAndSet(3));
  EXPECT_FALSE(marks.TestAndSet(3));
  EXPECT_TRUE(marks.TestAndSet(7));
  marks.BeginPass(8);  // O(1) reset: everything unseen again.
  EXPECT_TRUE(marks.TestAndSet(3));
  EXPECT_TRUE(marks.TestAndSet(7));
}

TEST(GroupSeenMarksTest, SlotsAreIndependent) {
  GroupSeenMarks marks;
  marks.BeginPass(4);
  EXPECT_TRUE(marks.TestAndSet(2, 0));
  EXPECT_TRUE(marks.TestAndSet(2, 1));   // Other slot, same key: fresh.
  EXPECT_FALSE(marks.TestAndSet(2, 0));  // Same slot: dedup.
  EXPECT_TRUE(marks.TestAndSet(2, 63));  // Highest slot works.
  marks.BeginPass(4);
  EXPECT_TRUE(marks.TestAndSet(2, 0));
}

// ---------------------------------------------------------------------
// Count/enum/any on the paper's running example (known ground truth:
// from vertex a, the venues inside R are exactly {e, h}).

TEST(ScenarioQueriesTest, FigureOneCountAndEnum) {
  const GeoSocialNetwork network = testing::FigureOneNetwork();
  const CondensedNetwork cn(&network);
  const Rect region = testing::FigureOneRegion();

  for (const MethodConfig& config : AllConfigs()) {
    const auto method = CreateMethod(&cn, config);
    EXPECT_EQ(method->EvaluateCount(testing::kA, region), 2u)
        << method->name();
    EXPECT_EQ(method->EvaluateEnum(testing::kA, region),
              (std::vector<VertexId>{testing::kE, testing::kH}))
        << method->name();
    // c reaches i (outside R) and no venue inside R.
    EXPECT_EQ(method->EvaluateCount(testing::kC, region), 0u)
        << method->name();
    EXPECT_TRUE(method->EvaluateEnum(testing::kC, region).empty())
        << method->name();
    // A spatial vertex reaches itself: e inside R.
    EXPECT_EQ(method->EvaluateEnum(testing::kE, region),
              (std::vector<VertexId>{testing::kE}))
        << method->name();
  }
}

TEST(ScenarioQueriesTest, FigureOneAnyReach) {
  const GeoSocialNetwork network = testing::FigureOneNetwork();
  const CondensedNetwork cn(&network);
  const Rect region = testing::FigureOneRegion();

  for (const MethodConfig& config : AllConfigs()) {
    const auto method = CreateMethod(&cn, config);
    // c alone: false. {c, b}: b reaches e in R.
    EXPECT_FALSE(method->EvaluateAnyQuery({{testing::kC}, region}))
        << method->name();
    EXPECT_TRUE(
        method->EvaluateAnyQuery({{testing::kC, testing::kB}, region}))
        << method->name();
    // Empty sources answer false by contract.
    EXPECT_FALSE(method->EvaluateAnyQuery({{}, region})) << method->name();
    // Duplicate sources change nothing.
    EXPECT_TRUE(method->EvaluateAnyQuery(
        {{testing::kB, testing::kB, testing::kB}, region}))
        << method->name();
    EXPECT_FALSE(method->EvaluateAnyQuery(
        {{testing::kC, testing::kC, testing::kC}, region}))
        << method->name();
  }
}

// ---------------------------------------------------------------------
// Degenerate regions: the default-constructed (inverted) rectangle, a
// zero-area rect exactly on a venue, and a far-away region must answer
// consistently for every method, kind, and SCC mode.

TEST(ScenarioQueriesTest, DegenerateRegionsAcrossAllConfigs) {
  const GeoSocialNetwork network =
      testing::RandomGeoSocialNetwork(200, 2.5, 0.5, 17);
  const CondensedNetwork cn(&network);
  ASSERT_FALSE(network.spatial_vertices().empty());

  // A venue some vertex reaches (the venue itself reaches it).
  const VertexId venue = network.spatial_vertices().front();
  const Point2D p = network.PointOf(venue);
  const Rect point_region(p.x, p.y, p.x, p.y);
  const Rect empty_region;                              // Inverted: nothing.
  const Rect far_region(1e6, 1e6, 1e6 + 1, 1e6 + 1);    // No venue there.

  for (const MethodConfig& config : AllConfigs()) {
    const auto method = CreateMethod(&cn, config);
    for (VertexId v = 0; v < network.num_vertices(); v += 37) {
      EXPECT_FALSE(method->Evaluate(v, empty_region)) << method->name();
      EXPECT_EQ(method->EvaluateCount(v, empty_region), 0u)
          << method->name();
      EXPECT_TRUE(method->EvaluateEnum(v, empty_region).empty())
          << method->name();
      EXPECT_EQ(method->EvaluateCount(v, far_region), 0u) << method->name();
    }
    // The zero-area region contains every venue co-located with `venue`
    // (itself at minimum); the venue trivially reaches itself.
    EXPECT_TRUE(method->Evaluate(venue, point_region)) << method->name();
    EXPECT_GE(method->EvaluateCount(venue, point_region), 1u)
        << method->name();
    const std::vector<VertexId> enumerated =
        method->EvaluateEnum(venue, point_region);
    EXPECT_TRUE(std::find(enumerated.begin(), enumerated.end(), venue) !=
                enumerated.end())
        << method->name();
    // AnyReach over degenerate regions.
    const std::vector<VertexId> sources = {0, venue};
    EXPECT_FALSE(method->EvaluateAny(sources, empty_region))
        << method->name();
    EXPECT_TRUE(method->EvaluateAny(sources, point_region))
        << method->name();
  }
}

TEST(ScenarioQueriesTest, CollectIntoDefaultThrowsForMinimalMethods) {
  // A method that only implements the boolean contract must refuse
  // count/enum queries loudly instead of answering wrong.
  class BoolOnlyMethod : public RangeReachMethod {
   public:
    using RangeReachMethod::Evaluate;
    using RangeReachMethod::EvaluateAny;
    bool Evaluate(VertexId, const Rect&, QueryScratch&) const override {
      return false;
    }
    std::string name() const override { return "BoolOnly"; }
    size_t IndexSizeBytes() const override { return 0; }
  };
  const BoolOnlyMethod method;
  EXPECT_THROW((void)method.EvaluateCount(0, Rect(0, 0, 1, 1)),
               std::logic_error);
  // The boolean surface still works, including AnyReach's default loop.
  EXPECT_FALSE(method.Evaluate(0, Rect(0, 0, 1, 1)));
  const std::vector<VertexId> sources = {0, 1};
  EXPECT_FALSE(method.EvaluateAny(sources, Rect(0, 0, 1, 1)));
}

// ---------------------------------------------------------------------
// Exec-layer plumbing: BatchRunner and the scheduler must deliver the
// same counts/enums the serial convenience API computes.

std::vector<RangeReachQuery> MixedWorkload(const GeoSocialNetwork& network,
                                           uint32_t count, uint64_t seed) {
  WorkloadGenerator workload(&network, seed);
  QuerySpec spec;
  spec.count = count;
  spec.min_out_degree = 0;
  spec.max_out_degree = 1u << 30;
  spec.regions_per_vertex = 3;  // Duplicates, so grouping has work.
  spec.vertex_zipf = 1.0;
  return workload.Generate(spec);
}

TEST(ScenarioQueriesTest, BatchRunnerKindsMatchSerial) {
  const GeoSocialNetwork network =
      testing::RandomGeoSocialNetwork(220, 2.5, 0.4, 29);
  const CondensedNetwork cn(&network);
  const std::vector<RangeReachQuery> queries = MixedWorkload(network, 150, 7);

  exec::ThreadPool pool(4);
  exec::BatchRunner runner(&pool);

  for (const MethodKind kind :
       {MethodKind::kNaiveBfs, MethodKind::kSocReach, MethodKind::kSpaReachBfl,
        MethodKind::kSpaReachInt, MethodKind::kGeoReach,
        MethodKind::kThreeDReach, MethodKind::kThreeDReachRev}) {
    MethodConfig config;
    config.kind = kind;
    const auto method = CreateMethod(&cn, config);

    std::vector<uint64_t> serial_counts;
    std::vector<std::vector<VertexId>> serial_enums;
    for (const RangeReachQuery& query : queries) {
      serial_counts.push_back(method->EvaluateCount(query.vertex, query.region));
      serial_enums.push_back(method->EvaluateEnum(query.vertex, query.region));
    }

    exec::BatchOptions count_options;
    count_options.kind = QueryKind::kCount;
    const exec::BatchResult counted = runner.Run(*method, queries,
                                                 count_options);
    EXPECT_EQ(counted.counts, serial_counts) << method->name();
    EXPECT_TRUE(counted.enums.empty()) << method->name();

    exec::BatchOptions enum_options;
    enum_options.kind = QueryKind::kEnum;
    const exec::BatchResult enumerated = runner.Run(*method, queries,
                                                    enum_options);
    EXPECT_EQ(enumerated.enums, serial_enums) << method->name();
    EXPECT_EQ(enumerated.counts, serial_counts) << method->name();
    for (size_t i = 0; i < queries.size(); ++i) {
      EXPECT_EQ(enumerated.answers[i], serial_counts[i] > 0 ? 1 : 0)
          << method->name();
    }
  }
}

TEST(ScenarioQueriesTest, SchedulerKindsMatchSerialGroupedAndBypass) {
  const GeoSocialNetwork network =
      testing::RandomGeoSocialNetwork(220, 2.5, 0.4, 43);
  const CondensedNetwork cn(&network);
  const std::vector<RangeReachQuery> queries = MixedWorkload(network, 180, 13);

  exec::ThreadPool pool(4);
  exec::BatchRunner runner(&pool);

  for (const MethodKind kind :
       {MethodKind::kSocReach, MethodKind::kSpaReachInt,
        MethodKind::kThreeDReach, MethodKind::kThreeDReachRev}) {
    MethodConfig config;
    config.kind = kind;
    const auto method = CreateMethod(&cn, config);

    exec::BatchOptions batch;
    batch.kind = QueryKind::kEnum;
    const exec::BatchResult reference = runner.Run(*method, queries, batch);

    for (const size_t min_window : {size_t{1}, size_t{100000}}) {
      exec::SchedulerOptions options;
      options.kind = QueryKind::kEnum;
      options.min_window_to_group = min_window;  // Grouped vs bypass path.
      const exec::BatchResult shared =
          runner.RunShared(*method, queries, options);
      EXPECT_EQ(shared.enums, reference.enums)
          << method->name() << " min_window=" << min_window;
      EXPECT_EQ(shared.counts, reference.counts)
          << method->name() << " min_window=" << min_window;
      EXPECT_EQ(shared.answers, reference.answers)
          << method->name() << " min_window=" << min_window;

      options.kind = QueryKind::kCount;
      const exec::BatchResult counted =
          runner.RunShared(*method, queries, options);
      EXPECT_EQ(counted.counts, reference.counts)
          << method->name() << " min_window=" << min_window;
      EXPECT_TRUE(counted.enums.empty()) << method->name();
    }
  }
}

TEST(ScenarioQueriesTest, RunAnyMatchesSerialOracle) {
  const GeoSocialNetwork network =
      testing::RandomGeoSocialNetwork(220, 2.5, 0.4, 59);
  const CondensedNetwork cn(&network);

  WorkloadGenerator workload(&network, 31);
  QuerySpec spec;
  spec.count = 120;
  spec.min_out_degree = 0;
  spec.max_out_degree = 1u << 30;
  spec.kind = WorkloadKind::kAnyOfK;
  spec.any_k = 5;
  const std::vector<AnyReachQuery> queries = workload.GenerateAnyReach(spec);

  const NaiveBfsMethod oracle(&network);
  std::vector<uint8_t> expected;
  for (const AnyReachQuery& query : queries) {
    expected.push_back(oracle.EvaluateAnyQuery(query) ? 1 : 0);
  }

  exec::ThreadPool pool(4);
  exec::BatchRunner runner(&pool);
  for (const MethodConfig& config : AllConfigs()) {
    const auto method = CreateMethod(&cn, config);
    const exec::BatchResult result = runner.RunAny(*method, queries);
    EXPECT_EQ(result.answers, expected) << method->name();
  }
}

// ---------------------------------------------------------------------
// Workload generation for the new kinds.

TEST(ScenarioQueriesTest, WorkloadKindNamesRoundTrip) {
  for (const WorkloadKind kind :
       {WorkloadKind::kBool, WorkloadKind::kCount, WorkloadKind::kEnum,
        WorkloadKind::kAnyOfK}) {
    WorkloadKind parsed = WorkloadKind::kBool;
    ASSERT_TRUE(ParseWorkloadKind(WorkloadKindName(kind), &parsed));
    EXPECT_EQ(parsed, kind);
  }
  WorkloadKind parsed = WorkloadKind::kBool;
  EXPECT_FALSE(ParseWorkloadKind("nope", &parsed));
}

TEST(ScenarioQueriesTest, GenerateAnyReachIsDeterministicAndShaped) {
  const GeoSocialNetwork network =
      testing::RandomGeoSocialNetwork(300, 2.5, 0.5, 71);

  QuerySpec spec;
  spec.count = 50;
  spec.min_out_degree = 0;
  spec.max_out_degree = 1u << 30;
  spec.kind = WorkloadKind::kAnyOfK;
  spec.any_k = 4;

  WorkloadGenerator a(&network, 77);
  WorkloadGenerator b(&network, 77);
  const std::vector<AnyReachQuery> qa = a.GenerateAnyReach(spec);
  const std::vector<AnyReachQuery> qb = b.GenerateAnyReach(spec);
  ASSERT_EQ(qa.size(), spec.count);
  for (size_t i = 0; i < qa.size(); ++i) {
    EXPECT_EQ(qa[i].sources, qb[i].sources);
    EXPECT_EQ(qa[i].region.min_x, qb[i].region.min_x);
    EXPECT_EQ(qa[i].region.max_y, qb[i].region.max_y);
    EXPECT_EQ(qa[i].sources.size(), spec.any_k);
    // The bucket is far larger than k, so sources should be distinct.
    std::vector<VertexId> sorted = qa[i].sources;
    std::sort(sorted.begin(), sorted.end());
    EXPECT_TRUE(std::adjacent_find(sorted.begin(), sorted.end()) ==
                sorted.end());
  }
}

}  // namespace
}  // namespace gsr
