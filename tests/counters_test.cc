#include <gtest/gtest.h>

#include "core/geo_reach.h"
#include "core/method_factory.h"
#include "core/soc_reach.h"
#include "core/spa_reach.h"
#include "core/three_d_reach.h"
#include "exec/batch_runner.h"
#include "exec/thread_pool.h"
#include "tests/test_util.h"

namespace gsr {
namespace {

/// The per-method cost counters back the analysis bench; their semantics
/// are pinned down here on hand-built networks.

GeoSocialNetwork StarNetwork(uint32_t venues) {
  // Vertex 0 checks into `venues` venues spread over [0, venues) x {0}.
  GraphBuilder builder;
  builder.ReserveVertices(venues + 1);
  std::vector<std::optional<Point2D>> points(venues + 1);
  for (uint32_t i = 0; i < venues; ++i) {
    builder.AddEdge(0, i + 1);
    points[i + 1] = Point2D{static_cast<double>(i), 0.0};
  }
  auto graph = builder.Build();
  GSR_CHECK(graph.ok());
  auto network = GeoSocialNetwork::Create(std::move(graph).value(), points);
  GSR_CHECK(network.ok());
  return std::move(network).value();
}

TEST(CountersTest, SpaReachCandidatesEqualRangeResult) {
  const GeoSocialNetwork network = StarNetwork(20);
  const CondensedNetwork cn(&network);
  const SpaReachBfl method(&cn);
  method.ResetCounters();

  // Region covering venues 0..9 (x in [0, 9]): 10 candidates. The query
  // vertex reaches the very first candidate, so at least 1 and at most 10
  // GReach calls are issued.
  EXPECT_TRUE(method.Evaluate(0, Rect(-0.5, -1, 9.5, 1)));
  EXPECT_EQ(method.counters().queries, 1u);
  EXPECT_EQ(method.counters().candidates, 10u);
  EXPECT_GE(method.counters().greach_calls, 1u);
  EXPECT_LE(method.counters().greach_calls, 10u);

  // A negative query from a venue probes every candidate.
  method.ResetCounters();
  EXPECT_FALSE(method.Evaluate(1, Rect(4.5, -1, 9.5, 1)));
  EXPECT_EQ(method.counters().candidates, 5u);
  EXPECT_EQ(method.counters().greach_calls, 5u);
}

TEST(CountersTest, SocReachMaterializesAllDescendants) {
  const GeoSocialNetwork network = StarNetwork(15);
  const CondensedNetwork cn(&network);
  const SocReach method(&cn);
  method.ResetCounters();
  // Vertex 0 has 16 descendants (itself + 15 venues); a query with an
  // empty-region answer still materializes all of them.
  EXPECT_FALSE(method.Evaluate(0, Rect(100, 100, 101, 101)));
  EXPECT_EQ(method.counters().descendants, 16u);
  EXPECT_EQ(method.counters().containment_tests, 16u);

  // A positive query stops testing early but materializes D(v) anyway.
  method.ResetCounters();
  EXPECT_TRUE(method.Evaluate(0, Rect(-1, -1, 20, 1)));
  EXPECT_EQ(method.counters().descendants, 16u);
  EXPECT_LE(method.counters().containment_tests, 16u);
}

TEST(CountersTest, ThreeDReachIssuesOneQueryPerLabel) {
  const GeoSocialNetwork network = StarNetwork(10);
  const CondensedNetwork cn(&network);
  const ThreeDReach method(&cn);
  method.ResetCounters();
  const ComponentId source = cn.ComponentOf(0);
  const size_t labels = method.interval_labeling()->Labels(source).size();
  // Negative answer: every label's cuboid is issued.
  EXPECT_FALSE(method.Evaluate(0, Rect(100, 100, 101, 101)));
  EXPECT_EQ(method.counters().range_queries, labels);
  // Positive answer: stops at the first matching cuboid.
  method.ResetCounters();
  EXPECT_TRUE(method.Evaluate(0, Rect(-1, -1, 20, 1)));
  EXPECT_GE(method.counters().range_queries, 1u);
  EXPECT_LE(method.counters().range_queries, labels);
}

TEST(CountersTest, GeoReachVisitCounts) {
  const GeoSocialNetwork network = StarNetwork(12);
  const CondensedNetwork cn(&network);
  const GeoReachMethod method(&cn);
  method.ResetCounters();
  // Negative query from vertex 0: unless pruned at the source, the BFS
  // walks the star. Either way at least the source is visited.
  method.Evaluate(0, Rect(100, 100, 101, 101));
  EXPECT_EQ(method.counters().queries, 1u);
  EXPECT_GE(method.counters().vertices_visited, 1u);
  EXPECT_LE(method.counters().pruned, method.counters().vertices_visited);
}

TEST(CountersTest, CountersAccumulateAcrossQueries) {
  const GeoSocialNetwork network =
      testing::RandomGeoSocialNetwork(100, 2.0, 0.5, 21);
  const CondensedNetwork cn(&network);
  const SpaReachBfl spa(&cn);
  const SocReach soc(&cn);
  const ThreeDReach threed(&cn);
  const GeoReachMethod geo(&cn);
  Rng rng(22);
  for (int q = 0; q < 25; ++q) {
    const VertexId v = static_cast<VertexId>(rng.NextBounded(100));
    const Rect region(10, 10, 60, 60);
    spa.Evaluate(v, region);
    soc.Evaluate(v, region);
    threed.Evaluate(v, region);
    geo.Evaluate(v, region);
  }
  EXPECT_EQ(spa.counters().queries, 25u);
  EXPECT_EQ(soc.counters().queries, 25u);
  EXPECT_EQ(threed.counters().queries, 25u);
  EXPECT_EQ(geo.counters().queries, 25u);
  spa.ResetCounters();
  EXPECT_EQ(spa.counters().queries, 0u);
}

TEST(CountersTest, DrainIsExactlyOnceForEveryMethodKind) {
  // Every kind answers the same queries on its default scratch, then
  // (after a reset) on a worker scratch. Draining the worker scratch
  // reproduces the serial counters exactly; draining it again, or
  // draining the default scratch into itself, changes nothing.
  const GeoSocialNetwork network =
      testing::RandomGeoSocialNetwork(120, 2.5, 0.4, 23);
  const CondensedNetwork cn(&network);
  std::vector<RangeReachQuery> queries;
  Rng rng(24);
  for (int q = 0; q < 40; ++q) {
    const double x = rng.NextDoubleInRange(-20, 100);
    const double y = rng.NextDoubleInRange(-20, 100);
    queries.push_back(
        {static_cast<VertexId>(rng.NextBounded(network.num_vertices())),
         Rect(x, y, x + 20, y + 20)});
  }
  for (size_t k = 0; k < kMethodKindCount; ++k) {
    MethodConfig config;
    config.kind = static_cast<MethodKind>(k);
    const auto method = CreateMethod(&cn, config);
    SCOPED_TRACE(method->name());
    method->ResetCounters();
    for (const RangeReachQuery& query : queries) {
      (void)method->EvaluateQuery(query);
    }
    const RangeReachMethod::Counters serial = method->counters();
    if (config.kind != MethodKind::kNaiveBfs) {
      EXPECT_EQ(serial.queries, queries.size());
    }

    method->ResetCounters();
    const auto scratch = method->NewScratch();
    for (const RangeReachQuery& query : queries) {
      (void)method->EvaluateQuery(query, *scratch);
    }
    EXPECT_EQ(method->counters(), RangeReachMethod::Counters{});
    method->DrainScratchCounters(*scratch);
    EXPECT_EQ(method->counters(), serial);
    method->DrainScratchCounters(*scratch);
    EXPECT_EQ(method->counters(), serial);
    method->DrainScratchCounters(method->DefaultScratch());
    EXPECT_EQ(method->counters(), serial);
  }
}

TEST(CountersTest, ThreeDReachRevGroupedQueriesCountUnderRunShared) {
  // One vertex, 20 distinct regions: a single scheduler group, large
  // enough for 3DReach-REV's masked plane descent (boolean) and its
  // masked enumeration (count). Each path must count every query once.
  const GeoSocialNetwork network = StarNetwork(30);
  const CondensedNetwork cn(&network);
  const ThreeDReachRev method(
      &cn, ThreeDReachRev::Options{.scc_mode = SccSpatialMode::kReplicate});
  std::vector<RangeReachQuery> queries;
  for (int i = 0; i < 20; ++i) {
    const double x = static_cast<double>(i);
    queries.push_back({0, Rect(x - 0.5, -1, x + 2.5, 1)});
  }
  exec::ThreadPool pool(2);
  exec::BatchRunner runner(&pool);
  for (const QueryKind kind : {QueryKind::kBool, QueryKind::kCount}) {
    exec::SchedulerOptions options;
    options.min_window_to_group = 1;
    options.kind = kind;
    method.ResetCounters();
    const exec::BatchResult result = runner.RunShared(method, queries, options);
    EXPECT_EQ(result.true_count, queries.size());
    EXPECT_EQ(method.counters().queries, queries.size());
  }
}

TEST(CountersTest, AnyReachCountsOneQueryPerCall) {
  // Every AnyReach override counts one query per call, however many
  // sources it probes: 3DReach-REV's replicate plane path like the rest.
  const GeoSocialNetwork network =
      testing::RandomGeoSocialNetwork(150, 2.5, 0.4, 25);
  const CondensedNetwork cn(&network);
  std::vector<AnyReachQuery> queries;
  Rng rng(26);
  for (int q = 0; q < 30; ++q) {
    AnyReachQuery query;
    for (int k = 0; k < 3; ++k) {
      query.sources.push_back(
          static_cast<VertexId>(rng.NextBounded(network.num_vertices())));
    }
    const double x = rng.NextDoubleInRange(-20, 100);
    const double y = rng.NextDoubleInRange(-20, 100);
    query.region = Rect(x, y, x + 25, y + 25);
    queries.push_back(std::move(query));
  }
  exec::ThreadPool pool(2);
  exec::BatchRunner runner(&pool);
  for (const MethodKind kind :
       {MethodKind::kThreeDReach, MethodKind::kThreeDReachRev,
        MethodKind::kSpaReachBfl, MethodKind::kGeoReach}) {
    MethodConfig config;
    config.kind = kind;
    config.scc_mode = SccSpatialMode::kReplicate;
    const auto method = CreateMethod(&cn, config);
    SCOPED_TRACE(method->name());
    method->ResetCounters();
    runner.RunAny(*method, queries);
    EXPECT_EQ(method->counters().queries, queries.size());
  }
}

}  // namespace
}  // namespace gsr
