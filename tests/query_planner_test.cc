#include "core/query_planner.h"

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/condensed_network.h"
#include "core/method_factory.h"
#include "core/method_snapshot.h"
#include "core/naive_bfs.h"
#include "exec/batch_runner.h"
#include "exec/thread_pool.h"
#include "tests/test_util.h"

namespace gsr {
namespace {

std::string TempPath(const std::string& name) {
  std::string dir = ::testing::TempDir();
  if (!dir.empty() && dir.back() != '/') dir += '/';
  return dir + name;
}

MethodConfig PlannerConfig() {
  MethodConfig config;
  config.kind = MethodKind::kPlanner;
  return config;
}

const PlannedMethod& AsPlanner(const RangeReachMethod& method) {
  return static_cast<const PlannedMethod&>(method);
}

TEST(QueryPlannerTest, MatchesOracleOnAllQueryKinds) {
  // The planner's core contract: bit-identical answers to the NaiveBFS
  // oracle for every query kind, whatever stage 1 settles or stage 2
  // routes.
  for (const uint64_t seed : {41u, 42u}) {
    const GeoSocialNetwork network =
        testing::RandomGeoSocialNetwork(200, 2.5, 0.4, seed);
    const CondensedNetwork cn(&network);
    const NaiveBfsMethod oracle(&network);
    const auto planner = CreateMethod(&cn, PlannerConfig());

    Rng rng(seed * 7);
    for (int q = 0; q < 150; ++q) {
      const VertexId v =
          static_cast<VertexId>(rng.NextBounded(network.num_vertices()));
      const double x = rng.NextDoubleInRange(-10, 100);
      const double y = rng.NextDoubleInRange(-10, 100);
      const Rect region(x, y, x + rng.NextDoubleInRange(0, 80),
                        y + rng.NextDoubleInRange(0, 80));
      ASSERT_EQ(planner->Evaluate(v, region), oracle.Evaluate(v, region))
          << "bool diverges on vertex " << v << " region "
          << region.ToString();
      ASSERT_EQ(planner->EvaluateCount(v, region),
                oracle.EvaluateCount(v, region));
      ASSERT_EQ(planner->EvaluateEnum(v, region),
                oracle.EvaluateEnum(v, region));
      const std::vector<VertexId> sources = {
          v, static_cast<VertexId>(rng.NextBounded(network.num_vertices())),
          static_cast<VertexId>(rng.NextBounded(network.num_vertices()))};
      ASSERT_EQ(planner->EvaluateAny(sources, region),
                oracle.EvaluateAny(sources, region));
    }
  }
}

TEST(QueryPlannerTest, GroupedExecutionMatchesSerial) {
  const GeoSocialNetwork network =
      testing::RandomGeoSocialNetwork(150, 2.5, 0.4, 77);
  const CondensedNetwork cn(&network);
  const auto planner = CreateMethod(&cn, PlannerConfig());

  Rng rng(770);
  const auto scratch = planner->NewScratch();
  for (int group = 0; group < 30; ++group) {
    const VertexId v =
        static_cast<VertexId>(rng.NextBounded(network.num_vertices()));
    std::vector<Rect> regions;
    for (int k = 0; k < 8; ++k) {
      const double x = rng.NextDoubleInRange(-1000, 100);
      const double y = rng.NextDoubleInRange(-1000, 100);
      regions.emplace_back(x, y, x + rng.NextDoubleInRange(0, 60),
                           y + rng.NextDoubleInRange(0, 60));
    }
    std::vector<char> grouped(regions.size());
    {
      // span<bool> needs real bools.
      std::unique_ptr<bool[]> out(new bool[regions.size()]);
      planner->EvaluateGroup(v, regions,
                             std::span<bool>(out.get(), regions.size()),
                             *scratch);
      for (size_t k = 0; k < regions.size(); ++k) grouped[k] = out[k];
    }
    for (size_t k = 0; k < regions.size(); ++k) {
      ASSERT_EQ(static_cast<bool>(grouped[k]),
                planner->Evaluate(v, regions[k], *scratch))
          << "group slot " << k;
    }
  }
}

TEST(QueryPlannerTest, RoutingPicksTheCheapestMember) {
  // With calibration disabled the deterministic default cost models rule:
  // among the three spatial-first interval schemes (same feature — the
  // histogram estimate), SpaReach-INT has the lowest per-unit cost and
  // equal base, so every query must route to it.
  const GeoSocialNetwork network =
      testing::RandomGeoSocialNetwork(150, 2.5, 0.4, 55);
  const CondensedNetwork cn(&network);
  MethodConfig config = PlannerConfig();
  config.planner.portfolio = {MethodKind::kSpaReachBfl,
                              MethodKind::kSpaReachInt,
                              MethodKind::kSpaReachPll};
  config.planner.calibration_samples = 0;
  const auto method = CreateMethod(&cn, config);
  const PlannedMethod& planner = AsPlanner(*method);
  ASSERT_EQ(planner.num_members(), 3u);

  size_t int_index = planner.num_members();
  for (size_t i = 0; i < planner.num_members(); ++i) {
    if (planner.member_kind(i) == MethodKind::kSpaReachInt) int_index = i;
  }
  ASSERT_LT(int_index, planner.num_members());

  // All three members share the feature (the histogram estimate), so the
  // expected route is the plain argmin over the exposed cost models —
  // ties keep the first member, which the router must reproduce exactly.
  auto expected_route = [&](const Rect& region) {
    const double estimate =
        static_cast<double>(planner.histogram().BlockCount(region));
    size_t best = 0;
    double best_cost = 0.0;
    for (size_t i = 0; i < planner.num_members(); ++i) {
      const PlannedMethod::CostModel& model = planner.cost_model(i);
      const double cost = model.base_ns + model.per_unit_ns * estimate;
      if (i == 0 || cost < best_cost) {
        best = i;
        best_cost = cost;
      }
    }
    return best;
  };

  Rng rng(550);
  int routed_to_int = 0;
  for (int q = 0; q < 50; ++q) {
    const VertexId v =
        static_cast<VertexId>(rng.NextBounded(network.num_vertices()));
    const double x = rng.NextDoubleInRange(0, 100);
    const double y = rng.NextDoubleInRange(0, 100);
    const Rect region(x, y, x + rng.NextDoubleInRange(0, 50),
                      y + rng.NextDoubleInRange(0, 50));
    const size_t route = planner.RouteForTest(v, region);
    EXPECT_EQ(route, expected_route(region));
    if (route == int_index) ++routed_to_int;
  }
  // On any non-empty region INT's lower per-unit cost wins, so most of
  // the 50 draws must route there (only empty-estimate ties fall back to
  // the portfolio's first member).
  EXPECT_GT(routed_to_int, 25);
}

TEST(QueryPlannerTest, CalibrationProducesFiniteCostModels) {
  const GeoSocialNetwork network =
      testing::RandomGeoSocialNetwork(200, 2.5, 0.4, 66);
  const CondensedNetwork cn(&network);
  MethodConfig config = PlannerConfig();
  config.planner.calibration_samples = 16;
  const auto method = CreateMethod(&cn, config);
  const PlannedMethod& planner = AsPlanner(*method);
  for (size_t i = 0; i < planner.num_members(); ++i) {
    const PlannedMethod::CostModel& model = planner.cost_model(i);
    EXPECT_GE(model.base_ns, 1.0) << planner.member(i).name();
    EXPECT_GE(model.per_unit_ns, 0.0) << planner.member(i).name();
    EXPECT_TRUE(std::isfinite(model.base_ns));
    EXPECT_TRUE(std::isfinite(model.per_unit_ns));
  }
  // Calibration only changes costs, never answers.
  const NaiveBfsMethod oracle(&network);
  Rng rng(660);
  for (int q = 0; q < 80; ++q) {
    const VertexId v =
        static_cast<VertexId>(rng.NextBounded(network.num_vertices()));
    const double x = rng.NextDoubleInRange(0, 100);
    const double y = rng.NextDoubleInRange(0, 100);
    const Rect region(x, y, x + rng.NextDoubleInRange(0, 40),
                      y + rng.NextDoubleInRange(0, 40));
    ASSERT_EQ(method->Evaluate(v, region), oracle.Evaluate(v, region));
  }
}

TEST(QueryPlannerTest, StageOneSettlesAndCountsOnFigureOne) {
  // Deterministic settle accounting on the paper's running example:
  // a reaches the venues e, f, h, i; k reaches no venue at all.
  const GeoSocialNetwork network = testing::FigureOneNetwork();
  const CondensedNetwork cn(&network);
  const auto method = CreateMethod(&cn, PlannerConfig());
  const PlannedMethod& planner = AsPlanner(*method);
  planner.ResetCounters();

  const Rect everywhere(-1000, -1000, 1000, 1000);
  const Rect far_away(5000, 5000, 6000, 6000);

  // Witness point inside the region: settled TRUE, no routing.
  EXPECT_TRUE(method->Evaluate(testing::kA, everywhere));
  EXPECT_EQ(planner.counters().settled_positive, 1u);

  // Histogram proves the far region empty: settled FALSE.
  EXPECT_FALSE(method->Evaluate(testing::kA, far_away));
  EXPECT_EQ(planner.counters().settled_negative, 1u);

  // k reaches no spatial vertex: settled FALSE for any region.
  EXPECT_FALSE(method->Evaluate(testing::kK, everywhere));
  EXPECT_EQ(planner.counters().settled_negative, 2u);

  // Count queries must enumerate even with a witness inside: the region
  // of Figure 1 holds e and h, and the count must come from a routed
  // member, not the witness settle.
  const uint64_t routed_before = [&] {
    uint64_t total = 0;
    for (const uint64_t r : planner.counters().routed) total += r;
    return total;
  }();
  EXPECT_EQ(method->EvaluateCount(testing::kA, testing::FigureOneRegion()),
            2u);
  EXPECT_EQ(planner.counters().settled_positive, 1u);  // Unchanged.
  uint64_t routed_after = 0;
  for (const uint64_t r : planner.counters().routed) routed_after += r;
  EXPECT_EQ(routed_after, routed_before + 1);

  EXPECT_EQ(planner.counters().queries, 4u);
}

TEST(QueryPlannerTest, ScratchCountersDrainIntoAggregate) {
  const GeoSocialNetwork network =
      testing::RandomGeoSocialNetwork(120, 2.5, 0.4, 88);
  const CondensedNetwork cn(&network);
  const auto method = CreateMethod(&cn, PlannerConfig());
  const PlannedMethod& planner = AsPlanner(*method);
  planner.ResetCounters();

  const auto scratch = method->NewScratch();
  Rng rng(880);
  const int kQueries = 60;
  for (int q = 0; q < kQueries; ++q) {
    const VertexId v =
        static_cast<VertexId>(rng.NextBounded(network.num_vertices()));
    const double x = rng.NextDoubleInRange(-200, 100);
    const double y = rng.NextDoubleInRange(-200, 100);
    method->Evaluate(v, Rect(x, y, x + 30, y + 30), *scratch);
  }
  // Worker-scratch counters are invisible until drained.
  EXPECT_EQ(planner.counters().queries, 0u);
  method->DrainScratchCounters(*scratch);
  const PlannedMethod::Counters& counters = planner.counters();
  EXPECT_EQ(counters.queries, static_cast<uint64_t>(kQueries));
  uint64_t routed = 0;
  for (const uint64_t r : counters.routed) routed += r;
  // Every query is either settled by stage 1 or routed by stage 2.
  EXPECT_EQ(counters.settled_negative + counters.settled_positive + routed,
            counters.queries);
  // Draining twice must not double count.
  method->DrainScratchCounters(*scratch);
  EXPECT_EQ(planner.counters().queries, static_cast<uint64_t>(kQueries));
}

TEST(QueryPlannerTest, OnlySpatialFirstMembersConsultObservations) {
  // Whole-query settles happen in the planner alone. The one member-side
  // use of its observations is SpaReach's per-candidate filter, so after
  // mixed bool/count batches through Run and RunShared a SpaReach-BFL
  // member has settled candidates, while SocReach and 3DReach members
  // (which answer from their index alone) have settled nothing.
  // Calibration is off: it would run members outside any routed query.
  const GeoSocialNetwork network =
      testing::RandomGeoSocialNetwork(300, 2.5, 0.4, 111);
  const CondensedNetwork cn(&network);
  std::vector<RangeReachQuery> queries;
  Rng rng(1110);
  for (int q = 0; q < 200; ++q) {
    const VertexId v =
        static_cast<VertexId>(rng.NextBounded(network.num_vertices()));
    const double x = rng.NextDoubleInRange(-10, 100);
    const double y = rng.NextDoubleInRange(-10, 100);
    queries.push_back({v, Rect(x, y, x + rng.NextDoubleInRange(0, 40),
                               y + rng.NextDoubleInRange(0, 40))});
  }
  exec::ThreadPool pool(2);
  exec::BatchRunner runner(&pool);
  for (const MethodKind kind : {MethodKind::kSpaReachBfl,
                                MethodKind::kSocReach,
                                MethodKind::kThreeDReach}) {
    MethodConfig config = PlannerConfig();
    config.planner.portfolio = {kind};
    config.planner.calibration_samples = 0;
    const auto method = CreateMethod(&cn, config);
    const PlannedMethod& planner = AsPlanner(*method);
    SCOPED_TRACE(planner.member(0).name());
    for (const QueryKind query_kind : {QueryKind::kBool, QueryKind::kCount}) {
      exec::BatchOptions run_options;
      run_options.kind = query_kind;
      const exec::BatchResult plain = runner.Run(*method, queries, run_options);
      exec::SchedulerOptions shared_options;
      shared_options.kind = query_kind;
      shared_options.min_window_to_group = 1;
      const exec::BatchResult shared =
          runner.RunShared(*method, queries, shared_options);
      EXPECT_EQ(plain.answers, shared.answers);
    }
    const RangeReachMethod::Counters& member = planner.member(0).counters();
    uint64_t routed = 0;
    for (const uint64_t r : planner.counters().routed) routed += r;
    EXPECT_GT(routed, 0u);
    EXPECT_EQ(member.queries, routed);
    if (kind == MethodKind::kSpaReachBfl) {
      EXPECT_GT(member.settled_negative + member.settled_positive, 0u);
    } else {
      EXPECT_EQ(member.settled_negative, 0u);
      EXPECT_EQ(member.settled_positive, 0u);
    }
  }
}

TEST(QueryPlannerTest, SnapshotRoundTripPreservesRoutingAndAnswers) {
  const GeoSocialNetwork network =
      testing::RandomGeoSocialNetwork(200, 2.5, 0.4, 99);
  const CondensedNetwork cn(&network);
  MethodConfig config = PlannerConfig();
  config.planner.calibration_samples = 8;
  const auto built = CreateMethod(&cn, config);
  const PlannedMethod& built_planner = AsPlanner(*built);

  const std::string path = TempPath("planner_roundtrip.snap");
  ASSERT_TRUE(SaveMethodSnapshot(*built, config, cn, path).ok());

  for (const snapshot::LoadMode mode :
       {snapshot::LoadMode::kMmap, snapshot::LoadMode::kPaged}) {
    auto loaded = LoadMethodSnapshot(&cn, path, {.mode = mode});
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    EXPECT_EQ(loaded->config.kind, MethodKind::kPlanner);
    const PlannedMethod& restored = AsPlanner(*loaded->method);

    ASSERT_EQ(restored.num_members(), built_planner.num_members());
    for (size_t i = 0; i < restored.num_members(); ++i) {
      EXPECT_EQ(restored.member_kind(i), built_planner.member_kind(i));
      // Cost models persist, so routing decisions survive the round trip.
      EXPECT_DOUBLE_EQ(restored.cost_model(i).base_ns,
                       built_planner.cost_model(i).base_ns);
      EXPECT_DOUBLE_EQ(restored.cost_model(i).per_unit_ns,
                       built_planner.cost_model(i).per_unit_ns);
    }
    EXPECT_EQ(restored.histogram().total_count(),
              built_planner.histogram().total_count());

    Rng rng(990);
    for (int q = 0; q < 120; ++q) {
      const VertexId v =
          static_cast<VertexId>(rng.NextBounded(network.num_vertices()));
      const double x = rng.NextDoubleInRange(-10, 100);
      const double y = rng.NextDoubleInRange(-10, 100);
      const Rect region(x, y, x + rng.NextDoubleInRange(0, 60),
                        y + rng.NextDoubleInRange(0, 60));
      ASSERT_EQ(restored.RouteForTest(v, region),
                built_planner.RouteForTest(v, region));
      ASSERT_EQ(restored.Evaluate(v, region), built->Evaluate(v, region));
      ASSERT_EQ(restored.EvaluateEnum(v, region),
                built->EvaluateEnum(v, region));
    }
  }
}

TEST(QueryPlannerTest, IndexSizeSumsMembersAndPrechecks) {
  const GeoSocialNetwork network =
      testing::RandomGeoSocialNetwork(150, 2.5, 0.4, 33);
  const CondensedNetwork cn(&network);
  const auto method = CreateMethod(&cn, PlannerConfig());
  const PlannedMethod& planner = AsPlanner(*method);
  size_t member_total = 0;
  for (size_t i = 0; i < planner.num_members(); ++i) {
    member_total += planner.member(i).IndexSizeBytes();
  }
  EXPECT_GE(method->IndexSizeBytes(),
            member_total + planner.histogram().SizeBytes());
}

TEST(QueryPlannerTest, FactoryRejectsRecursivePortfolio) {
  const GeoSocialNetwork network =
      testing::RandomGeoSocialNetwork(50, 2.0, 0.4, 21);
  const CondensedNetwork cn(&network);
  MethodConfig config = PlannerConfig();
  config.planner.portfolio = {MethodKind::kPlanner};
  EXPECT_DEATH(CreateMethod(&cn, config), "");
}

}  // namespace
}  // namespace gsr
