#include "core/three_d_reach.h"

#include <gtest/gtest.h>

#include "core/naive_bfs.h"
#include "core/soc_reach.h"
#include "core/spa_reach.h"
#include "tests/test_util.h"

namespace gsr {
namespace {

TEST(ThreeDReachTest, NamesEncodeVariant) {
  const GeoSocialNetwork network =
      testing::RandomGeoSocialNetwork(50, 2.0, 0.5, 5);
  const CondensedNetwork cn(&network);
  EXPECT_EQ(ThreeDReach(&cn).name(), "3DReach");
  EXPECT_EQ(ThreeDReach(&cn, ThreeDReach::Options{
                                 .scc_mode = SccSpatialMode::kMbr})
                .name(),
            "3DReach (mbr)");
  EXPECT_EQ(ThreeDReachRev(&cn).name(), "3DReach-REV");
  EXPECT_EQ(ThreeDReachRev(&cn, ThreeDReachRev::Options{
                                    .scc_mode = SccSpatialMode::kMbr})
                .name(),
            "3DReach-REV (mbr)");
}

TEST(ThreeDReachTest, OneCuboidPerLabel) {
  // The number of 3-D range queries a 3DReach query issues equals the
  // number of (compressed) labels of the query vertex; with a single tree
  // the root has exactly one label.
  auto graph = DiGraph::FromEdges(3, {{0, 1}, {1, 2}});
  ASSERT_TRUE(graph.ok());
  std::vector<std::optional<Point2D>> points(3);
  points[2] = Point2D{1, 1};
  auto network = GeoSocialNetwork::Create(std::move(graph).value(), points);
  ASSERT_TRUE(network.ok());
  const CondensedNetwork cn(&*network);
  const ThreeDReach method(&cn);
  EXPECT_EQ(method.interval_labeling()->Labels(cn.ComponentOf(0)).size(), 1u);
  EXPECT_TRUE(method.Evaluate(0, Rect(0, 0, 2, 2)));
  EXPECT_FALSE(method.Evaluate(2, Rect(5, 5, 6, 6)));
}

TEST(ThreeDReachRevTest, SingleProbeRegardlessOfAnswer) {
  // 3DReach-REV's design point: the reversed labeling turns every query
  // into one plane probe. Verify its labeling is over the reversed DAG:
  // venue components hold the ancestors' reversed posts.
  const GeoSocialNetwork network = testing::FigureOneNetwork();
  const CondensedNetwork cn(&network);
  const ThreeDReachRev method(&cn);
  // In Figure 1, venue e is reachable from {a, b, e}; its reversed label
  // set covers exactly 3 posts.
  const IntervalLabeling& labeling = *method.interval_labeling();
  EXPECT_EQ(labeling.Labels(cn.ComponentOf(testing::kE)).CoveredValues(), 3u);
}

TEST(ThreeDReachTest, RevIndexIsLargerThanForward) {
  // REV stores one box-sized segment per reversed label; the forward
  // variant stores one point per spatial vertex (Table 4's shape).
  const GeoSocialNetwork network =
      testing::RandomGeoSocialNetwork(300, 3.0, 0.5, 9);
  const CondensedNetwork cn(&network);
  const ThreeDReach forward(&cn);
  const ThreeDReachRev reversed(&cn);
  EXPECT_GT(reversed.IndexSizeBytes(), forward.IndexSizeBytes());
}

TEST(ThreeDReachTest, MbrVariantIsLargerOnSingletonVenues) {
  // On geosocial networks, venues never sit inside SCCs (check-ins only
  // point *to* them), so both variants index one entry per venue — and
  // the MBR variant's box entries (6 doubles) beat the replicate
  // variant's points (3 doubles), Table 4's observation.
  GraphBuilder builder;
  Rng rng(11);
  builder.ReserveVertices(600);
  for (VertexId u = 0; u < 100; ++u) {
    for (int e = 0; e < 4; ++e) {
      builder.AddEdge(u, 100 + static_cast<VertexId>(rng.NextBounded(500)));
    }
  }
  auto graph = builder.Build();
  ASSERT_TRUE(graph.ok());
  std::vector<std::optional<Point2D>> points(600);
  for (VertexId v = 100; v < 600; ++v) {
    points[v] = Point2D{rng.NextDoubleInRange(0, 50),
                        rng.NextDoubleInRange(0, 50)};
  }
  auto network = GeoSocialNetwork::Create(std::move(graph).value(), points);
  ASSERT_TRUE(network.ok());
  const CondensedNetwork cn(&*network);
  const ThreeDReach replicate(&cn);
  const ThreeDReach mbr(
      &cn, ThreeDReach::Options{.scc_mode = SccSpatialMode::kMbr});
  EXPECT_GT(mbr.IndexSizeBytes(), replicate.IndexSizeBytes());
}

TEST(ThreeDReachTest, ForestStrategiesAgree) {
  const GeoSocialNetwork network =
      testing::RandomGeoSocialNetwork(150, 2.5, 0.4, 13);
  const CondensedNetwork cn(&network);
  const ThreeDReach dfs(&cn);
  const ThreeDReach bfs(
      &cn, ThreeDReach::Options{.forest_strategy = ForestStrategy::kBfs});
  const NaiveBfsMethod oracle(&network);
  Rng rng(14);
  for (int q = 0; q < 150; ++q) {
    const VertexId v =
        static_cast<VertexId>(rng.NextBounded(network.num_vertices()));
    const double x = rng.NextDoubleInRange(0, 90);
    const double y = rng.NextDoubleInRange(0, 90);
    const Rect region(x, y, x + 12, y + 12);
    const bool expected = oracle.Evaluate(v, region);
    EXPECT_EQ(dfs.Evaluate(v, region), expected);
    EXPECT_EQ(bfs.Evaluate(v, region), expected);
  }
}

TEST(SpaReachTest, NamesEncodeBackendAndVariant) {
  const GeoSocialNetwork network =
      testing::RandomGeoSocialNetwork(50, 2.0, 0.5, 15);
  const CondensedNetwork cn(&network);
  EXPECT_EQ(SpaReachBfl(&cn).name(), "SpaReach-BFL");
  EXPECT_EQ(SpaReachBfl(&cn, SccSpatialMode::kMbr).name(),
            "SpaReach-BFL (mbr)");
  EXPECT_EQ(SpaReachInt(&cn).name(), "SpaReach-INT");
  EXPECT_EQ(SpaReachInt(&cn, SccSpatialMode::kMbr).name(),
            "SpaReach-INT (mbr)");
}

TEST(SpaReachTest, BflCountersAdvanceWithQueries) {
  const GeoSocialNetwork network =
      testing::RandomGeoSocialNetwork(200, 2.5, 0.5, 17);
  const CondensedNetwork cn(&network);
  const SpaReachBfl method(&cn);
  const std::unique_ptr<QueryScratch> scratch = method.NewScratch();
  Rng rng(18);
  for (int q = 0; q < 50; ++q) {
    const double x = rng.NextDoubleInRange(0, 80);
    const Rect region(x, x, x + 20, x + 20);
    method.Evaluate(static_cast<VertexId>(rng.NextBounded(200)), region,
                    *scratch);
  }
  const auto& counters =
      static_cast<SpaReachBfl::Scratch&>(*scratch).bfl.counters;
  EXPECT_GT(counters.tree_hits + counters.filter_rejects +
                counters.dfs_fallbacks,
            0u);
}

TEST(SocReachTest, DescendantsDriveCost) {
  // A root that reaches everything materializes all components; a sink
  // materializes only itself. Behavioural check through the public API.
  auto graph = DiGraph::FromEdges(4, {{0, 1}, {1, 2}, {2, 3}});
  ASSERT_TRUE(graph.ok());
  std::vector<std::optional<Point2D>> points(4);
  points[3] = Point2D{1, 1};
  auto network = GeoSocialNetwork::Create(std::move(graph).value(), points);
  ASSERT_TRUE(network.ok());
  const CondensedNetwork cn(&*network);
  const SocReach method(&cn);
  const IntervalLabeling& labeling = *method.interval_labeling();
  EXPECT_EQ(labeling.Descendants(cn.ComponentOf(0)).size(), 4u);
  EXPECT_EQ(labeling.Descendants(cn.ComponentOf(3)).size(), 1u);
  EXPECT_TRUE(method.Evaluate(0, Rect(0, 0, 2, 2)));
  EXPECT_TRUE(method.Evaluate(3, Rect(0, 0, 2, 2)));  // Venue in region.
  EXPECT_FALSE(method.Evaluate(3, Rect(5, 5, 6, 6)));
}

}  // namespace
}  // namespace gsr
