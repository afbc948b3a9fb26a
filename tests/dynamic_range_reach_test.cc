#include "core/dynamic_range_reach.h"

#include <gtest/gtest.h>

#include <optional>
#include <vector>

#include "common/rng.h"
#include "core/naive_bfs.h"
#include "core/result_sink.h"
#include "datagen/workload.h"
#include "exec/streaming_engine.h"
#include "graph/digraph.h"
#include "tests/test_util.h"

namespace gsr {
namespace {

/// Reference implementation: materialize the updated network and BFS.
class ReferenceNetwork {
 public:
  explicit ReferenceNetwork(const GeoSocialNetwork& base) {
    const DiGraph& graph = base.graph();
    for (VertexId v = 0; v < graph.num_vertices(); ++v) {
      for (const VertexId w : graph.OutNeighbors(v)) edges_.emplace_back(v, w);
      points_.push_back(base.IsSpatial(v)
                            ? std::optional<Point2D>(base.PointOf(v))
                            : std::nullopt);
    }
  }

  VertexId AddVertex(std::optional<Point2D> point) {
    points_.push_back(point);
    return static_cast<VertexId>(points_.size() - 1);
  }

  void AddEdge(VertexId from, VertexId to) { edges_.emplace_back(from, to); }

  void DeleteEdge(VertexId from, VertexId to) {
    std::erase(edges_, std::make_pair(from, to));
  }

  void SetPoint(VertexId v, const Point2D& p) { points_[v] = p; }

  void ClearPoint(VertexId v) { points_[v].reset(); }

  bool RangeReach(VertexId v, const Rect& region) const {
    auto network = Materialize();
    const NaiveBfsMethod oracle(&network);
    return oracle.Evaluate(v, region);
  }

  std::vector<VertexId> RangeReachEnum(VertexId v, const Rect& region) const {
    auto network = Materialize();
    const NaiveBfsMethod oracle(&network);
    return oracle.EvaluateEnum(v, region);
  }

 private:
  GeoSocialNetwork Materialize() const {
    auto graph = DiGraph::FromEdges(
        static_cast<VertexId>(points_.size()),
        std::vector<std::pair<VertexId, VertexId>>(edges_));
    GSR_CHECK(graph.ok());
    auto network = GeoSocialNetwork::Create(std::move(graph).value(), points_);
    GSR_CHECK(network.ok());
    return std::move(network).value();
  }

  std::vector<std::pair<VertexId, VertexId>> edges_;
  std::vector<std::optional<Point2D>> points_;
};

/// The engine's current state as a queryable method.
exec::EpochView Live(const DynamicRangeReach& dynamic) {
  return exec::EpochView(dynamic.Snapshot(), /*epoch=*/0);
}

TEST(DynamicRangeReachTest, BaseOnlyMatchesIndex) {
  const GeoSocialNetwork network =
      testing::RandomGeoSocialNetwork(100, 2.0, 0.4, 61);
  const NaiveBfsMethod oracle(&network);
  DynamicRangeReach dynamic{testing::RandomGeoSocialNetwork(100, 2.0, 0.4,
                                                            61)};
  auto scratch = Live(dynamic).NewScratch();
  Rng rng(62);
  for (int q = 0; q < 100; ++q) {
    const VertexId v =
        static_cast<VertexId>(rng.NextBounded(network.num_vertices()));
    const double x = rng.NextDoubleInRange(0, 80);
    const double y = rng.NextDoubleInRange(0, 80);
    const Rect region(x, y, x + 20, y + 20);
    EXPECT_EQ(Live(dynamic).Evaluate(v, region, *scratch),
              oracle.Evaluate(v, region));
  }
}

TEST(DynamicRangeReachTest, NewVenueBecomesReachable) {
  // alice -> bob; a new cafe appears and bob checks in: alice must now
  // geosocially reach the cafe's neighbourhood.
  GraphBuilder builder;
  builder.AddEdge(0, 1);
  auto graph = builder.Build();
  ASSERT_TRUE(graph.ok());
  auto network = GeoSocialNetwork::Create(
      std::move(graph).value(), std::vector<std::optional<Point2D>>(2));
  ASSERT_TRUE(network.ok());

  DynamicRangeReach dynamic(std::move(network).value());
  auto scratch = Live(dynamic).NewScratch();
  const Rect cafe_area(0, 0, 10, 10);
  EXPECT_FALSE(Live(dynamic).Evaluate(0, cafe_area, *scratch));

  const VertexId cafe = *dynamic.Apply(Update::AddVertex(Point2D{5, 5}));
  // No check-in yet.
  EXPECT_FALSE(Live(dynamic).Evaluate(0, cafe_area, *scratch));
  ASSERT_TRUE(dynamic.Apply(Update::InsertEdge(1, cafe)).ok());
  // alice -> bob -> cafe.
  EXPECT_TRUE(Live(dynamic).Evaluate(0, cafe_area, *scratch));
  EXPECT_TRUE(Live(dynamic).Evaluate(1, cafe_area, *scratch));
  // The cafe itself.
  EXPECT_TRUE(Live(dynamic).Evaluate(cafe, cafe_area, *scratch));

  dynamic.Rebuild();
  EXPECT_EQ(dynamic.pending_updates(), 0u);
  EXPECT_TRUE(Live(dynamic).Evaluate(0, cafe_area, *scratch));
  EXPECT_FALSE(Live(dynamic).Evaluate(cafe, Rect(20, 20, 30, 30), *scratch));
}

TEST(DynamicRangeReachTest, NewEdgeBridgesBaseComponents) {
  // Two disconnected halves; a new friendship bridges them.
  GraphBuilder builder;
  builder.AddEdge(0, 1);  // Half A: 0 -> 1 (venue).
  builder.AddEdge(2, 3);  // Half B: 2 -> 3 (venue).
  auto graph = builder.Build();
  ASSERT_TRUE(graph.ok());
  std::vector<std::optional<Point2D>> points(4);
  points[1] = Point2D{1, 1};
  points[3] = Point2D{9, 9};
  auto network = GeoSocialNetwork::Create(std::move(graph).value(), points);
  ASSERT_TRUE(network.ok());

  DynamicRangeReach dynamic(std::move(network).value());
  auto scratch = Live(dynamic).NewScratch();
  const Rect around_3(8, 8, 10, 10);
  EXPECT_FALSE(Live(dynamic).Evaluate(0, around_3, *scratch));
  ASSERT_TRUE(dynamic.Apply(Update::InsertEdge(0, 2)).ok());
  EXPECT_TRUE(Live(dynamic).Evaluate(0, around_3, *scratch));  // 0 -> 2 -> 3.
  // No reverse path.
  EXPECT_FALSE(Live(dynamic).Evaluate(2, Rect(0, 0, 2, 2), *scratch));
}

TEST(DynamicRangeReachTest, ChainsAcrossMultipleDeltaEdges) {
  // A path that alternates base segments and delta edges repeatedly.
  GraphBuilder builder;
  builder.AddEdge(0, 1);
  builder.AddEdge(2, 3);
  builder.AddEdge(4, 5);
  auto graph = builder.Build();
  ASSERT_TRUE(graph.ok());
  std::vector<std::optional<Point2D>> points(6);
  points[5] = Point2D{5, 5};
  auto network = GeoSocialNetwork::Create(std::move(graph).value(), points);
  ASSERT_TRUE(network.ok());

  DynamicRangeReach dynamic(std::move(network).value());
  auto scratch = Live(dynamic).NewScratch();
  const Rect target(4, 4, 6, 6);
  EXPECT_FALSE(Live(dynamic).Evaluate(0, target, *scratch));
  // 0 ->base 1 ->delta 2.
  ASSERT_TRUE(dynamic.Apply(Update::InsertEdge(1, 2)).ok());
  EXPECT_FALSE(Live(dynamic).Evaluate(0, target, *scratch));
  // ... ->base 3 ->delta 4 ->base 5.
  ASSERT_TRUE(dynamic.Apply(Update::InsertEdge(3, 4)).ok());
  EXPECT_TRUE(Live(dynamic).Evaluate(0, target, *scratch));
}

TEST(DynamicRangeReachTest, RejectsOutOfRangeEdges) {
  auto graph = DiGraph::FromEdges(2, {{0, 1}});
  ASSERT_TRUE(graph.ok());
  auto network = GeoSocialNetwork::Create(
      std::move(graph).value(), std::vector<std::optional<Point2D>>(2));
  ASSERT_TRUE(network.ok());
  DynamicRangeReach dynamic(std::move(network).value());
  EXPECT_FALSE(dynamic.Apply(Update::InsertEdge(0, 7)).ok());
  EXPECT_TRUE(dynamic.Apply(Update::InsertEdge(1, 0)).ok());
}

TEST(DynamicRangeReachTest, PointMoveLeavesAndEntersRegions) {
  // bob checks in downtown; later he moves uptown. Queries must track the
  // *current* point, not the indexed base point.
  GraphBuilder builder;
  builder.AddEdge(0, 1);
  auto graph = builder.Build();
  ASSERT_TRUE(graph.ok());
  std::vector<std::optional<Point2D>> points(2);
  points[1] = Point2D{5, 5};
  auto network = GeoSocialNetwork::Create(std::move(graph).value(), points);
  ASSERT_TRUE(network.ok());

  DynamicRangeReach dynamic(std::move(network).value());
  auto scratch = Live(dynamic).NewScratch();
  const Rect downtown(0, 0, 10, 10);
  const Rect uptown(90, 90, 100, 100);
  EXPECT_TRUE(Live(dynamic).Evaluate(0, downtown, *scratch));
  EXPECT_FALSE(Live(dynamic).Evaluate(0, uptown, *scratch));

  ASSERT_TRUE(dynamic.Apply(Update::SetPoint(1, Point2D{95, 95})).ok());
  // Stale base point ignored.
  EXPECT_FALSE(Live(dynamic).Evaluate(0, downtown, *scratch));
  EXPECT_TRUE(Live(dynamic).Evaluate(0, uptown, *scratch));

  ASSERT_TRUE(dynamic.Apply(Update::ClearPoint(1)).ok());
  EXPECT_FALSE(Live(dynamic).Evaluate(0, downtown, *scratch));
  EXPECT_FALSE(Live(dynamic).Evaluate(0, uptown, *scratch));

  dynamic.Rebuild();
  EXPECT_EQ(dynamic.pending_updates(), 0u);
  EXPECT_FALSE(Live(dynamic).Evaluate(0, downtown, *scratch));
  EXPECT_FALSE(Live(dynamic).Evaluate(0, uptown, *scratch));
}

TEST(DynamicRangeReachTest, EdgeFlipsDeleteAndRevive) {
  // 0 -> 1 -> 2(venue): deleting the middle edge cuts the path, and
  // re-inserting the same base edge (an edge flip) revives it without
  // growing the delta.
  GraphBuilder builder;
  builder.AddEdge(0, 1);
  builder.AddEdge(1, 2);
  auto graph = builder.Build();
  ASSERT_TRUE(graph.ok());
  std::vector<std::optional<Point2D>> points(3);
  points[2] = Point2D{5, 5};
  auto network = GeoSocialNetwork::Create(std::move(graph).value(), points);
  ASSERT_TRUE(network.ok());

  DynamicRangeReach dynamic(std::move(network).value());
  auto scratch = Live(dynamic).NewScratch();
  const Rect venue(4, 4, 6, 6);
  EXPECT_TRUE(Live(dynamic).Evaluate(0, venue, *scratch));

  ASSERT_TRUE(dynamic.Apply(Update::DeleteEdge(1, 2)).ok());
  EXPECT_FALSE(Live(dynamic).Evaluate(0, venue, *scratch));
  EXPECT_FALSE(Live(dynamic).Evaluate(1, venue, *scratch));
  // The venue still sees itself.
  EXPECT_TRUE(Live(dynamic).Evaluate(2, venue, *scratch));

  // Flip back: un-deletes.
  ASSERT_TRUE(dynamic.Apply(Update::InsertEdge(1, 2)).ok());
  EXPECT_TRUE(Live(dynamic).Evaluate(0, venue, *scratch));
  EXPECT_EQ(dynamic.pending_updates(), 0u);  // The flip nets out of the delta.
  EXPECT_EQ(dynamic.log_size(), 2u);         // But both updates are logged.

  dynamic.Rebuild();
  EXPECT_TRUE(Live(dynamic).Evaluate(0, venue, *scratch));
}

TEST(DynamicRangeReachTest, NoOpUpdatesAreNotLogged) {
  auto graph = DiGraph::FromEdges(3, {{0, 1}});
  ASSERT_TRUE(graph.ok());
  std::vector<std::optional<Point2D>> points(3);
  points[1] = Point2D{5, 5};
  auto network = GeoSocialNetwork::Create(std::move(graph).value(), points);
  ASSERT_TRUE(network.ok());
  DynamicRangeReach dynamic(std::move(network).value());

  // Already a live base edge; a self-loop; an absent edge; an identical
  // point; an already bare vertex.
  ASSERT_TRUE(dynamic.Apply(Update::InsertEdge(0, 1)).ok());
  ASSERT_TRUE(dynamic.Apply(Update::InsertEdge(2, 2)).ok());
  ASSERT_TRUE(dynamic.Apply(Update::DeleteEdge(1, 2)).ok());
  ASSERT_TRUE(dynamic.Apply(Update::SetPoint(1, Point2D{5, 5})).ok());
  ASSERT_TRUE(dynamic.Apply(Update::ClearPoint(0)).ok());
  EXPECT_EQ(dynamic.log_size(), 0u);
  EXPECT_EQ(dynamic.pending_updates(), 0u);

  ASSERT_TRUE(dynamic.Apply(Update::DeleteEdge(0, 1)).ok());  // A real change.
  EXPECT_EQ(dynamic.log_size(), 1u);
  // Double delete: no-op.
  ASSERT_TRUE(dynamic.Apply(Update::DeleteEdge(0, 1)).ok());
  EXPECT_EQ(dynamic.log_size(), 1u);
}

TEST(DynamicRangeReachTest, EmptyDeltaDegenerates) {
  const GeoSocialNetwork base =
      testing::RandomGeoSocialNetwork(40, 1.5, 0.4, 17);
  const NaiveBfsMethod oracle(&base);
  DynamicRangeReach dynamic{testing::RandomGeoSocialNetwork(40, 1.5, 0.4, 17)};

  // Rebuild with an empty delta is a no-op (same base object).
  const auto* before = dynamic.base().get();
  dynamic.Rebuild();
  EXPECT_EQ(dynamic.base().get(), before);

  // A snapshot view of the empty delta answers like the base.
  const exec::EpochView view(dynamic.Snapshot(), /*epoch=*/0);
  auto scratch = view.NewScratch();
  Rng rng(18);
  for (int q = 0; q < 50; ++q) {
    const VertexId v =
        static_cast<VertexId>(rng.NextBounded(base.num_vertices()));
    const double x = rng.NextDoubleInRange(0, 80);
    const double y = rng.NextDoubleInRange(0, 80);
    const Rect region(x, y, x + 20, y + 20);
    EXPECT_EQ(view.Evaluate(v, region, *scratch), oracle.Evaluate(v, region));
  }
}

TEST(DynamicRangeReachTest, DeltaOnlyVertexIsQueryable) {
  // A vertex that exists only in the delta — no edges at all.
  auto graph = DiGraph::FromEdges(1, {});
  ASSERT_TRUE(graph.ok());
  auto network = GeoSocialNetwork::Create(
      std::move(graph).value(), std::vector<std::optional<Point2D>>(1));
  ASSERT_TRUE(network.ok());
  DynamicRangeReach dynamic(std::move(network).value());
  auto scratch = Live(dynamic).NewScratch();

  const VertexId lonely = *dynamic.Apply(Update::AddVertex(std::nullopt));
  EXPECT_FALSE(Live(dynamic).Evaluate(lonely, Rect(0, 0, 100, 100), *scratch));

  const VertexId venue = *dynamic.Apply(Update::AddVertex(Point2D{5, 5}));
  EXPECT_TRUE(Live(dynamic).Evaluate(venue, Rect(0, 0, 10, 10), *scratch));
  EXPECT_FALSE(Live(dynamic).Evaluate(venue, Rect(20, 20, 30, 30), *scratch));
  EXPECT_FALSE(Live(dynamic).Evaluate(lonely, Rect(0, 0, 10, 10), *scratch));

  // Points of delta-only vertices can move and clear too.
  ASSERT_TRUE(dynamic.Apply(Update::SetPoint(venue, Point2D{25, 25})).ok());
  EXPECT_TRUE(Live(dynamic).Evaluate(venue, Rect(20, 20, 30, 30), *scratch));
  ASSERT_TRUE(dynamic.Apply(Update::ClearPoint(venue)).ok());
  EXPECT_FALSE(Live(dynamic).Evaluate(venue, Rect(20, 20, 30, 30), *scratch));
}

TEST(DynamicRangeReachTest, MaterializeAtReproducesEveryPrefix) {
  const GeoSocialNetwork base =
      testing::RandomGeoSocialNetwork(30, 1.5, 0.5, 23);
  DynamicRangeReach dynamic{testing::RandomGeoSocialNetwork(30, 1.5, 0.5, 23)};
  auto scratch = Live(dynamic).NewScratch();
  const UpdateStreamSpec spec{.count = 40};
  const auto stream = GenerateUpdateStream(base, spec, 99);
  for (const Update& update : stream) {
    ASSERT_TRUE(dynamic.Apply(update).ok());
  }
  // The log may be shorter than the stream (no-ops are not logged), and
  // every prefix must materialize cleanly.
  EXPECT_LE(dynamic.log_size(), stream.size());
  for (uint64_t pos = 0; pos <= dynamic.log_size(); pos += 7) {
    const GeoSocialNetwork at = dynamic.MaterializeAt(pos);
    EXPECT_GE(at.num_vertices(), base.num_vertices());
  }
  // Full materialization matches the live view: same answers everywhere.
  const GeoSocialNetwork full = dynamic.MaterializeAt(dynamic.log_size());
  const NaiveBfsMethod oracle(&full);
  Rng rng(24);
  for (int q = 0; q < 80; ++q) {
    const VertexId v =
        static_cast<VertexId>(rng.NextBounded(dynamic.num_vertices()));
    const double x = rng.NextDoubleInRange(0, 80);
    const double y = rng.NextDoubleInRange(0, 80);
    const Rect region(x, y, x + 20, y + 20);
    ASSERT_EQ(Live(dynamic).Evaluate(v, region, *scratch),
              oracle.Evaluate(v, region));
  }
}

TEST(DynamicRangeReachTest, SnapshotViewIsImmutableUnderLaterUpdates) {
  GraphBuilder builder;
  builder.AddEdge(0, 1);
  auto graph = builder.Build();
  ASSERT_TRUE(graph.ok());
  std::vector<std::optional<Point2D>> points(2);
  points[1] = Point2D{5, 5};
  auto network = GeoSocialNetwork::Create(std::move(graph).value(), points);
  ASSERT_TRUE(network.ok());
  DynamicRangeReach dynamic(std::move(network).value());

  const Rect venue(4, 4, 6, 6);
  const exec::EpochView view(dynamic.Snapshot(), /*epoch=*/1);
  auto scratch = view.NewScratch();
  // One scratch serves every later view of the engine: it answers on the
  // old base first, so after the Rebuild() below its base-index part
  // must be re-created for the new base.
  auto engine_scratch = view.NewScratch();
  EXPECT_TRUE(view.Evaluate(0, venue, *scratch));
  EXPECT_TRUE(Live(dynamic).Evaluate(0, venue, *engine_scratch));

  ASSERT_TRUE(dynamic.Apply(Update::DeleteEdge(0, 1)).ok());
  EXPECT_FALSE(Live(dynamic).Evaluate(0, venue, *engine_scratch));
  // The pinned view still answers at its own position.
  EXPECT_TRUE(view.Evaluate(0, venue, *scratch));

  dynamic.Rebuild();  // Hot-swaps the engine's base; view keeps the old one.
  EXPECT_FALSE(Live(dynamic).Evaluate(0, venue, *engine_scratch));
  EXPECT_TRUE(view.Evaluate(0, venue, *scratch));
  // The reused scratch now holds a base-index scratch of the rebuilt base.
  EXPECT_EQ(
      static_cast<DynamicRangeReach::Scratch&>(*engine_scratch).base_instance,
      dynamic.base()->method->instance_id());
}

TEST(DynamicRangeReachTest, SnapshotRoundTripBaseAnswersIdentically) {
  const GeoSocialNetwork base =
      testing::RandomGeoSocialNetwork(80, 2.0, 0.4, 41);
  DynamicRangeReach dynamic{testing::RandomGeoSocialNetwork(80, 2.0, 0.4, 41)};
  auto scratch = Live(dynamic).NewScratch();
  // Some delta on top of the base, so the swap happens mid-stream.
  ASSERT_TRUE(dynamic.Apply(Update::InsertEdge(0, 40)).ok());
  ASSERT_TRUE(dynamic.Apply(Update::SetPoint(3, Point2D{50, 50})).ok());

  const std::string path = ::testing::TempDir() + "/dyn_base_roundtrip.gsr";
  for (const auto mode :
       {snapshot::LoadMode::kMmap, snapshot::LoadMode::kPaged}) {
    auto swapped =
        DynamicRangeReach::Base::RoundTripThroughSnapshot(dynamic.base(), path,
                                                          mode);
    ASSERT_TRUE(swapped.ok()) << swapped.status().ToString();
    EXPECT_TRUE((*swapped)->from_snapshot);

    const auto base_only = [](const auto& b) {
      return std::make_shared<const DynamicRangeReach::View>(
          DynamicRangeReach::View{b, {}, 0});
    };
    const exec::EpochView before(base_only(dynamic.base()), /*epoch=*/0);
    const exec::EpochView after(base_only(*swapped), /*epoch=*/0);
    auto s1 = before.NewScratch();
    auto s2 = after.NewScratch();
    Rng rng(42);
    for (int q = 0; q < 100; ++q) {
      const VertexId v =
          static_cast<VertexId>(rng.NextBounded(base.num_vertices()));
      const double x = rng.NextDoubleInRange(0, 80);
      const double y = rng.NextDoubleInRange(0, 80);
      const Rect region(x, y, x + 20, y + 20);
      ASSERT_EQ(before.Evaluate(v, region, *s1),
                after.Evaluate(v, region, *s2));
      // The collection path descends the (possibly paged) base index too.
      ASSERT_EQ(before.EvaluateCount(v, region, *s1),
                after.EvaluateCount(v, region, *s2));
    }

    // Installing the swapped base preserves the live delta's answers.
    const GeoSocialNetwork full = dynamic.MaterializeAt(dynamic.log_size());
    const NaiveBfsMethod oracle(&full);
    dynamic.InstallBase(*swapped);
    for (int q = 0; q < 50; ++q) {
      const VertexId v =
          static_cast<VertexId>(rng.NextBounded(dynamic.num_vertices()));
      const double x = rng.NextDoubleInRange(0, 80);
      const double y = rng.NextDoubleInRange(0, 80);
      const Rect region(x, y, x + 20, y + 20);
      ASSERT_EQ(Live(dynamic).Evaluate(v, region, *scratch),
                oracle.Evaluate(v, region));
    }
  }
}

TEST(DynamicRangeReachTest, CollectThroughViewAndEpochViewMatchesOracle) {
  // The count/enum surface of the update path: an EpochView over the
  // engine's snapshot, on an explicit scratch and on its default one,
  // must produce the oracle's exact result sets — in the non-risky
  // regime (inserts and gained points only) and after the delta turns
  // risky (deleted base edge, moved base point).
  const GeoSocialNetwork base =
      testing::RandomGeoSocialNetwork(70, 2.0, 0.4, 53);
  ReferenceNetwork reference(base);
  DynamicRangeReach dynamic{testing::RandomGeoSocialNetwork(70, 2.0, 0.4, 53)};

  const auto check_all = [&](int phase) {
    const exec::EpochView epoch_view(dynamic.Snapshot(),
                                     /*epoch=*/uint64_t(phase));
    auto scratch = epoch_view.NewScratch();
    const auto method_scratch = epoch_view.NewScratch();
    Rng rng(54 + phase);
    for (int q = 0; q < 60; ++q) {
      const VertexId v =
          static_cast<VertexId>(rng.NextBounded(dynamic.num_vertices()));
      const double x = rng.NextDoubleInRange(-5, 95);
      const double y = rng.NextDoubleInRange(-5, 95);
      const Rect region(x, y, x + rng.NextDoubleInRange(0, 40),
                        y + rng.NextDoubleInRange(0, 40));
      const std::vector<VertexId> expected =
          reference.RangeReachEnum(v, region);

      ASSERT_EQ(epoch_view.EvaluateCount(v, region, *scratch),
                expected.size())
          << "phase " << phase << " vertex " << v;
      std::vector<VertexId> got;
      epoch_view.EvaluateEnumInto(v, region, *scratch, got);
      ASSERT_EQ(got, expected) << "phase " << phase << " vertex " << v;

      ASSERT_EQ(epoch_view.EvaluateCount(v, region), expected.size())
          << "phase " << phase << " vertex " << v;
      ASSERT_EQ(epoch_view.EvaluateEnum(v, region), expected)
          << "phase " << phase << " vertex " << v;
      // Enum and bool must tell the same story.
      ResultSink bool_sink = ResultSink::Bool();
      epoch_view.EvaluateInto(v, region, bool_sink, *method_scratch);
      ASSERT_EQ(bool_sink.found(), !expected.empty())
          << "phase " << phase << " vertex " << v;
    }
  };

  // Phase 0: empty delta — pure base collection.
  check_all(0);

  // Phase 1: non-risky delta — added vertices, inserted edges, gained
  // points. The stitch-closure collection path.
  const VertexId venue = *dynamic.Apply(Update::AddVertex(Point2D{50, 50}));
  ASSERT_EQ(reference.AddVertex(Point2D{50, 50}), venue);
  const VertexId lurker = *dynamic.Apply(Update::AddVertex(std::nullopt));
  ASSERT_EQ(reference.AddVertex(std::nullopt), lurker);
  ASSERT_TRUE(dynamic.Apply(Update::InsertEdge(3, venue)).ok());
  reference.AddEdge(3, venue);
  ASSERT_TRUE(dynamic.Apply(Update::InsertEdge(venue, 9)).ok());
  reference.AddEdge(venue, 9);
  ASSERT_TRUE(dynamic.Apply(Update::InsertEdge(lurker, 3)).ok());
  reference.AddEdge(lurker, 3);
  ASSERT_TRUE(dynamic.Apply(Update::SetPoint(lurker, Point2D{20, 20})).ok());
  reference.SetPoint(lurker, Point2D{20, 20});
  check_all(1);

  // Phase 2: risky delta — a deleted base edge and stale base points
  // force the exact-overlay collection path. Pick a real base edge and
  // real base-spatial vertices so the delta is guaranteed risky.
  bool edge_deleted = false;
  for (VertexId v = 0; v < base.num_vertices() && !edge_deleted; ++v) {
    for (const VertexId w : base.graph().OutNeighbors(v)) {
      ASSERT_TRUE(dynamic.Apply(Update::DeleteEdge(v, w)).ok());
      reference.DeleteEdge(v, w);
      edge_deleted = true;
      break;
    }
  }
  ASSERT_TRUE(edge_deleted);
  int stale = 0;
  for (VertexId v = 0; v < base.num_vertices() && stale < 2; ++v) {
    if (!base.IsSpatial(v)) continue;
    if (stale == 0) {
      ASSERT_TRUE(dynamic.Apply(Update::SetPoint(v, Point2D{80, 80})).ok());
      reference.SetPoint(v, Point2D{80, 80});
    } else {
      ASSERT_TRUE(dynamic.Apply(Update::ClearPoint(v)).ok());
      reference.ClearPoint(v);
    }
    ++stale;
  }
  ASSERT_EQ(stale, 2);
  check_all(2);
}

TEST(DynamicRangeReachTest, BudgetedOverlaySearchCoversEveryBranch) {
  // A path v0 -> ... -> v199 with vertex i at (i, 0), longer than the
  // risky-delta search's expansion budget, so far witnesses force the
  // optimistic fallback. The side edge 200 -> 201 carries the unrelated
  // delete and point move that make the delta risky.
  static constexpr VertexId kPath = 200;
  const auto make_network = [] {
    std::vector<std::pair<VertexId, VertexId>> edges;
    std::vector<std::optional<Point2D>> points;
    for (VertexId v = 0; v < kPath; ++v) {
      if (v + 1 < kPath) edges.emplace_back(v, v + 1);
      points.push_back(Point2D{static_cast<double>(v), 0});
    }
    edges.emplace_back(kPath, kPath + 1);
    points.push_back(Point2D{0, 50});
    points.push_back(Point2D{10, 50});
    auto graph = DiGraph::FromEdges(kPath + 2, std::move(edges));
    GSR_CHECK(graph.ok());
    auto network = GeoSocialNetwork::Create(std::move(graph).value(), points);
    GSR_CHECK(network.ok());
    return std::move(network).value();
  };
  const GeoSocialNetwork base = make_network();
  ReferenceNetwork reference(base);
  DynamicRangeReach dynamic{make_network()};
  ASSERT_TRUE(dynamic.Apply(Update::DeleteEdge(kPath, kPath + 1)).ok());
  reference.DeleteEdge(kPath, kPath + 1);
  ASSERT_TRUE(dynamic.Apply(Update::SetPoint(kPath + 1, Point2D{20, 50})).ok());
  reference.SetPoint(kPath + 1, Point2D{20, 50});
  ASSERT_TRUE(dynamic.Snapshot()->delta.risky());

  const auto around = [](VertexId v) {
    const double x = static_cast<double>(v);
    return Rect(x - 0.5, -0.5, x + 0.5, 0.5);
  };
  const Rect nowhere(-10, -10, -5, -5);

  // Answers every kind through an EpochView, on an explicit scratch and
  // on the view's default one, checks each against the reference, and
  // returns the boolean answer with the overlay vertices its evaluation
  // expanded.
  struct Outcome {
    bool answer;
    uint64_t expansions;
  };
  const auto check = [&](VertexId vertex, const Rect& region) {
    const std::vector<VertexId> expected =
        reference.RangeReachEnum(vertex, region);
    const exec::EpochView view(dynamic.Snapshot(), /*epoch=*/1);
    const auto scratch = view.NewScratch();
    const bool answer = view.Evaluate(vertex, region, *scratch);
    EXPECT_EQ(answer, !expected.empty()) << "vertex " << vertex;
    const uint64_t expansions = scratch->counters.vertices_visited;
    ResultSink count = ResultSink::Count();
    view.CollectInto(vertex, region, count, *scratch);
    EXPECT_EQ(count.count(), expected.size()) << "vertex " << vertex;
    std::vector<VertexId> got;
    ResultSink enumerated = ResultSink::Enum(&got);
    view.CollectInto(vertex, region, enumerated, *scratch);
    enumerated.Finalize();
    EXPECT_EQ(got, expected) << "vertex " << vertex;

    EXPECT_EQ(view.Evaluate(vertex, region), answer) << "vertex " << vertex;
    EXPECT_EQ(view.counters().vertices_visited, expansions);
    EXPECT_EQ(view.EvaluateCount(vertex, region), expected.size());
    EXPECT_EQ(view.EvaluateEnum(vertex, region), expected);
    EXPECT_EQ(view.counters().queries, 3u);
    return Outcome{answer, expansions};
  };

  // A witness among the query vertex's out-neighbors is found when it is
  // discovered: one expansion.
  Outcome o = check(10, around(11));
  EXPECT_TRUE(o.answer);
  EXPECT_EQ(o.expansions, 1u);

  // A witness at v199: the budget runs out, the optimistic pass says
  // TRUE and the unbounded search confirms it, expanding v0..v198 on top
  // of the budgeted attempt.
  o = check(0, around(kPath - 1));
  EXPECT_TRUE(o.answer);
  EXPECT_GT(o.expansions, kPath - 1);

  // A region nothing reaches: from v190 the search exhausts v190..v199
  // within the budget; from v0 the budget runs out first and the
  // optimistic FALSE is exact, so the path is never walked in full.
  o = check(190, nowhere);
  EXPECT_FALSE(o.answer);
  EXPECT_EQ(o.expansions, 10u);
  o = check(0, nowhere);
  EXPECT_FALSE(o.answer);
  EXPECT_GT(o.expansions, 10u);
  EXPECT_LT(o.expansions, kPath);

  // Cut the path at v150 -> v151. The base index still has v0 reaching
  // v199, so the optimistic pass past the budget says TRUE; the unbounded
  // search exhausts v0..v150 and answers the exact FALSE.
  ASSERT_TRUE(dynamic.Apply(Update::DeleteEdge(150, 151)).ok());
  reference.DeleteEdge(150, 151);
  o = check(0, around(kPath - 1));
  EXPECT_FALSE(o.answer);
  EXPECT_GT(o.expansions, 151u);
  // Past the cut, the witness is still reachable within the budget.
  o = check(151, around(kPath - 1));
  EXPECT_TRUE(o.answer);
  EXPECT_LE(o.expansions, kPath - 151);
}

TEST(DynamicRangeReachTest, OverrideBitmapEdgesMatchOracle) {
  // A path v0 -> ... -> v129 with vertex i at (i, 0), except the bitmap's
  // word edges 0, 63, 64 and nb-1, which start without a point. Point
  // overrides land on those edges, flip set -> clear -> set, and after a
  // Rebuild() land on vertices the larger base folded in, past the old
  // bitmap's last word. Every answer kind is checked against the
  // reference through an EpochView, on two explicit scratches and on its
  // default one.
  static constexpr VertexId kBase = 130;
  const auto make_network = [] {
    std::vector<std::pair<VertexId, VertexId>> edges;
    std::vector<std::optional<Point2D>> points;
    for (VertexId v = 0; v < kBase; ++v) {
      if (v + 1 < kBase) edges.emplace_back(v, v + 1);
      const bool bare = v == 0 || v == 63 || v == 64 || v == kBase - 1;
      points.push_back(bare ? std::nullopt
                            : std::optional<Point2D>(
                                  Point2D{static_cast<double>(v), 0}));
    }
    auto graph = DiGraph::FromEdges(kBase, std::move(edges));
    GSR_CHECK(graph.ok());
    auto network = GeoSocialNetwork::Create(std::move(graph).value(), points);
    GSR_CHECK(network.ok());
    return std::move(network).value();
  };
  const GeoSocialNetwork base = make_network();
  ReferenceNetwork reference(base);
  DynamicRangeReach dynamic{make_network()};

  const auto set_point = [&](VertexId v, double x, double y) {
    ASSERT_TRUE(dynamic.Apply(Update::SetPoint(v, Point2D{x, y})).ok());
    reference.SetPoint(v, Point2D{x, y});
  };
  const auto clear_point = [&](VertexId v) {
    ASSERT_TRUE(dynamic.Apply(Update::ClearPoint(v)).ok());
    reference.ClearPoint(v);
  };

  const std::vector<VertexId> touched = {0,  1,  62,  63,  64,
                                         65, 98, 128, 129, 130,
                                         150, 165, 199};
  const auto check_all = [&](int phase) {
    std::vector<Rect> regions = {Rect(-1, -1, 300, 60), Rect(-1, 49, 300, 51)};
    for (const VertexId v : touched) {
      const double x = static_cast<double>(v);
      regions.emplace_back(x - 0.5, -0.5, x + 0.5, 0.5);
      regions.emplace_back(x - 0.5, 49.5, x + 0.5, 50.5);
    }
    const exec::EpochView epoch_view(dynamic.Snapshot(),
                                     /*epoch=*/uint64_t(phase));
    auto scratch = epoch_view.NewScratch();
    auto view_scratch = epoch_view.NewScratch();
    for (const VertexId v : touched) {
      if (v >= dynamic.num_vertices()) continue;
      for (const Rect& region : regions) {
        const std::vector<VertexId> expected =
            reference.RangeReachEnum(v, region);
        const bool found = !expected.empty();
        ASSERT_EQ(epoch_view.Evaluate(v, region, *scratch), found)
            << "phase " << phase << " vertex " << v;
        ResultSink count = ResultSink::Count();
        epoch_view.CollectInto(v, region, count, *scratch);
        ASSERT_EQ(count.count(), expected.size())
            << "phase " << phase << " vertex " << v;

        ASSERT_EQ(epoch_view.Evaluate(v, region, *view_scratch), found)
            << "phase " << phase << " vertex " << v;
        ASSERT_EQ(epoch_view.EvaluateCount(v, region, *view_scratch),
                  expected.size())
            << "phase " << phase << " vertex " << v;
        std::vector<VertexId> got;
        epoch_view.EvaluateEnumInto(v, region, *view_scratch, got);
        ASSERT_EQ(got, expected) << "phase " << phase << " vertex " << v;

        ASSERT_EQ(epoch_view.Evaluate(v, region), found)
            << "phase " << phase << " vertex " << v;
        ASSERT_EQ(epoch_view.EvaluateCount(v, region), expected.size())
            << "phase " << phase << " vertex " << v;
        ASSERT_EQ(epoch_view.EvaluateEnum(v, region), expected)
            << "phase " << phase << " vertex " << v;
      }
    }
  };

  // Gained points on the word edges: an insert-only, non-risky delta.
  for (const VertexId v : {VertexId{0}, VertexId{63}, VertexId{64},
                           kBase - 1}) {
    set_point(v, static_cast<double>(v), 50);
  }
  ASSERT_FALSE(dynamic.Snapshot()->delta.risky());
  check_all(0);

  // Set -> clear -> set on one vertex: the bit stays set while its entry
  // flips between a point and none.
  clear_point(64);
  check_all(1);
  set_point(64, 98, 50);
  check_all(2);

  // Moving and clearing base points makes the delta risky.
  set_point(62, 62, 50);
  clear_point(1);
  ASSERT_TRUE(dynamic.Snapshot()->delta.risky());
  check_all(3);
  clear_point(62);
  set_point(62, 65, 50);
  check_all(4);

  // Added vertices (id >= nb) extend the path; their points live in the
  // delta's added list and never consult the bitmap.
  for (VertexId v = kBase; v < 200; ++v) {
    const Point2D p{static_cast<double>(v), 0};
    ASSERT_EQ(*dynamic.Apply(Update::AddVertex(p)), v);
    ASSERT_EQ(reference.AddVertex(p), v);
    ASSERT_TRUE(dynamic.Apply(Update::InsertEdge(v - 1, v)).ok());
    reference.AddEdge(v - 1, v);
  }
  set_point(165, 165, 50);
  check_all(5);

  // A rebuild folds the added vertices into a 200-vertex base; overrides
  // on them need a bitmap at the new size (199 lies past the last word
  // of a 130-vertex bitmap).
  dynamic.Rebuild();
  ASSERT_EQ(dynamic.base()->num_vertices(), 200u);
  set_point(199, 199, 50);
  set_point(150, 150, 50);
  clear_point(130);
  ASSERT_TRUE(dynamic.Snapshot()->delta.risky());
  check_all(6);
}

class DynamicRandomTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(DynamicRandomTest, RandomUpdateSequencesStayExact) {
  const uint64_t seed = GetParam();
  const GeoSocialNetwork base =
      testing::RandomGeoSocialNetwork(60, 1.5, 0.4, seed);
  ReferenceNetwork reference(base);
  DynamicRangeReach dynamic{
      testing::RandomGeoSocialNetwork(60, 1.5, 0.4, seed)};
  auto scratch = Live(dynamic).NewScratch();

  Rng rng(seed * 31 + 7);
  auto collect_scratch = Live(dynamic).NewScratch();
  for (int step = 0; step < 80; ++step) {
    // Apply a random update over the full update set.
    const double dice = rng.NextDouble();
    if (dice < 0.15) {
      std::optional<Point2D> point;
      if (rng.NextBernoulli(0.7)) {
        point = Point2D{rng.NextDoubleInRange(0, 100),
                        rng.NextDoubleInRange(0, 100)};
      }
      const VertexId a = *dynamic.Apply(Update::AddVertex(point));
      const VertexId b = reference.AddVertex(point);
      ASSERT_EQ(a, b);
    } else if (dice < 0.5) {
      const VertexId from =
          static_cast<VertexId>(rng.NextBounded(dynamic.num_vertices()));
      const VertexId to =
          static_cast<VertexId>(rng.NextBounded(dynamic.num_vertices()));
      if (from != to) {
        ASSERT_TRUE(dynamic.Apply(Update::InsertEdge(from, to)).ok());
        reference.AddEdge(from, to);
      }
    } else if (dice < 0.65) {
      // Check-in: move or gain a point.
      const VertexId v =
          static_cast<VertexId>(rng.NextBounded(dynamic.num_vertices()));
      const Point2D p{rng.NextDoubleInRange(0, 100),
                      rng.NextDoubleInRange(0, 100)};
      ASSERT_TRUE(dynamic.Apply(Update::SetPoint(v, p)).ok());
      reference.SetPoint(v, p);
    } else if (dice < 0.72) {
      // Check-out.
      const VertexId v =
          static_cast<VertexId>(rng.NextBounded(dynamic.num_vertices()));
      ASSERT_TRUE(dynamic.Apply(Update::ClearPoint(v)).ok());
      reference.ClearPoint(v);
    } else if (dice < 0.9) {
      // Delete a random (possibly absent) edge — absent is a no-op for
      // both sides, so the draw needs no liveness knowledge.
      const VertexId from =
          static_cast<VertexId>(rng.NextBounded(dynamic.num_vertices()));
      const VertexId to =
          static_cast<VertexId>(rng.NextBounded(dynamic.num_vertices()));
      ASSERT_TRUE(dynamic.Apply(Update::DeleteEdge(from, to)).ok());
      reference.DeleteEdge(from, to);
    } else if (dice < 0.95) {
      dynamic.Rebuild();
      ASSERT_EQ(dynamic.pending_updates(), 0u);
    }

    // Verify a few queries after each update; the first one per step also
    // checks the collection kinds (count + sorted enum) through
    // CollectInto, across whatever risky/non-risky state the
    // random walk is in.
    for (int q = 0; q < 5; ++q) {
      const VertexId v =
          static_cast<VertexId>(rng.NextBounded(dynamic.num_vertices()));
      const double x = rng.NextDoubleInRange(-5, 95);
      const double y = rng.NextDoubleInRange(-5, 95);
      const Rect region(x, y, x + rng.NextDoubleInRange(0, 40),
                        y + rng.NextDoubleInRange(0, 40));
      ASSERT_EQ(Live(dynamic).Evaluate(v, region, *scratch),
                reference.RangeReach(v, region))
          << "step " << step << " vertex " << v;
      if (q == 0) {
        const std::vector<VertexId> expected =
            reference.RangeReachEnum(v, region);
        std::vector<VertexId> got;
        ResultSink enum_sink = ResultSink::Enum(&got);
        Live(dynamic).CollectInto(v, region, enum_sink, *collect_scratch);
        enum_sink.Finalize();
        ASSERT_EQ(got, expected) << "step " << step << " vertex " << v;
        ResultSink count_sink = ResultSink::Count();
        Live(dynamic).CollectInto(v, region, count_sink, *collect_scratch);
        ASSERT_EQ(count_sink.count(), expected.size())
            << "step " << step << " vertex " << v;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DynamicRandomTest,
                         ::testing::Values(1, 2, 3, 4, 5));

}  // namespace
}  // namespace gsr
