#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "spatial/frozen_rtree.h"
#include "tests/rtree_test_util.h"

namespace gsr {
namespace {

/// R-tree query semantics: FrozenRTree::Build STR-packs a well-formed tree
/// whose queries return exactly what a linear scan over the input returns,
/// for points and boxes in 2-D and 3-D, at every size around the fanout
/// and its square, with duplicates, flat plane queries and closed
/// (boundary-inclusive) boxes.

using testing::ExpectMatchesLinearScan;
using testing::ExpectWellFormed;
using testing::RandomPoints;
using testing::RandomQueryRect;

std::vector<std::pair<Rect, uint64_t>> RandomPoints2D(size_t n,
                                                      uint64_t seed) {
  std::vector<std::pair<Rect, uint64_t>> entries;
  entries.reserve(n);
  for (const auto& [p, id] : RandomPoints(n, seed)) {
    entries.emplace_back(Rect::FromPoint(p), id);
  }
  return entries;
}

/// Cuboids with extent in x, y and z (up to 5 along each axis).
std::vector<std::pair<Box3D, uint64_t>> RandomBoxes3D(size_t n,
                                                      uint64_t seed) {
  Rng rng(seed);
  std::vector<std::pair<Box3D, uint64_t>> entries;
  entries.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    const double x = rng.NextDoubleInRange(0, 100);
    const double y = rng.NextDoubleInRange(0, 100);
    const double z = rng.NextDoubleInRange(0, 100);
    entries.emplace_back(
        Box3D(x, y, z, x + rng.NextDoubleInRange(0, 5),
              y + rng.NextDoubleInRange(0, 5), z + rng.NextDoubleInRange(0, 5)),
        i);
  }
  return entries;
}

TEST(RTreeTest, EmptyTree) {
  const auto tree = FrozenRTree2D::Build({});
  ExpectWellFormed(tree);
  EXPECT_TRUE(tree.empty());
  EXPECT_EQ(tree.Height(), 0);
  EXPECT_FALSE(tree.AnyIntersecting(Rect(0, 0, 100, 100)));
  EXPECT_TRUE(tree.Bounds().IsEmpty());
}

TEST(RTreeTest, SingleEntry) {
  const auto tree =
      FrozenRTree2D::Build({{Rect::FromPoint(Point2D{5, 5}), 42}});
  EXPECT_EQ(tree.size(), 1u);
  EXPECT_EQ(tree.Height(), 1);
  EXPECT_EQ(tree.Bounds(), Rect(5, 5, 5, 5));
  EXPECT_TRUE(tree.AnyIntersecting(Rect(0, 0, 10, 10)));
  EXPECT_FALSE(tree.AnyIntersecting(Rect(6, 6, 10, 10)));
  EXPECT_EQ(tree.CollectIntersecting(Rect(0, 0, 10, 10)),
            std::vector<uint64_t>{42});
}

TEST(RTreeTest, BulkLoadMatchesLinearScan) {
  const auto entries = RandomPoints2D(5000, 21);
  const auto tree = FrozenRTree2D::Build(entries);
  ExpectWellFormed(tree);
  Rng rng(77);
  std::vector<Rect> queries;
  for (int q = 0; q < 50; ++q) {
    const double x = rng.NextDoubleInRange(0, 100);
    const double y = rng.NextDoubleInRange(0, 100);
    queries.emplace_back(x, y, x + rng.NextDoubleInRange(0, 20),
                         y + rng.NextDoubleInRange(0, 20));
  }
  ExpectMatchesLinearScan(entries, tree, queries);
}

TEST(RTreeTest, CountIntersecting) {
  const auto entries = RandomPoints2D(1000, 41);
  const auto tree = FrozenRTree2D::Build(entries);
  const Rect query(25, 25, 75, 75);
  EXPECT_EQ(tree.CountIntersecting(query),
            testing::LinearScan(entries, query).size());
}

TEST(RTreeTest, EarlyTerminationStopsVisit) {
  const auto tree = FrozenRTreePoints2D::Build(RandomPoints(1000, 51));
  int visits = 0;
  const bool stopped = tree.ForEachIntersecting(
      Rect(0, 0, 100, 100), [&](const Point2D&, uint64_t) {
        ++visits;
        return visits < 5;
      });
  EXPECT_TRUE(stopped);
  EXPECT_EQ(visits, 5);
}

TEST(RTree3DTest, BoxQueriesMatchLinearScan) {
  const auto entries = RandomBoxes3D(3000, 61);
  const auto tree = FrozenRTree3D::Build(entries);
  ExpectWellFormed(tree);
  Rng rng(62);
  std::vector<Box3D> queries;
  for (int q = 0; q < 40; ++q) {
    const double x = rng.NextDoubleInRange(0, 100);
    const double y = rng.NextDoubleInRange(0, 100);
    const double z = rng.NextDoubleInRange(0, 100);
    queries.emplace_back(x, y, z, x + 15, y + 15, z + 15);
  }
  ExpectMatchesLinearScan(entries, tree, queries);
}

TEST(RTree3DTest, PlaneQueryOverVerticalSegments) {
  // The 3DReach-REV shape: segments at (x, y) spanning z ranges, queried
  // with flat planes. Plane z = 25 cuts the segments with i in [15, 25].
  std::vector<std::pair<Box3D, uint64_t>> entries;
  for (int i = 0; i < 100; ++i) {
    entries.emplace_back(Box3D::VerticalSegment(i, i, i, i + 10),
                         static_cast<uint64_t>(i));
  }
  const auto tree = FrozenRTree3D::Build(entries);
  const Box3D plane = Box3D::FromRectAndInterval(Rect(0, 0, 100, 100), 25, 25);
  std::vector<uint64_t> got = tree.CollectIntersecting(plane);
  std::sort(got.begin(), got.end());
  std::vector<uint64_t> expected;
  for (uint64_t i = 15; i <= 25; ++i) expected.push_back(i);
  EXPECT_EQ(got, expected);
}

TEST(RTreeTest, DuplicatePointsAllSurface) {
  // Identical points, half of them sharing ids: every entry is its own
  // hit, and tiling bitwise-identical entries still packs a valid tree.
  std::vector<std::pair<Point2D, uint64_t>> entries;
  for (uint64_t i = 0; i < 100; ++i) entries.push_back({Point2D{1, 1}, i / 2});
  const auto tree = FrozenRTreePoints2D::Build(entries);
  ExpectWellFormed(tree);
  EXPECT_EQ(tree.CountIntersecting(Rect(0, 0, 2, 2)), 100u);
  ExpectMatchesLinearScan(entries, tree, {Rect(0, 0, 2, 2), Rect(1, 1, 1, 1),
                                          Rect(1.5, 0, 2, 2)});
}

TEST(RTreeTest, SizeBytesGrowsWithContent) {
  const auto small = FrozenRTree2D::Build(RandomPoints2D(100, 81));
  const auto large = FrozenRTree2D::Build(RandomPoints2D(10000, 82));
  EXPECT_GT(large.SizeBytes(), small.SizeBytes());
}

class RTreeParamTest : public ::testing::TestWithParam<size_t> {};

TEST_P(RTreeParamTest, BulkLoadAllSizesQueryExactly) {
  // Sizes around the fanout (31..33) and its square (1023..1025) cross
  // the tile-count and tree-height boundaries.
  const size_t n = GetParam();
  const auto entries = RandomPoints2D(n, 1000 + n);
  const auto tree = FrozenRTree2D::Build(entries);
  ExpectWellFormed(tree);
  EXPECT_EQ(tree.Height() == 1, n <= 32);
  Rng rng(n);
  std::vector<Rect> queries{Rect(20, 20, 55, 55)};
  for (int q = 0; q < 20; ++q) queries.push_back(RandomQueryRect(rng));
  ExpectMatchesLinearScan(entries, tree, queries);
}

INSTANTIATE_TEST_SUITE_P(Sizes, RTreeParamTest,
                         ::testing::Values(1, 2, 31, 32, 33, 100, 1023, 1024,
                                           1025, 4096, 20000));

// --- Point-leaf storage (the replicate-variant representation) ---

TEST(RTreePointsTest, PointLeavesMatchBoxLeaves) {
  // The same data stored as points and as degenerate rectangles must give
  // identical query answers.
  const auto point_entries = RandomPoints(3000, 91);
  const auto points = FrozenRTreePoints2D::Build(point_entries);
  const auto boxes = FrozenRTree2D::Build(RandomPoints2D(3000, 91));
  ExpectWellFormed(points);
  Rng rng(92);
  for (int q = 0; q < 60; ++q) {
    const double x = rng.NextDoubleInRange(0, 90);
    const double y = rng.NextDoubleInRange(0, 90);
    const Rect query(x, y, x + rng.NextDoubleInRange(0, 25),
                     y + rng.NextDoubleInRange(0, 25));
    EXPECT_EQ(points.CollectIntersecting(query),
              boxes.CollectIntersecting(query));
  }
}

TEST(RTreePointsTest, PointStorageIsSmaller) {
  // The point representation is why the paper's non-MBR variant has the
  // smaller index (Section 6.2): 2 doubles per leaf entry instead of 4.
  const auto points = FrozenRTreePoints2D::Build(RandomPoints(20000, 93));
  const auto boxes = FrozenRTree2D::Build(RandomPoints2D(20000, 93));
  EXPECT_LT(points.SizeBytes(), boxes.SizeBytes());
}

TEST(RTreePoints3DTest, CuboidQueries) {
  Rng rng(95);
  std::vector<std::pair<Point3D, uint64_t>> entries;
  for (uint64_t i = 0; i < 5000; ++i) {
    entries.emplace_back(Point3D{rng.NextDoubleInRange(0, 100),
                                 rng.NextDoubleInRange(0, 100),
                                 rng.NextDoubleInRange(0, 1000)},
                         i);
  }
  const auto tree = FrozenRTreePoints3D::Build(entries);
  ExpectWellFormed(tree);
  std::vector<Box3D> queries;
  for (int q = 0; q < 40; ++q) {
    const double x = rng.NextDoubleInRange(0, 80);
    const double y = rng.NextDoubleInRange(0, 80);
    const double z = rng.NextDoubleInRange(0, 800);
    queries.emplace_back(x, y, z, x + 20, y + 20, z + 200);
  }
  ExpectMatchesLinearScan(entries, tree, queries);
}

TEST(RTreePoints3DTest, BoundaryInclusive) {
  const auto tree = FrozenRTreePoints3D::Build({{Point3D{5, 5, 10}, 1}});
  EXPECT_TRUE(tree.AnyIntersecting(Box3D(5, 5, 10, 6, 6, 11)));
  EXPECT_TRUE(tree.AnyIntersecting(Box3D(4, 4, 9, 5, 5, 10)));
  EXPECT_FALSE(tree.AnyIntersecting(Box3D(5.1, 5, 10, 6, 6, 11)));
}

}  // namespace
}  // namespace gsr
