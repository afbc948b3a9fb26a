#ifndef GSR_TESTS_RTREE_TEST_UTIL_H_
#define GSR_TESTS_RTREE_TEST_UTIL_H_

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "common/binary_io.h"
#include "common/rng.h"
#include "spatial/frozen_rtree.h"

/// Shared fixtures for the R-tree tests: random inputs, the brute-force
/// linear-scan reference answer, and a structural check of a built tree
/// read back through its serialized arrays.

namespace gsr::testing {

inline std::vector<std::pair<Point2D, uint64_t>> RandomPoints(size_t n,
                                                              uint64_t seed) {
  Rng rng(seed);
  std::vector<std::pair<Point2D, uint64_t>> entries;
  entries.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    entries.emplace_back(Point2D{rng.NextDoubleInRange(0, 100),
                                 rng.NextDoubleInRange(0, 100)},
                         static_cast<uint64_t>(i));
  }
  return entries;
}

inline std::vector<std::pair<Box3D, uint64_t>> RandomSegments(size_t n,
                                                              uint64_t seed) {
  Rng rng(seed);
  std::vector<std::pair<Box3D, uint64_t>> entries;
  entries.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    const double z_lo = rng.NextDoubleInRange(0, 50);
    entries.emplace_back(
        Box3D::VerticalSegment(rng.NextDoubleInRange(0, 100),
                               rng.NextDoubleInRange(0, 100), z_lo,
                               z_lo + rng.NextDoubleInRange(0, 50)),
        static_cast<uint64_t>(i));
  }
  return entries;
}

inline Rect RandomQueryRect(Rng& rng) {
  const double x = rng.NextDoubleInRange(-10, 100);
  const double y = rng.NextDoubleInRange(-10, 100);
  return Rect(x, y, x + rng.NextDoubleInRange(0, 40),
              y + rng.NextDoubleInRange(0, 40));
}

inline std::vector<Box3D> RandomQueryBoxes(Rng& rng, int n) {
  std::vector<Box3D> queries;
  for (int q = 0; q < n; ++q) {
    queries.push_back(Box3D::FromRectAndInterval(
        RandomQueryRect(rng), rng.NextDoubleInRange(0, 50),
        rng.NextDoubleInRange(50, 100)));
  }
  return queries;
}

/// Reference answer: ids of every input entry intersecting `query`, by
/// linear scan, sorted (ids may repeat).
template <typename BoxT, typename LeafT>
std::vector<uint64_t> LinearScan(
    const std::vector<std::pair<LeafT, uint64_t>>& entries,
    const BoxT& query) {
  std::vector<uint64_t> ids;
  for (const auto& [geom, id] : entries) {
    if (GeomIntersects(query, geom)) ids.push_back(id);
  }
  std::sort(ids.begin(), ids.end());
  return ids;
}

template <typename BoxT, typename LeafT>
void ExpectMatchesLinearScan(
    const std::vector<std::pair<LeafT, uint64_t>>& entries,
    const FrozenRTree<BoxT, LeafT>& tree, const std::vector<BoxT>& queries) {
  EXPECT_EQ(tree.size(), entries.size());
  EXPECT_EQ(tree.SizeBytes() > 0, !entries.empty());
  for (const BoxT& query : queries) {
    const std::vector<uint64_t> expected = LinearScan(entries, query);
    std::vector<uint64_t> got = tree.CollectIntersecting(query);
    EXPECT_EQ(tree.CountIntersecting(query), got.size());
    EXPECT_EQ(tree.AnyIntersecting(query), !expected.empty());
    std::sort(got.begin(), got.end());
    EXPECT_EQ(got, expected);
  }
}

/// Structural check through the serialized arrays: node 0 is the root,
/// nodes hold 1..32 entries, every leaf sits at depth Height(), and each
/// node's MBR is exactly the union of its entries' boxes — which is also
/// the box its parent stores for it.
template <typename BoxT, typename LeafT>
void ExpectWellFormed(const FrozenRTree<BoxT, LeafT>& tree) {
  using Node = typename FrozenRTree<BoxT, LeafT>::Node;
  BinaryWriter writer;
  tree.SerializeTo(writer);
  BinaryReader reader(writer.bytes());
  uint64_t size = 0;
  int32_t height = 0;
  std::span<const Node> nodes;
  std::span<const BoxT> child_boxes;
  std::span<const uint32_t> child_nodes;
  std::span<const LeafT> leaf_geoms;
  std::span<const uint64_t> leaf_ids;
  ASSERT_TRUE(reader.ReadU64(&size).ok());
  ASSERT_TRUE(reader.ReadI32(&height).ok());
  ASSERT_TRUE(reader.ReadArrayView(&nodes).ok());
  ASSERT_TRUE(reader.ReadArrayView(&child_boxes).ok());
  ASSERT_TRUE(reader.ReadArrayView(&child_nodes).ok());
  ASSERT_TRUE(reader.ReadArrayView(&leaf_geoms).ok());
  ASSERT_TRUE(reader.ReadArrayView(&leaf_ids).ok());
  if (size == 0) {
    EXPECT_EQ(height, 0);
    EXPECT_TRUE(nodes.empty());
    return;
  }
  std::vector<int> depth(nodes.size(), 0);
  depth[0] = 1;
  for (size_t i = 0; i < nodes.size(); ++i) {
    const Node& node = nodes[i];
    ASSERT_GE(node.count, 1u) << "node " << i;
    ASSERT_LE(node.count, 32u) << "node " << i;
    BoxT mbr;
    for (uint32_t e = node.first; e < node.first + node.count; ++e) {
      if (node.is_leaf) {
        mbr.Expand(GeomToBox(leaf_geoms[e]));
      } else {
        mbr.Expand(child_boxes[e]);
        EXPECT_EQ(child_boxes[e], nodes[child_nodes[e]].mbr);
        depth[child_nodes[e]] = depth[i] + 1;
      }
    }
    EXPECT_EQ(mbr, node.mbr) << "node " << i;
    if (node.is_leaf) {
      EXPECT_EQ(depth[i], height) << "leaf " << i;
    }
  }
}

}  // namespace gsr::testing

#endif  // GSR_TESTS_RTREE_TEST_UTIL_H_
