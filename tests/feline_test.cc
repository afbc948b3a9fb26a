#include "labeling/feline.h"

#include <gtest/gtest.h>

#include "graph/traversal.h"
#include "tests/test_util.h"

namespace gsr {
namespace {

TEST(FelineTest, ChainGraph) {
  auto g = DiGraph::FromEdges(5, {{0, 1}, {1, 2}, {2, 3}, {3, 4}});
  ASSERT_TRUE(g.ok());
  const FelineIndex index = FelineIndex::Build(&*g);
  FelineIndex::SearchScratch scratch;
  for (VertexId v = 0; v < 5; ++v) {
    for (VertexId u = 0; u < 5; ++u) {
      EXPECT_EQ(index.CanReach(v, u, scratch), v <= u) << v << " -> " << u;
    }
  }
}

TEST(FelineTest, CoordinatesAreTopological) {
  const DiGraph g = testing::RandomDag(200, 3.0, 3);
  const FelineIndex index = FelineIndex::Build(&g);
  // Both coordinates must respect every edge: reachability implies
  // dominance (the property the negative test relies on).
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    for (const VertexId w : g.OutNeighbors(v)) {
      EXPECT_LT(index.XCoord(v), index.XCoord(w));
      EXPECT_LT(index.YCoord(v), index.YCoord(w));
    }
  }
}

TEST(FelineTest, OrdersDisagreeOnIncomparableVertices) {
  // Two parallel chains: the two tie-breaking policies must order them
  // differently somewhere, or Feline would filter nothing.
  auto g = DiGraph::FromEdges(6, {{0, 1}, {1, 2}, {3, 4}, {4, 5}});
  ASSERT_TRUE(g.ok());
  const FelineIndex index = FelineIndex::Build(&*g);
  bool any_disagreement = false;
  for (VertexId a = 0; a < 6 && !any_disagreement; ++a) {
    for (VertexId b = 0; b < 6; ++b) {
      if ((index.XCoord(a) < index.XCoord(b)) !=
          (index.YCoord(a) < index.YCoord(b))) {
        any_disagreement = true;
        break;
      }
    }
  }
  EXPECT_TRUE(any_disagreement);
}

class FelineRandomTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(FelineRandomTest, MatchesBfsExhaustively) {
  const DiGraph g = testing::RandomDag(120, 3.0, GetParam());
  const FelineIndex index = FelineIndex::Build(&g);
  FelineIndex::SearchScratch scratch;
  BfsTraversal bfs(&g);
  for (VertexId v = 0; v < g.num_vertices(); v += 2) {
    for (VertexId u = 0; u < g.num_vertices(); ++u) {
      ASSERT_EQ(index.CanReach(v, u, scratch), bfs.CanReach(v, u))
          << "GReach(" << v << ", " << u << ")";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FelineRandomTest,
                         ::testing::Values(1, 2, 3, 4, 5));

TEST(FelineTest, DominanceFiltersUnreachablePairs) {
  const DiGraph g = testing::RandomDag(400, 1.5, 11);
  const FelineIndex index = FelineIndex::Build(&g);
  FelineIndex::SearchScratch scratch;
  uint64_t negatives = 0;
  BfsTraversal bfs(&g);
  for (VertexId v = 0; v < g.num_vertices(); v += 7) {
    for (VertexId u = 0; u < g.num_vertices(); u += 11) {
      if (!index.CanReach(v, u, scratch)) ++negatives;
    }
  }
  // On a sparse DAG most pairs are incomparable; the coordinate test must
  // resolve a solid share of them without any DFS.
  EXPECT_GT(scratch.counters.dominance_rejects, negatives / 3);
}

TEST(FelineTest, SelfReachable) {
  const DiGraph g = testing::RandomDag(50, 2.0, 13);
  const FelineIndex index = FelineIndex::Build(&g);
  FelineIndex::SearchScratch scratch;
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    EXPECT_TRUE(index.CanReach(v, v, scratch));
  }
}

}  // namespace
}  // namespace gsr
