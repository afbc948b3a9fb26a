#include "labeling/bfl.h"

#include <gtest/gtest.h>

#include "graph/traversal.h"
#include "tests/test_util.h"

namespace gsr {
namespace {

TEST(BflTest, ChainGraph) {
  auto g = DiGraph::FromEdges(5, {{0, 1}, {1, 2}, {2, 3}, {3, 4}});
  ASSERT_TRUE(g.ok());
  const BflIndex index = BflIndex::Build(&*g);
  BflIndex::SearchScratch scratch;
  for (VertexId v = 0; v < 5; ++v) {
    for (VertexId u = 0; u < 5; ++u) {
      EXPECT_EQ(index.CanReach(v, u, scratch), v <= u);
    }
  }
}

TEST(BflTest, SelfReachable) {
  const DiGraph g = testing::RandomDag(40, 2.0, 3);
  const BflIndex index = BflIndex::Build(&g);
  BflIndex::SearchScratch scratch;
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    EXPECT_TRUE(index.CanReach(v, v, scratch));
  }
}

class BflRandomTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(BflRandomTest, MatchesBfsExhaustively) {
  const DiGraph g = testing::RandomDag(120, 3.0, GetParam());
  const BflIndex index = BflIndex::Build(&g);
  BflIndex::SearchScratch scratch;
  BfsTraversal bfs(&g);
  for (VertexId v = 0; v < g.num_vertices(); v += 2) {
    for (VertexId u = 0; u < g.num_vertices(); ++u) {
      ASSERT_EQ(index.CanReach(v, u, scratch), bfs.CanReach(v, u))
          << "GReach(" << v << ", " << u << ")";
    }
  }
}

TEST_P(BflRandomTest, SmallFiltersStayCorrect) {
  // Tiny Bloom filters force DFS fallbacks; correctness must not depend on
  // filter width (Label+G property).
  BflIndex::Options options;
  options.filter_words = 1;
  const DiGraph g = testing::RandomDag(100, 4.0, GetParam() + 11);
  const BflIndex index = BflIndex::Build(&g, options);
  BflIndex::SearchScratch scratch;
  BfsTraversal bfs(&g);
  for (VertexId v = 0; v < g.num_vertices(); v += 3) {
    for (VertexId u = 0; u < g.num_vertices(); u += 2) {
      ASSERT_EQ(index.CanReach(v, u, scratch), bfs.CanReach(v, u));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BflRandomTest,
                         ::testing::Values(1, 2, 3, 4, 5));

TEST(BflTest, CountersShowFilterPruning) {
  const DiGraph g = testing::RandomDag(500, 2.0, 31);
  const BflIndex index = BflIndex::Build(&g);
  BflIndex::SearchScratch scratch;
  uint64_t queries = 0;
  for (VertexId v = 0; v < g.num_vertices(); v += 7) {
    for (VertexId u = 0; u < g.num_vertices(); u += 11) {
      index.CanReach(v, u, scratch);
      ++queries;
    }
  }
  const auto& counters = scratch.counters;
  EXPECT_EQ(counters.tree_hits + counters.filter_rejects +
                counters.dfs_fallbacks,
            queries);
  // On a sparse random DAG most pairs are unreachable and the Bloom
  // filters should reject a large share without any traversal.
  EXPECT_GT(counters.filter_rejects, queries / 2);
}

TEST(BflTest, WideFiltersReduceDfsFallbacks) {
  const DiGraph g = testing::RandomDag(400, 3.0, 41);
  BflIndex::Options narrow;
  narrow.filter_words = 1;
  BflIndex::Options wide;
  wide.filter_words = 8;
  const BflIndex a = BflIndex::Build(&g, narrow);
  const BflIndex b = BflIndex::Build(&g, wide);
  BflIndex::SearchScratch scratch_a;
  BflIndex::SearchScratch scratch_b;
  for (VertexId v = 0; v < g.num_vertices(); v += 3) {
    for (VertexId u = 0; u < g.num_vertices(); u += 5) {
      a.CanReach(v, u, scratch_a);
      b.CanReach(v, u, scratch_b);
    }
  }
  EXPECT_LE(scratch_b.counters.dfs_fallbacks,
            scratch_a.counters.dfs_fallbacks);
  EXPECT_GT(b.SizeBytes(), a.SizeBytes());
}

TEST(BflTest, EmptyGraph) {
  auto g = DiGraph::FromEdges(0, {});
  ASSERT_TRUE(g.ok());
  const BflIndex index = BflIndex::Build(&*g);
  EXPECT_GT(index.SizeBytes(), 0u);
}

}  // namespace
}  // namespace gsr
