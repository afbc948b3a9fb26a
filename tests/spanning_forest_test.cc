#include "graph/spanning_forest.h"

#include <gtest/gtest.h>

#include <cstddef>
#include <functional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "graph/traversal.h"
#include "tests/test_util.h"

namespace gsr {
namespace {

TEST(SpanningForestTest, ChainPostOrder) {
  auto g = DiGraph::FromEdges(3, {{0, 1}, {1, 2}});
  ASSERT_TRUE(g.ok());
  const SpanningForest forest = BuildSpanningForest(*g);
  EXPECT_EQ(forest.roots, std::vector<VertexId>{0});
  EXPECT_EQ(forest.post[2], 1u);
  EXPECT_EQ(forest.post[1], 2u);
  EXPECT_EQ(forest.post[0], 3u);
  EXPECT_EQ(forest.parent[0], kInvalidVertex);
  EXPECT_EQ(forest.parent[1], 0u);
  EXPECT_EQ(forest.parent[2], 1u);
  EXPECT_EQ(forest.min_post_subtree[0], 1u);
  EXPECT_TRUE(forest.non_tree_edges.empty());
}

TEST(SpanningForestTest, MultipleRoots) {
  // Two separate trees: 0 -> 1, 2 -> 3.
  auto g = DiGraph::FromEdges(4, {{0, 1}, {2, 3}});
  ASSERT_TRUE(g.ok());
  const SpanningForest forest = BuildSpanningForest(*g);
  EXPECT_EQ(forest.roots, (std::vector<VertexId>{0, 2}));
  // Posts are globally unique and 1-based.
  std::set<uint32_t> posts(forest.post.begin(), forest.post.end());
  EXPECT_EQ(posts, (std::set<uint32_t>{1, 2, 3, 4}));
}

class SpanningForestRandomTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SpanningForestRandomTest, PostOrderPropertyOnDagEdges) {
  const DiGraph g = testing::RandomDag(300, 3.0, GetParam());
  const SpanningForest forest = BuildSpanningForest(g);
  // The key DAG/DFS invariant Algorithm 1 relies on: every edge (v, u)
  // has post(u) < post(v), so ascending source post = reverse topological.
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    for (const VertexId u : g.OutNeighbors(v)) {
      EXPECT_LT(forest.post[u], forest.post[v]);
    }
  }
}

TEST_P(SpanningForestRandomTest, VertexOfPostIsInverse) {
  const DiGraph g = testing::RandomDag(200, 2.0, GetParam() + 31);
  const SpanningForest forest = BuildSpanningForest(g);
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    EXPECT_EQ(forest.vertex_of_post[forest.post[v]], v);
  }
}

TEST_P(SpanningForestRandomTest, SubtreePostsAreContiguous) {
  const DiGraph g = testing::RandomDag(200, 2.5, GetParam() + 77);
  const SpanningForest forest = BuildSpanningForest(g);
  const VertexId n = g.num_vertices();
  // Collect tree children.
  std::vector<std::vector<VertexId>> children(n);
  for (VertexId v = 0; v < n; ++v) {
    if (forest.parent[v] != kInvalidVertex) {
      children[forest.parent[v]].push_back(v);
    }
  }
  // For each vertex, the posts in its subtree must be exactly
  // [min_post_subtree(v), post(v)].
  for (VertexId v = 0; v < n; ++v) {
    std::set<uint32_t> subtree_posts;
    std::vector<VertexId> stack{v};
    while (!stack.empty()) {
      const VertexId x = stack.back();
      stack.pop_back();
      subtree_posts.insert(forest.post[x]);
      for (const VertexId c : children[x]) stack.push_back(c);
    }
    EXPECT_EQ(*subtree_posts.begin(), forest.min_post_subtree[v]);
    EXPECT_EQ(*subtree_posts.rbegin(), forest.post[v]);
    EXPECT_EQ(subtree_posts.size(),
              forest.post[v] - forest.min_post_subtree[v] + 1);
  }
}

TEST_P(SpanningForestRandomTest, TreePlusNonTreeEqualsAllEdges) {
  const DiGraph g = testing::RandomDag(150, 3.0, GetParam() + 200);
  const SpanningForest forest = BuildSpanningForest(g);
  uint64_t tree_edges = 0;
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    if (forest.parent[v] != kInvalidVertex) {
      EXPECT_TRUE(g.HasEdge(forest.parent[v], v));
      ++tree_edges;
    }
  }
  EXPECT_EQ(tree_edges + forest.non_tree_edges.size(), g.num_edges());
  for (const auto& [v, u] : forest.non_tree_edges) {
    EXPECT_TRUE(g.HasEdge(v, u));
    EXPECT_NE(forest.parent[u], v);
  }
}

TEST_P(SpanningForestRandomTest, NonTreeEdgesSortedBySourcePost) {
  const DiGraph g = testing::RandomDag(150, 4.0, GetParam() + 300);
  const SpanningForest forest = BuildSpanningForest(g);
  for (size_t i = 1; i < forest.non_tree_edges.size(); ++i) {
    EXPECT_LE(forest.post[forest.non_tree_edges[i - 1].first],
              forest.post[forest.non_tree_edges[i].first]);
  }
}

TEST_P(SpanningForestRandomTest, IsAncestorOrSelf) {
  const DiGraph g = testing::RandomDag(100, 2.0, GetParam() + 400);
  const SpanningForest forest = BuildSpanningForest(g);
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    EXPECT_TRUE(forest.IsAncestorOrSelf(v, v));
    // Walk up the parent chain: all must report ancestry.
    for (VertexId w = forest.parent[v]; w != kInvalidVertex;
         w = forest.parent[w]) {
      EXPECT_TRUE(forest.IsAncestorOrSelf(w, v));
      EXPECT_FALSE(forest.IsAncestorOrSelf(v, w));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SpanningForestRandomTest,
                         ::testing::Values(1, 2, 3, 4, 5));

class BfsForestTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(BfsForestTest, SubtreeContiguityHoldsForBfsForests) {
  const DiGraph g = testing::RandomDag(200, 2.5, GetParam() + 900);
  const SpanningForest forest =
      BuildSpanningForest(g, ForestStrategy::kBfs);
  const VertexId n = g.num_vertices();
  // Posts are a permutation of 1..n.
  std::set<uint32_t> posts(forest.post.begin(), forest.post.end());
  EXPECT_EQ(posts.size(), n);
  EXPECT_EQ(*posts.begin(), 1u);
  EXPECT_EQ(*posts.rbegin(), n);
  // Subtree contiguity (the property the tree labels rely on) holds for
  // any forest numbered by a post-order traversal.
  std::vector<std::vector<VertexId>> children(n);
  for (VertexId v = 0; v < n; ++v) {
    if (forest.parent[v] != kInvalidVertex) {
      children[forest.parent[v]].push_back(v);
    }
  }
  for (VertexId v = 0; v < n; v += 3) {
    std::set<uint32_t> subtree_posts;
    std::vector<VertexId> stack{v};
    while (!stack.empty()) {
      const VertexId x = stack.back();
      stack.pop_back();
      subtree_posts.insert(forest.post[x]);
      for (const VertexId c : children[x]) stack.push_back(c);
    }
    EXPECT_EQ(*subtree_posts.begin(), forest.min_post_subtree[v]);
    EXPECT_EQ(*subtree_posts.rbegin(), forest.post[v]);
    EXPECT_EQ(subtree_posts.size(),
              forest.post[v] - forest.min_post_subtree[v] + 1);
  }
}

TEST_P(BfsForestTest, NonTreeEdgesInReverseTopologicalOrder) {
  const DiGraph g = testing::RandomDag(150, 3.5, GetParam() + 950);
  const SpanningForest forest =
      BuildSpanningForest(g, ForestStrategy::kBfs);
  const auto topo = TopologicalOrder(g);
  std::vector<uint32_t> pos(g.num_vertices());
  for (uint32_t i = 0; i < topo.size(); ++i) pos[topo[i]] = i;
  for (size_t i = 1; i < forest.non_tree_edges.size(); ++i) {
    EXPECT_GE(pos[forest.non_tree_edges[i - 1].first],
              pos[forest.non_tree_edges[i].first]);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BfsForestTest, ::testing::Values(1, 2, 3, 4));

TEST(BfsForestTest, BfsForestsAreShallower) {
  // A long chain plus shortcut edges from the root: DFS follows the chain
  // (depth ~ n), BFS takes the shortcuts (depth 1-2).
  GraphBuilder builder;
  const VertexId n = 200;
  for (VertexId v = 0; v + 1 < n; ++v) builder.AddEdge(v, v + 1);
  for (VertexId v = 2; v < n; v += 2) builder.AddEdge(0, v);
  auto g = builder.Build();
  ASSERT_TRUE(g.ok());
  const SpanningForest dfs = BuildSpanningForest(*g, ForestStrategy::kDfs);
  const SpanningForest bfs = BuildSpanningForest(*g, ForestStrategy::kBfs);
  EXPECT_LT(bfs.MaxDepth(), dfs.MaxDepth());
  EXPECT_EQ(dfs.MaxDepth(), n - 1);
}

TEST(SpanningForestTest, MaxDepthChain) {
  auto g = DiGraph::FromEdges(4, {{0, 1}, {1, 2}, {2, 3}});
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(BuildSpanningForest(*g).MaxDepth(), 3u);
  auto isolated = DiGraph::FromEdges(3, {});
  ASSERT_TRUE(isolated.ok());
  EXPECT_EQ(BuildSpanningForest(*isolated).MaxDepth(), 0u);
}

TEST(ForestStrategyTest, Names) {
  EXPECT_STREQ(ForestStrategyName(ForestStrategy::kDfs), "dfs");
  EXPECT_STREQ(ForestStrategyName(ForestStrategy::kBfs), "bfs");
}

TEST(SpanningForestTest, DeserializeRejectsOutOfRangeArrays) {
  // A forest loads only when post and vertex_of_post are inverse
  // permutations of 1..n and every parent, subtree start and root is in
  // range; each forgery below breaks one of these, the control none.
  const DiGraph g = testing::RandomDag(50, 2.0, 7);
  const SpanningForest built = BuildSpanningForest(g);
  const auto load = [](const SpanningForest& forest) {
    BinaryWriter w;
    SerializeSpanningForest(forest, w);
    const std::vector<std::byte> bytes = w.TakeBytes();
    BinaryReader r(bytes);
    return DeserializeSpanningForest(r).ok();
  };
  EXPECT_TRUE(load(built));
  const uint32_t n = static_cast<uint32_t>(built.post.size());
  const std::vector<std::pair<std::string,
                              std::function<void(SpanningForest&)>>>
      forgeries = {
          {"post past n", [n](SpanningForest& f) { f.post[3] = n + 1; }},
          {"post zero", [](SpanningForest& f) { f.post[3] = 0; }},
          {"posts not inverse",
           [](SpanningForest& f) { std::swap(f.post[3], f.post[4]); }},
          {"vertex_of_post past n",
           [n](SpanningForest& f) { f.vertex_of_post[1] = n + 9; }},
          {"parent past n", [n](SpanningForest& f) { f.parent[3] = n; }},
          {"subtree past post",
           [](SpanningForest& f) { f.min_post_subtree[3] = f.post[3] + 1; }},
          {"root past n", [n](SpanningForest& f) { f.roots[0] = n; }},
      };
  for (const auto& [what, forge] : forgeries) {
    SpanningForest forest = built;
    forge(forest);
    EXPECT_FALSE(load(forest)) << what;
  }
}

TEST(SpanningForestTest, RootsCoverZeroInDegreeVertices) {
  const DiGraph g = testing::RandomDag(300, 2.0, 99);
  const SpanningForest forest = BuildSpanningForest(g);
  std::set<VertexId> roots(forest.roots.begin(), forest.roots.end());
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    if (g.InDegree(v) == 0) {
      EXPECT_TRUE(roots.count(v)) << "zero-in-degree vertex not a root";
      EXPECT_EQ(forest.parent[v], kInvalidVertex);
    }
  }
}

}  // namespace
}  // namespace gsr
