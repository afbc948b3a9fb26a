#include "graph/spanning_forest.h"

#include <algorithm>

#include "common/check.h"
#include "graph/traversal.h"

namespace gsr {

namespace {

/// One DFS from `root`, claiming unvisited vertices into the forest and
/// assigning post-order numbers through `next_post`.
void DfsFromRoot(const DiGraph& dag, VertexId root, SpanningForest& forest,
                 std::vector<bool>& visited, uint32_t& next_post) {
  struct Frame {
    VertexId v;
    uint32_t edge_pos;
  };
  std::vector<Frame> stack;
  visited[root] = true;
  stack.push_back(Frame{root, 0});

  while (!stack.empty()) {
    Frame& frame = stack.back();
    const VertexId v = frame.v;
    const auto neighbors = dag.OutNeighbors(v);

    if (frame.edge_pos < neighbors.size()) {
      const VertexId w = neighbors[frame.edge_pos++];
      if (!visited[w]) {
        visited[w] = true;
        forest.parent[w] = v;
        stack.push_back(Frame{w, 0});  // Invalidates `frame`.
      } else {
        forest.non_tree_edges.emplace_back(v, w);
      }
      continue;
    }

    // Post-visit: v finishes now.
    forest.post[v] = next_post;
    forest.vertex_of_post[next_post] = v;
    ++next_post;
    // index(v) = min post in subtree; children finished before v.
    uint32_t min_post = forest.post[v];
    for (const VertexId w : neighbors) {
      if (forest.parent[w] == v) {
        min_post = std::min(min_post, forest.min_post_subtree[w]);
      }
    }
    forest.min_post_subtree[v] = min_post;
    stack.pop_back();
  }
}

/// Multi-source BFS claiming parents, then an explicit post-order
/// traversal of the built forest to assign numbers.
void BuildBfsForest(const DiGraph& dag, SpanningForest& forest) {
  const VertexId n = dag.num_vertices();
  std::vector<bool> visited(n, false);

  // Claim parents level by level, one BFS per root (roots found in id
  // order; a later sweep catches non-DAG leftovers).
  std::vector<VertexId> queue;
  auto bfs_from = [&](VertexId root) {
    forest.roots.push_back(root);
    queue.clear();
    queue.push_back(root);
    visited[root] = true;
    for (size_t head = 0; head < queue.size(); ++head) {
      const VertexId v = queue[head];
      for (const VertexId w : dag.OutNeighbors(v)) {
        if (!visited[w]) {
          visited[w] = true;
          forest.parent[w] = v;
          queue.push_back(w);
        } else {
          forest.non_tree_edges.emplace_back(v, w);
        }
      }
    }
  };
  for (VertexId v = 0; v < n; ++v) {
    if (dag.InDegree(v) == 0 && !visited[v]) bfs_from(v);
  }
  for (VertexId v = 0; v < n; ++v) {
    if (!visited[v]) bfs_from(v);
  }

  // Children lists for the explicit post-order traversal.
  std::vector<std::vector<VertexId>> children(n);
  for (VertexId v = 0; v < n; ++v) {
    if (forest.parent[v] != kInvalidVertex) {
      children[forest.parent[v]].push_back(v);
    }
  }

  uint32_t next_post = 1;
  struct Frame {
    VertexId v;
    uint32_t child_pos;
  };
  std::vector<Frame> stack;
  for (const VertexId root : forest.roots) {
    stack.push_back(Frame{root, 0});
    while (!stack.empty()) {
      Frame& frame = stack.back();
      const VertexId v = frame.v;
      if (frame.child_pos < children[v].size()) {
        stack.push_back(Frame{children[v][frame.child_pos++], 0});
        continue;
      }
      forest.post[v] = next_post;
      forest.vertex_of_post[next_post] = v;
      ++next_post;
      uint32_t min_post = forest.post[v];
      for (const VertexId c : children[v]) {
        min_post = std::min(min_post, forest.min_post_subtree[c]);
      }
      forest.min_post_subtree[v] = min_post;
      stack.pop_back();
    }
  }
  GSR_CHECK(next_post == n + 1);
}

}  // namespace

const char* ForestStrategyName(ForestStrategy strategy) {
  return strategy == ForestStrategy::kDfs ? "dfs" : "bfs";
}

uint32_t SpanningForest::MaxDepth() const {
  // Within a tree, a parent's post is larger than all of its descendants',
  // so iterating posts descending sees parents before children.
  std::vector<uint32_t> depth(parent.size(), 0);
  uint32_t max_depth = 0;
  for (uint32_t p = static_cast<uint32_t>(parent.size()); p >= 1; --p) {
    const VertexId v = vertex_of_post[p];
    if (parent[v] != kInvalidVertex) {
      depth[v] = depth[parent[v]] + 1;
      max_depth = std::max(max_depth, depth[v]);
    }
  }
  return max_depth;
}

SpanningForest BuildSpanningForest(const DiGraph& dag,
                                   ForestStrategy strategy) {
  const VertexId n = dag.num_vertices();
  SpanningForest forest;
  forest.parent.assign(n, kInvalidVertex);
  forest.post.assign(n, 0);
  forest.vertex_of_post.assign(static_cast<size_t>(n) + 1, kInvalidVertex);
  forest.min_post_subtree.assign(n, 0);

  if (strategy == ForestStrategy::kDfs) {
    std::vector<bool> visited(n, false);
    uint32_t next_post = 1;
    // Primary roots: vertices with only outgoing edges; then a safety
    // sweep for non-DAG inputs (a vertex on a source-cycle has no
    // zero-in-degree ancestor).
    for (VertexId v = 0; v < n; ++v) {
      if (dag.InDegree(v) == 0 && !visited[v]) {
        forest.roots.push_back(v);
        DfsFromRoot(dag, v, forest, visited, next_post);
      }
    }
    for (VertexId v = 0; v < n; ++v) {
      if (!visited[v]) {
        forest.roots.push_back(v);
        DfsFromRoot(dag, v, forest, visited, next_post);
      }
    }
    GSR_CHECK(next_post == n + 1);

    // DFS invariant: post(u) < post(v) for every edge (v, u), so ascending
    // source post *is* reverse topological order (Algorithm 1, line 20).
    std::sort(forest.non_tree_edges.begin(), forest.non_tree_edges.end(),
              [&forest](const auto& a, const auto& b) {
                if (forest.post[a.first] != forest.post[b.first]) {
                  return forest.post[a.first] < forest.post[b.first];
                }
                return forest.post[a.second] < forest.post[b.second];
              });
    return forest;
  }

  // BFS forest: shallow trees, but the post-order numbers of the forest no
  // longer follow the DAG's edge direction, so the non-tree edges are
  // ordered by an explicit topological sort instead.
  BuildBfsForest(dag, forest);
  const std::vector<VertexId> topo = TopologicalOrder(dag);
  std::vector<uint32_t> topo_pos(n, 0);
  if (!topo.empty()) {
    for (uint32_t i = 0; i < topo.size(); ++i) topo_pos[topo[i]] = i;
  } else {
    // Cyclic input (only possible through the safety sweep): fall back to
    // post order, which at least keeps the pass deterministic.
    for (VertexId v = 0; v < n; ++v) topo_pos[v] = forest.post[v];
  }
  std::sort(forest.non_tree_edges.begin(), forest.non_tree_edges.end(),
            [&topo_pos](const auto& a, const auto& b) {
              if (topo_pos[a.first] != topo_pos[b.first]) {
                return topo_pos[a.first] > topo_pos[b.first];  // Reverse.
              }
              return topo_pos[a.second] > topo_pos[b.second];
            });
  return forest;
}

void SerializeSpanningForest(const SpanningForest& forest, BinaryWriter& w) {
  w.WriteU32(static_cast<uint32_t>(forest.post.size()));
  w.WriteVector(forest.parent);
  w.WriteVector(forest.post);
  w.WriteVector(forest.vertex_of_post);
  w.WriteVector(forest.min_post_subtree);
  w.WriteVector(forest.roots);
}

Result<SpanningForest> DeserializeSpanningForest(BinaryReader& r) {
  uint32_t n = 0;
  GSR_RETURN_IF_ERROR(r.ReadU32(&n));
  SpanningForest forest;
  GSR_RETURN_IF_ERROR(r.ReadVector(&forest.parent));
  GSR_RETURN_IF_ERROR(r.ReadVector(&forest.post));
  GSR_RETURN_IF_ERROR(r.ReadVector(&forest.vertex_of_post));
  GSR_RETURN_IF_ERROR(r.ReadVector(&forest.min_post_subtree));
  GSR_RETURN_IF_ERROR(r.ReadVector(&forest.roots));
  if (forest.parent.size() != n || forest.post.size() != n ||
      forest.min_post_subtree.size() != n ||
      forest.vertex_of_post.size() != (n == 0 ? 0 : n + size_t{1}) ||
      forest.roots.size() > n) {
    return Status::InvalidArgument("spanning forest arrays disagree on size");
  }
  // post and vertex_of_post must be inverse permutations of 1..n, and
  // every parent, subtree start and root in range: queries index arrays
  // with all of them.
  for (uint32_t v = 0; v < n; ++v) {
    const uint32_t post = forest.post[v];
    if (post == 0 || post > n || forest.vertex_of_post[post] != v ||
        (forest.parent[v] != kInvalidVertex && forest.parent[v] >= n) ||
        forest.min_post_subtree[v] == 0 || forest.min_post_subtree[v] > post ||
        (v < forest.roots.size() && forest.roots[v] >= n)) {
      return Status::InvalidArgument("spanning forest arrays out of range");
    }
  }
  return forest;
}

}  // namespace gsr
