#ifndef GSR_LABELING_FELINE_H_
#define GSR_LABELING_FELINE_H_

#include <cstdint>
#include <vector>

#include "common/binary_io.h"
#include "graph/digraph.h"

namespace gsr {

/// Feline reachability index (Veloso et al. [59]), the second scheme the
/// original GeoReach paper pairs with its spatial-first baseline
/// (SpaReach-Feline).
///
/// Every vertex gets two coordinates, each a topological rank computed
/// with an opposite tie-breaking policy so the orders disagree as much as
/// possible. If u reaches v then u dominates v in *both* coordinates, so
/// a non-dominated pair is an instant negative; dominated pairs fall back
/// to a DFS that only expands dominated children (Label+G). Always exact.
///
/// The input must be a DAG and must outlive the index (DFS fallback).
/// The index is immutable after Build; the guided DFS keeps its visited
/// marks and counters in a SearchScratch, so queries run concurrently
/// when each thread passes its own scratch.
class FelineIndex {
 public:
  /// Builds the index over `dag`.
  static FelineIndex Build(const DiGraph* dag);

  /// Writes both coordinate arrays (snapshot layer).
  void SerializeTo(BinaryWriter& w) const;

  /// Restores an index from `r`, rebinding the guided-DFS fallback to
  /// `dag` — which must be the graph the index was built over.
  static Result<FelineIndex> Deserialize(BinaryReader& r, const DiGraph* dag);

  /// Counters observing how queries were answered, accumulated in the
  /// SearchScratch a query runs on.
  struct QueryCounters {
    uint64_t dominance_rejects = 0;  // Answered negatively by coordinates.
    uint64_t dfs_fallbacks = 0;      // Needed the guided DFS.
  };

  /// Per-thread DFS state (epoch-stamped marks + stack) and counters.
  /// Sized lazily on first use.
  struct SearchScratch {
    std::vector<uint32_t> mark;
    std::vector<VertexId> stack;
    uint32_t epoch = 0;
    QueryCounters counters;
  };

  /// True iff `to` is reachable from `from` (reflexive). Touches no index
  /// state except through `scratch`; thread-safe with one per thread.
  bool CanReach(VertexId from, VertexId to, SearchScratch& scratch) const;

  /// The two topological coordinates of v (exposed for tests).
  uint32_t XCoord(VertexId v) const { return x_[v]; }
  uint32_t YCoord(VertexId v) const { return y_[v]; }

  /// Main-memory footprint in bytes.
  size_t SizeBytes() const {
    return sizeof(*this) + (x_.size() + y_.size()) * sizeof(uint32_t);
  }

 private:
  FelineIndex() = default;

  bool Dominates(VertexId u, VertexId v) const {
    return x_[u] <= x_[v] && y_[u] <= y_[v];
  }

  bool GuidedDfs(VertexId from, VertexId to, SearchScratch& scratch) const;

  const DiGraph* dag_ = nullptr;
  std::vector<uint32_t> x_;  // Topological rank, min-id tie-breaking.
  std::vector<uint32_t> y_;  // Topological rank, max-id tie-breaking.
};

}  // namespace gsr

#endif  // GSR_LABELING_FELINE_H_
