#ifndef GSR_LABELING_BFL_H_
#define GSR_LABELING_BFL_H_

#include <cstdint>
#include <vector>

#include "common/binary_io.h"
#include "graph/digraph.h"
#include "graph/spanning_forest.h"

namespace gsr {

/// Bloom-Filter Labeling (Su et al., "Reachability Querying: Can It Be
/// Even Faster?"), the Label+G reachability scheme the paper picks for its
/// strongest spatial-first baseline, SpaReach-BFL.
///
/// Every vertex carries
///  - a spanning-tree interval [min_post_subtree, post] for O(1) positive
///    answers on tree descendants,
///  - a Bloom filter of the hashed *out-set* (vertices it can reach) and
///    one of the hashed *in-set* (vertices that reach it), merged over the
///    DAG in (reverse) topological order, for O(s) negative answers:
///    if u reaches v then out(u) ⊇ out(v) and in(v) ⊇ in(u).
/// When neither label decides, a DFS pruned by the same two tests resolves
/// the query exactly, so BFL is always correct.
///
/// The input must be a DAG. The index itself is immutable after Build;
/// the Label+G DFS keeps its visited marks and counters in a
/// SearchScratch, so queries run concurrently when each thread passes its
/// own scratch.
class BflIndex {
 public:
  struct Options {
    /// Bloom filter width in 64-bit words (s = 64 * filter_words bits).
    /// BFL's recommended setting is a few hundred bits.
    uint32_t filter_words = 4;
  };

  /// Counters for observing how queries were answered (used by tests to
  /// confirm the filters actually prune). They accumulate in the
  /// SearchScratch a query runs on.
  struct QueryCounters {
    uint64_t tree_hits = 0;       // answered by the tree interval
    uint64_t filter_rejects = 0;  // answered negatively by a Bloom test
    uint64_t dfs_fallbacks = 0;   // needed the pruned DFS
  };

  /// Per-thread DFS state (epoch-stamped marks + stack) and counters.
  /// Sized lazily on first use, so a default-constructed scratch works for
  /// any index.
  struct SearchScratch {
    std::vector<uint32_t> mark;
    std::vector<VertexId> stack;
    uint32_t epoch = 0;
    QueryCounters counters;
  };

  /// Builds the index over `dag`, which must outlive the index (the DFS
  /// fallback of the Label+G scheme traverses it).
  static BflIndex Build(const DiGraph* dag, const Options& options);
  static BflIndex Build(const DiGraph* dag) { return Build(dag, Options{}); }

  /// Writes the filter width, spanning forest and both filter arrays
  /// (snapshot layer). The DAG itself is not persisted.
  void SerializeTo(BinaryWriter& w) const;

  /// Restores an index from `r`, rebinding the Label+G DFS fallback to
  /// `dag` — which must be the graph the index was built over (the caller,
  /// e.g. the method snapshot loader, validates that via the snapshot's
  /// dataset fingerprint).
  static Result<BflIndex> Deserialize(BinaryReader& r, const DiGraph* dag);

  /// True iff `to` is reachable from `from` (reflexive: CanReach(v,v)).
  /// Touches no index state except through `scratch`; thread-safe with
  /// one scratch per thread.
  bool CanReach(VertexId from, VertexId to, SearchScratch& scratch) const;

  /// Main-memory footprint in bytes.
  size_t SizeBytes() const;

 private:
  BflIndex() = default;

  /// True when every bit of filter `b` is also set in filter `a`
  /// (a ⊇ b over the hashed sets).
  bool FilterContains(const std::vector<uint64_t>& filters, VertexId a,
                      VertexId b) const;

  /// Tree-interval test: is `to` in the spanning subtree of `from`?
  bool InSubtree(VertexId from, VertexId to) const {
    return forest_.min_post_subtree[from] <= forest_.post[to] &&
           forest_.post[to] <= forest_.post[from];
  }

  bool PrunedDfs(VertexId from, VertexId to, SearchScratch& scratch) const;

  uint32_t filter_words_ = 4;
  const DiGraph* dag_ = nullptr;  // For the DFS fallback (Label+G).
  SpanningForest forest_;
  std::vector<uint64_t> out_filters_;  // n * filter_words_
  std::vector<uint64_t> in_filters_;   // n * filter_words_
};

}  // namespace gsr

#endif  // GSR_LABELING_BFL_H_
