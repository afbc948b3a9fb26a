#ifndef GSR_CORE_RESULT_SINK_H_
#define GSR_CORE_RESULT_SINK_H_

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "graph/digraph.h"

namespace gsr {

/// What a RangeReach evaluation is asked to produce. Every kind answers
/// over the same set — the distinct spatial vertices reachable from the
/// query vertex whose points lie inside the region — but delivers a
/// different projection of it.
enum class QueryKind : uint8_t {
  kBool = 0,   // Is the set non-empty? (the paper's RangeReach)
  kCount = 1,  // |set| (RangeReachCount)
  kEnum = 2,   // The set itself, sorted ascending (RangeReachEnum)
};

/// Returns "bool", "count" or "enum".
inline const char* QueryKindName(QueryKind kind) {
  switch (kind) {
    case QueryKind::kBool:
      return "bool";
    case QueryKind::kCount:
      return "count";
    case QueryKind::kEnum:
      return "enum";
  }
  return "?";
}

/// Where a collection-mode evaluation delivers its result vertices.
///
/// A sink is a small concrete value (no virtual dispatch on the hot
/// Add path): the kind selects between short-circuiting boolean
/// semantics, pure counting, and collecting into a caller-owned arena
/// vector — so enum queries reuse the caller's capacity instead of
/// allocating per query.
///
/// Producer contract: methods Add() every qualifying vertex *exactly
/// once* (they dedup via disjoint interval labels or component seen
/// marks); the sink does not dedup. Delivery order is unspecified —
/// callers obtain the canonical ascending order with Finalize().
class ResultSink {
 public:
  /// Default-constructed sinks are boolean; real sinks come from the
  /// factories below (needed so arrays of sinks can be stack-allocated).
  ResultSink() : ResultSink(QueryKind::kBool, nullptr) {}

  /// Existence sink: done after the first hit.
  static ResultSink Bool() { return ResultSink(QueryKind::kBool, nullptr); }

  /// Counting sink: counts hits, stores nothing.
  static ResultSink Count() { return ResultSink(QueryKind::kCount, nullptr); }

  /// Collecting sink appending to `*arena`, which the caller owns and
  /// which must outlive the sink. The arena is cleared here so steady
  /// state reuses its capacity.
  static ResultSink Enum(std::vector<VertexId>* arena) {
    arena->clear();
    return ResultSink(QueryKind::kEnum, arena);
  }

  QueryKind kind() const { return kind_; }

  /// Delivers one result vertex. Returns false once the sink needs
  /// nothing further (a boolean sink after its first hit); counting and
  /// collecting sinks always want more.
  bool Add(VertexId v) {
    ++count_;
    if (arena_ != nullptr) arena_->push_back(v);
    return kind_ != QueryKind::kBool;
  }

  /// Boolean-path shortcut: records existence without naming a witness
  /// (the boolean evaluators never materialize one).
  void MarkFound() { count_ = 1; }

  /// True when the evaluation may stop early — only ever for a
  /// satisfied boolean sink; count/enum must see every result.
  bool done() const { return kind_ == QueryKind::kBool && count_ != 0; }

  bool found() const { return count_ != 0; }
  uint64_t count() const { return count_; }

  /// Puts the enum arena into the canonical ascending order. Idempotent;
  /// no-op for bool/count sinks. Dense results (at least 64 ids, and at
  /// most 4 bitmap words per id up to the largest one) are ordered by
  /// marking a word bitmap and scanning it; small or sparse ones are
  /// sorted. Aborts when the arena holds a duplicate id (a broken
  /// producer contract), which the bitmap would otherwise drop silently.
  void Finalize();

  /// The collected vertices (enum sinks; empty otherwise).
  std::span<const VertexId> vertices() const {
    return arena_ != nullptr ? std::span<const VertexId>(*arena_)
                             : std::span<const VertexId>();
  }

 private:
  ResultSink(QueryKind kind, std::vector<VertexId>* arena)
      : kind_(kind), arena_(arena) {}

  QueryKind kind_;
  std::vector<VertexId>* arena_;
  uint64_t count_ = 0;
};

/// Epoch-stamped "already emitted?" marks over dense uint32 keys
/// (component ids in practice). Collection paths visit the same
/// component through many index entries (replicated points, overlapping
/// labels) but must Add() its members once; these marks make the dedup
/// test O(1) with an O(1) per-query reset — the same generation idiom
/// the traversal and probe memos use.
class SeenMarks {
 public:
  /// Starts a fresh pass over keys in [0, num_keys). Grows lazily;
  /// resetting is a generation bump, not a clear.
  void BeginPass(size_t num_keys) {
    if (epoch_.size() < num_keys) epoch_.resize(num_keys, 0);
    if (++gen_ == 0) {  // Wrapped: stale stamps could alias, clear once.
      std::fill(epoch_.begin(), epoch_.end(), 0u);
      gen_ = 1;
    }
  }

  /// True when `key` was not yet seen this pass (and marks it seen).
  bool TestAndSet(uint32_t key) {
    if (epoch_[key] == gen_) return false;
    epoch_[key] = gen_;
    return true;
  }

 private:
  std::vector<uint32_t> epoch_;
  uint32_t gen_ = 0;
};

/// Per-(group slot, key) seen marks for grouped collection: one 64-bit
/// emitted mask per key — slot k of a shared-work group owns bit k —
/// epoch-stamped so a pass reset stays O(1). Grouped kernels deliver
/// (slot, component) hits in an interleaved order; this answers "has
/// slot k already emitted component c?" without per-slot mark arrays.
class GroupSeenMarks {
 public:
  void BeginPass(size_t num_keys) {
    if (epoch_.size() < num_keys) {
      epoch_.resize(num_keys, 0);
      bits_.resize(num_keys, 0);
    }
    if (++gen_ == 0) {
      std::fill(epoch_.begin(), epoch_.end(), 0u);
      gen_ = 1;
    }
  }

  /// True when slot `k` (< 64) had not yet seen `key` (and marks it).
  bool TestAndSet(uint32_t key, unsigned k) {
    if (epoch_[key] != gen_) {
      epoch_[key] = gen_;
      bits_[key] = 0;
    }
    const uint64_t bit = uint64_t{1} << k;
    if ((bits_[key] & bit) != 0) return false;
    bits_[key] |= bit;
    return true;
  }

 private:
  std::vector<uint64_t> bits_;
  std::vector<uint32_t> epoch_;
  uint32_t gen_ = 0;
};

}  // namespace gsr

#endif  // GSR_CORE_RESULT_SINK_H_
