#ifndef GSR_COMMON_SIMD_H_
#define GSR_COMMON_SIMD_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string_view>

namespace gsr {

// The kernel operand types. Only declared here: simd.h sits in the base
// layer, so it must not include geometry/ or labeling/ headers. All four
// are trivially-copyable PODs (see geometry/geometry.h, labeling/
// label_set.h); the kernel TUs include the real definitions.
struct Interval;
struct Rect;
struct Point2D;
struct Box3D;
struct Point3D;

namespace simd {

/// The instruction-set tiers one binary can dispatch between: the
/// portable scalar kernels (the GSR_SIMD=OFF / non-x86-64 path and the
/// AVX2 kernels' oracle) and AVX2. Every kernel computes *exact*
/// predicates (integer/double comparisons only, no arithmetic), so both
/// levels return bit-identical answers — the contract
/// methods_agreement_test enforces per level.
enum class KernelLevel : int {
  kScalar = 0,
  kAvx2 = 1,
};

/// Number of entries one mask-kernel call can report. Callers with wider
/// inputs (R-tree nodes never exceed their fanout of 32, but the layout
/// does not enforce it) chunk their loops — see FrozenRTree.
inline constexpr size_t kMaskWidth = 64;

/// The per-level kernel inventory. All functions are pure and touch only
/// their arguments, so tables are safe to call from any thread.
///
/// Preconditions (shared by every level, matching how the query paths
/// store their data):
///  - interval_contains: `intervals` is sorted by lo and pairwise
///    disjoint (the FlatLabelStore normal form) — at most one interval
///    can contain `value`.
///  - subset64: both filters hold `words` 64-bit words.
///  - *_mask kernels: n <= kMaskWidth; bit i of the result corresponds
///    to entry i, so iterating set bits low-to-high preserves entry
///    order. Arrays need only their natural alignment (unaligned SIMD
///    loads are used throughout).
struct KernelTable {
  KernelLevel level;
  const char* name;

  /// True when some interval of the normalized run contains `value` —
  /// the Lemma 3.1 label probe.
  bool (*interval_contains)(const Interval* intervals, size_t n,
                            uint32_t value);

  /// True when every bit of `sub` is also set in `super` (the BFL
  /// Bloom-label test out(u) ⊇ out(v) / in(v) ⊇ in(u)).
  bool (*subset64)(const uint64_t* super, const uint64_t* sub, size_t words);

  /// Batched Lemma 3.1 probe: bit k set iff some interval of the run
  /// contains values[k] (count <= kMaskWidth). One call answers a whole
  /// candidate list against a fixed label run — the SpaReach-INT shape —
  /// amortizing dispatch and letting the SIMD levels compare 8 candidate
  /// values per instruction instead of 8 intervals.
  uint64_t (*interval_contains_many)(const Interval* intervals, size_t n,
                                     const uint32_t* values, size_t count);

  /// Batched BFL prune test over a CSR neighbor span: bit k set iff
  /// candidate ids[k] SURVIVES both Bloom prunes for target `to`, i.e.
  /// out_to ⊆ out_filters[ids[k]] and in_filters[ids[k]] ⊆ in_to (filters
  /// are `words` 64-bit words at id * words). count <= kMaskWidth. The
  /// fused form halves the per-candidate call overhead of the pruned
  /// DFS, whose hot loop is exactly this span walk.
  uint64_t (*bfl_prune_mask)(const uint64_t* out_filters,
                             const uint64_t* in_filters, size_t words,
                             const uint32_t* ids, size_t count,
                             const uint64_t* out_to, const uint64_t* in_to);

  /// Bit i set iff boxes[i] intersects `query` (Rect::Intersects).
  uint64_t (*rect_intersect_mask)(const Rect* boxes, size_t n,
                                  const Rect& query);

  /// Bit i set iff `query` contains points[i] (Rect::Contains(Point2D)).
  uint64_t (*rect_contains_point_mask)(const Point2D* points, size_t n,
                                       const Rect& query);

  /// Bit i set iff boxes[i] intersects `query` (Box3D::Intersects).
  uint64_t (*box3_intersect_mask)(const Box3D* boxes, size_t n,
                                  const Box3D& query);

  /// Bit i set iff points[i] lies inside `query`.
  uint64_t (*box3_contains_point_mask)(const Point3D* points, size_t n,
                                       const Box3D& query);
};

/// The strongest level this binary+CPU combination can run: the CPUID
/// feature probe clamped by the GSR_SIMD build option (kScalar when the
/// build disabled SIMD or the target is not x86-64).
KernelLevel MaxSupportedLevel();

/// The kernel table for `level`. Levels above MaxSupportedLevel() fall
/// back to the strongest supported table, so the result is always safe
/// to call on this machine.
const KernelTable& Table(KernelLevel level);

/// The active table every query hot path dispatches through. Resolved on
/// first use to MaxSupportedLevel(); tests and benches force another
/// level through ScopedKernelLevel / SetKernelLevelFromString.
inline const KernelTable& Kernels();

KernelLevel ActiveLevel();

/// Forces the active level (clamped to MaxSupportedLevel(); returns the
/// level actually installed). Intended for benches and tests; not for
/// use concurrently with running queries.
KernelLevel SetKernelLevel(KernelLevel level);

/// Parses "scalar" | "avx2" | "native" and installs the level.
/// Returns false (installing nothing) on an unknown name.
bool SetKernelLevelFromString(std::string_view name);

const char* KernelLevelName(KernelLevel level);

/// RAII level override for tests and benches.
class ScopedKernelLevel {
 public:
  explicit ScopedKernelLevel(KernelLevel level)
      : previous_(ActiveLevel()) {
    SetKernelLevel(level);
  }
  ~ScopedKernelLevel() { SetKernelLevel(previous_); }
  ScopedKernelLevel(const ScopedKernelLevel&) = delete;
  ScopedKernelLevel& operator=(const ScopedKernelLevel&) = delete;

 private:
  KernelLevel previous_;
};

namespace internal {
// Set by the dispatcher; read on every query probe. Atomic so TSan
// accepts a bench/test flipping levels between (not during) runs.
extern std::atomic<const KernelTable*> active_table;
const KernelTable& ResolveAndInstallDefault();
}  // namespace internal

inline const KernelTable& Kernels() {
  const KernelTable* table =
      internal::active_table.load(std::memory_order_acquire);
  if (table != nullptr) return *table;
  return internal::ResolveAndInstallDefault();
}

/// Typed dispatch wrappers used by the hot paths. They only forward the
/// (possibly incomplete) operand types, so using them requires the call
/// site to have included the real type definitions anyway.
inline bool IntervalContains(const Interval* intervals, size_t n,
                             uint32_t value) {
  return Kernels().interval_contains(intervals, n, value);
}

inline bool Subset64(const uint64_t* super, const uint64_t* sub,
                     size_t words) {
  return Kernels().subset64(super, sub, words);
}

inline uint64_t IntervalContainsMany(const Interval* intervals, size_t n,
                                     const uint32_t* values, size_t count) {
  return Kernels().interval_contains_many(intervals, n, values, count);
}

inline uint64_t BflPruneMask(const uint64_t* out_filters,
                             const uint64_t* in_filters, size_t words,
                             const uint32_t* ids, size_t count,
                             const uint64_t* out_to, const uint64_t* in_to) {
  return Kernels().bfl_prune_mask(out_filters, in_filters, words, ids, count,
                                  out_to, in_to);
}

inline uint64_t IntersectMask(const Rect& query, const Rect* boxes,
                              size_t n) {
  return Kernels().rect_intersect_mask(boxes, n, query);
}

inline uint64_t IntersectMask(const Rect& query, const Point2D* points,
                              size_t n) {
  return Kernels().rect_contains_point_mask(points, n, query);
}

inline uint64_t IntersectMask(const Box3D& query, const Box3D* boxes,
                              size_t n) {
  return Kernels().box3_intersect_mask(boxes, n, query);
}

inline uint64_t IntersectMask(const Box3D& query, const Point3D* points,
                              size_t n) {
  return Kernels().box3_contains_point_mask(points, n, query);
}

/// Read-prefetch of the cache line at `p`; no-op where unsupported. Used
/// by the FrozenRTree descent to pull the next level while the current
/// node's children are still being tested.
inline void PrefetchRead(const void* p) {
#if defined(__GNUC__) || defined(__clang__)
  __builtin_prefetch(p, /*rw=*/0, /*locality=*/3);
#else
  (void)p;
#endif
}

}  // namespace simd
}  // namespace gsr

#endif  // GSR_COMMON_SIMD_H_
