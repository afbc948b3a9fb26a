#ifndef GSR_COMMON_SIMD_INTERNAL_H_
#define GSR_COMMON_SIMD_INTERNAL_H_

// Shared pieces of the per-level kernel translation units. Not part of
// the public surface: only simd.cc and simd_kernels_*.cc include this.
//
// The geometry and labeling headers pulled in here define plain PODs
// with inline members only, so depending on them from src/common does
// not create a link-time dependency on the higher-level libraries.

#include <cstddef>
#include <cstdint>

#include "common/simd.h"
#include "geometry/geometry.h"
#include "labeling/label_set.h"

namespace gsr::simd::internal {

/// Branchless lower-bound narrowing over intervals sorted by lo: shrinks
/// [first, first+count) until count <= `window`, preserving the
/// invariant that every interval before `first` has lo <= value and
/// every interval at/after first+count has lo > value. The compiler
/// turns the ternaries into cmov, so the loop has no data-dependent
/// branches.
struct IntervalWindow {
  size_t first = 0;
  size_t count = 0;
};

inline IntervalWindow NarrowToWindow(const Interval* intervals, size_t n,
                                     uint32_t value, size_t window) {
  size_t first = 0;
  size_t count = n;
  while (count > window) {
    const size_t step = count / 2;
    const size_t mid = first + step;
    const bool le = intervals[mid].lo <= value;
    first = le ? mid + 1 : first;
    count = le ? count - step - 1 : step;
  }
  return {first, count};
}

/// The candidate run a containment scan must cover after narrowing: the
/// last interval with lo <= value sits at index final_first - 1 with
/// final_first in [first, first+count], i.e. in [first-1, first+count).
/// Because the run is normalized (sorted + disjoint), no interval
/// outside that range can contain `value`, and scanning a superset range
/// is harmless — containment is exact, so extra candidates never yield
/// false positives.
struct ScanRange {
  size_t begin = 0;
  size_t end = 0;
};

inline ScanRange WindowScanRange(const IntervalWindow& w) {
  return {w.first - (w.first > 0 ? 1 : 0), w.first + w.count};
}

/// Scalar reference kernels; the kScalar table points straight at these,
/// and the SIMD levels reuse them for tails and tiny inputs.

bool IntervalContainsScalar(const Interval* intervals, size_t n,
                            uint32_t value);
bool Subset64Scalar(const uint64_t* super, const uint64_t* sub, size_t words);
uint64_t IntervalContainsManyScalar(const Interval* intervals, size_t n,
                                    const uint32_t* values, size_t count);
uint64_t BflPruneMaskScalar(const uint64_t* out_filters,
                            const uint64_t* in_filters, size_t words,
                            const uint32_t* ids, size_t count,
                            const uint64_t* out_to, const uint64_t* in_to);
uint64_t RectIntersectMaskScalar(const Rect* boxes, size_t n,
                                 const Rect& query);
uint64_t RectContainsPointMaskScalar(const Point2D* points, size_t n,
                                     const Rect& query);
uint64_t Box3IntersectMaskScalar(const Box3D* boxes, size_t n,
                                 const Box3D& query);
uint64_t Box3ContainsPointMaskScalar(const Point3D* points, size_t n,
                                     const Box3D& query);

extern const KernelTable kScalarTable;

#if GSR_SIMD_ENABLED
extern const KernelTable kAvx2Table;
#endif

}  // namespace gsr::simd::internal

#endif  // GSR_COMMON_SIMD_INTERNAL_H_
