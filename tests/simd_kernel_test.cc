#include "common/simd.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "geometry/geometry.h"
#include "labeling/label_set.h"

namespace gsr {
namespace {

/// Every kernel level must return bit-identical answers to a naive
/// reference on every input shape, in particular the awkward widths a
/// vector loop mishandles first: 0, 1, tails just below/at/above the
/// vector width, and arrays starting at odd (unaligned) offsets.

using simd::KernelLevel;
using simd::KernelTable;

std::vector<KernelLevel> SupportedLevels() {
  std::vector<KernelLevel> levels = {KernelLevel::kScalar};
  if (simd::MaxSupportedLevel() >= KernelLevel::kAvx2) {
    levels.push_back(KernelLevel::kAvx2);
  }
  return levels;
}

// The widths vector kernels get wrong first: empty, single, one below /
// at / above each vector width, and the mask-width cap.
constexpr size_t kWidths[] = {0, 1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 31, 32, 33, 63, 64};

/// Naive references, deliberately written with the dumbest possible
/// loops so they share no structure with the kernels under test.

bool NaiveIntervalContains(const std::vector<Interval>& intervals,
                           uint32_t value) {
  for (const Interval& interval : intervals) {
    if (interval.lo <= value && value <= interval.hi) return true;
  }
  return false;
}

bool NaiveSubset(const std::vector<uint64_t>& super,
                 const std::vector<uint64_t>& sub) {
  for (size_t w = 0; w < sub.size(); ++w) {
    if ((sub[w] & ~super[w]) != 0) return false;
  }
  return true;
}

template <typename GeomT, typename QueryT, typename PredT>
uint64_t NaiveMask(const GeomT* geoms, size_t n, const QueryT& query,
                   PredT pred) {
  uint64_t mask = 0;
  for (size_t i = 0; i < n; ++i) {
    if (pred(query, geoms[i])) mask |= uint64_t{1} << i;
  }
  return mask;
}

/// Normalized (sorted, disjoint, non-adjacent) interval list of `n`
/// entries — the FlatLabelStore form the interval kernel requires.
std::vector<Interval> MakeIntervals(size_t n, Rng& rng) {
  std::vector<Interval> intervals;
  intervals.reserve(n);
  uint32_t cursor = static_cast<uint32_t>(rng.NextBounded(5));
  for (size_t i = 0; i < n; ++i) {
    const uint32_t lo = cursor;
    const uint32_t hi = lo + static_cast<uint32_t>(rng.NextBounded(6));
    intervals.push_back(Interval{lo, hi});
    cursor = hi + 2 + static_cast<uint32_t>(rng.NextBounded(7));
  }
  return intervals;
}

TEST(SimdKernelTest, IntervalContainsAllLevelsAllWidths) {
  Rng rng(0x51D0);
  for (const KernelLevel level : SupportedLevels()) {
    const KernelTable& table = simd::Table(level);
    for (const size_t n : kWidths) {
      for (int rep = 0; rep < 20; ++rep) {
        const std::vector<Interval> intervals = MakeIntervals(n, rng);
        const uint32_t span =
            n == 0 ? 16 : intervals.back().hi + 8;
        // Every value in [0, span]: hits every boundary (lo, hi, the
        // gaps between intervals) instead of sampling them.
        for (uint32_t value = 0; value <= span; ++value) {
          ASSERT_EQ(table.interval_contains(intervals.data(), n, value),
                    NaiveIntervalContains(intervals, value))
              << simd::KernelLevelName(level) << " n=" << n
              << " value=" << value;
        }
      }
    }
  }
}

TEST(SimdKernelTest, IntervalContainsUnalignedBase) {
  // The same probe from every offset into a larger array: the kernel
  // must not assume its base pointer is vector-aligned.
  Rng rng(0xA11);
  const std::vector<Interval> backing = MakeIntervals(40, rng);
  for (const KernelLevel level : SupportedLevels()) {
    const KernelTable& table = simd::Table(level);
    for (size_t offset = 0; offset < 12; ++offset) {
      const size_t n = backing.size() - offset;
      const std::vector<Interval> window(backing.begin() + offset,
                                         backing.end());
      for (uint32_t value = 0; value <= backing.back().hi + 4; ++value) {
        ASSERT_EQ(table.interval_contains(backing.data() + offset, n, value),
                  NaiveIntervalContains(window, value))
            << simd::KernelLevelName(level) << " offset=" << offset
            << " value=" << value;
      }
    }
  }
}

TEST(SimdKernelTest, Subset64AllLevels) {
  Rng rng(0x5B5E7);
  for (const KernelLevel level : SupportedLevels()) {
    const KernelTable& table = simd::Table(level);
    for (const size_t words : {size_t{1}, size_t{2}, size_t{3}, size_t{4},
                               size_t{5}, size_t{7}, size_t{8}, size_t{9}}) {
      for (int rep = 0; rep < 50; ++rep) {
        std::vector<uint64_t> super(words), sub(words);
        for (size_t w = 0; w < words; ++w) {
          super[w] = rng.NextUint64();
          // Mostly-subset so both outcomes occur: sub is super with a
          // few bits dropped, sometimes one stray bit added.
          sub[w] = super[w] & rng.NextUint64();
        }
        if (rep % 3 == 0) {
          const size_t w = rng.NextBounded(words);
          sub[w] |= uint64_t{1} << rng.NextBounded(64);
        }
        ASSERT_EQ(table.subset64(super.data(), sub.data(), words),
                  NaiveSubset(super, sub))
            << simd::KernelLevelName(level) << " words=" << words;
      }
    }
  }
}

TEST(SimdKernelTest, Subset64SingleStrayBitAnyPosition) {
  // A lone stray bit at every word/bit position must flip the verdict;
  // catches any lane the wide andnot+test accidentally ignores.
  for (const KernelLevel level : SupportedLevels()) {
    const KernelTable& table = simd::Table(level);
    for (const size_t words : {size_t{1}, size_t{4}, size_t{5}, size_t{8}}) {
      std::vector<uint64_t> super(words, 0), sub(words, 0);
      ASSERT_TRUE(table.subset64(super.data(), sub.data(), words));
      for (size_t w = 0; w < words; ++w) {
        for (int bit = 0; bit < 64; bit += 7) {
          sub[w] = uint64_t{1} << bit;
          ASSERT_FALSE(table.subset64(super.data(), sub.data(), words))
              << simd::KernelLevelName(level) << " words=" << words
              << " stray at word " << w << " bit " << bit;
          super[w] = sub[w];
          ASSERT_TRUE(table.subset64(super.data(), sub.data(), words));
          super[w] = 0;
          sub[w] = 0;
        }
      }
    }
  }
}

TEST(SimdKernelTest, IntervalContainsManyAllLevelsAllShapes) {
  // Both run widths (transposed sweep vs per-value fallback) and every
  // awkward batch count, including the 64-candidate mask cap.
  Rng rng(0x1C41);
  for (const KernelLevel level : SupportedLevels()) {
    const KernelTable& table = simd::Table(level);
    for (const size_t n : {size_t{0}, size_t{1}, size_t{3}, size_t{8},
                           size_t{17}, size_t{64}, size_t{65}, size_t{90}}) {
      const std::vector<Interval> intervals = MakeIntervals(n, rng);
      const uint32_t span = n == 0 ? 16 : intervals.back().hi + 8;
      for (const size_t count : kWidths) {
        std::vector<uint32_t> values;
        for (size_t k = 0; k < count; ++k) {
          values.push_back(static_cast<uint32_t>(rng.NextBounded(span)));
        }
        uint64_t expected = 0;
        for (size_t k = 0; k < count; ++k) {
          if (NaiveIntervalContains(intervals, values[k])) {
            expected |= uint64_t{1} << k;
          }
        }
        ASSERT_EQ(table.interval_contains_many(intervals.data(), n,
                                               values.data(), count),
                  expected)
            << simd::KernelLevelName(level) << " n=" << n
            << " count=" << count;
      }
    }
  }
}

TEST(SimdKernelTest, BflPruneMaskAllLevelsAllShapes) {
  Rng rng(0xBF1);
  for (const KernelLevel level : SupportedLevels()) {
    const KernelTable& table = simd::Table(level);
    for (const size_t words : {size_t{1}, size_t{2}, size_t{3}, size_t{4},
                               size_t{5}, size_t{8}, size_t{9}}) {
      // A small universe of filters; the target's filters are drawn from
      // it so subset relations actually occur in both directions.
      const size_t universe = 24;
      std::vector<uint64_t> out_filters(universe * words);
      std::vector<uint64_t> in_filters(universe * words);
      for (size_t i = 0; i < out_filters.size(); ++i) {
        out_filters[i] = rng.NextUint64() & rng.NextUint64();
        in_filters[i] = rng.NextUint64() & rng.NextUint64();
      }
      std::vector<uint64_t> out_to(words), in_to(words);
      for (size_t w = 0; w < words; ++w) {
        // out_to mostly-subset of typical filters; in_to mostly-superset.
        out_to[w] = rng.NextUint64() & rng.NextUint64() & rng.NextUint64();
        in_to[w] = rng.NextUint64() | rng.NextUint64();
      }
      for (const size_t count : kWidths) {
        std::vector<uint32_t> ids;
        for (size_t k = 0; k < count; ++k) {
          ids.push_back(static_cast<uint32_t>(rng.NextBounded(universe)));
        }
        uint64_t expected = 0;
        for (size_t k = 0; k < count; ++k) {
          std::vector<uint64_t> out_w(
              out_filters.begin() + ids[k] * words,
              out_filters.begin() + (ids[k] + 1) * words);
          std::vector<uint64_t> in_w(in_filters.begin() + ids[k] * words,
                                     in_filters.begin() + (ids[k] + 1) * words);
          if (NaiveSubset(out_w, out_to) && NaiveSubset(in_to, in_w)) {
            expected |= uint64_t{1} << k;
          }
        }
        ASSERT_EQ(table.bfl_prune_mask(out_filters.data(), in_filters.data(),
                                       words, ids.data(), count, out_to.data(),
                                       in_to.data()),
                  expected)
            << simd::KernelLevelName(level) << " words=" << words
            << " count=" << count;
      }
    }
  }
}

Rect RandomRect(Rng& rng) {
  const double x = rng.NextDoubleInRange(-50, 50);
  const double y = rng.NextDoubleInRange(-50, 50);
  return Rect(x, y, x + rng.NextDoubleInRange(0, 30),
              y + rng.NextDoubleInRange(0, 30));
}

Box3D RandomBox3(Rng& rng) {
  const double x = rng.NextDoubleInRange(-50, 50);
  const double y = rng.NextDoubleInRange(-50, 50);
  const double z = rng.NextDoubleInRange(-50, 50);
  return Box3D(x, y, z, x + rng.NextDoubleInRange(0, 30),
               y + rng.NextDoubleInRange(0, 30),
               z + rng.NextDoubleInRange(0, 30));
}

TEST(SimdKernelTest, RectIntersectMaskAllLevelsAllWidths) {
  Rng rng(0x2ec7);
  for (const KernelLevel level : SupportedLevels()) {
    const KernelTable& table = simd::Table(level);
    for (const size_t n : kWidths) {
      for (int rep = 0; rep < 10; ++rep) {
        std::vector<Rect> boxes;
        for (size_t i = 0; i < n; ++i) boxes.push_back(RandomRect(rng));
        const Rect query = RandomRect(rng);
        ASSERT_EQ(table.rect_intersect_mask(boxes.data(), n, query),
                  NaiveMask(boxes.data(), n, query,
                            [](const Rect& q, const Rect& b) {
                              return q.Intersects(b);
                            }))
            << simd::KernelLevelName(level) << " n=" << n;
      }
    }
  }
}

TEST(SimdKernelTest, RectContainsPointMaskAllLevelsAllWidths) {
  Rng rng(0x2ec8);
  for (const KernelLevel level : SupportedLevels()) {
    const KernelTable& table = simd::Table(level);
    for (const size_t n : kWidths) {
      for (int rep = 0; rep < 10; ++rep) {
        std::vector<Point2D> points;
        for (size_t i = 0; i < n; ++i) {
          points.push_back(Point2D{rng.NextDoubleInRange(-60, 60),
                                   rng.NextDoubleInRange(-60, 60)});
        }
        const Rect query = RandomRect(rng);
        ASSERT_EQ(table.rect_contains_point_mask(points.data(), n, query),
                  NaiveMask(points.data(), n, query,
                            [](const Rect& q, const Point2D& p) {
                              return q.Contains(p);
                            }))
            << simd::KernelLevelName(level) << " n=" << n;
      }
    }
  }
}

TEST(SimdKernelTest, Box3IntersectMaskAllLevelsAllWidths) {
  Rng rng(0xb0c3);
  for (const KernelLevel level : SupportedLevels()) {
    const KernelTable& table = simd::Table(level);
    for (const size_t n : kWidths) {
      for (int rep = 0; rep < 10; ++rep) {
        std::vector<Box3D> boxes;
        for (size_t i = 0; i < n; ++i) boxes.push_back(RandomBox3(rng));
        const Box3D query = RandomBox3(rng);
        ASSERT_EQ(table.box3_intersect_mask(boxes.data(), n, query),
                  NaiveMask(boxes.data(), n, query,
                            [](const Box3D& q, const Box3D& b) {
                              return q.Intersects(b);
                            }))
            << simd::KernelLevelName(level) << " n=" << n;
      }
    }
  }
}

TEST(SimdKernelTest, Box3ContainsPointMaskAllLevelsAllWidths) {
  Rng rng(0xb0c4);
  for (const KernelLevel level : SupportedLevels()) {
    const KernelTable& table = simd::Table(level);
    for (const size_t n : kWidths) {
      for (int rep = 0; rep < 10; ++rep) {
        std::vector<Point3D> points;
        for (size_t i = 0; i < n; ++i) {
          points.push_back(Point3D{rng.NextDoubleInRange(-60, 60),
                                   rng.NextDoubleInRange(-60, 60),
                                   rng.NextDoubleInRange(-60, 60)});
        }
        const Box3D query = RandomBox3(rng);
        const auto contains = [](const Box3D& q, const Point3D& p) {
          return (p.x >= q.min[0]) & (p.x <= q.max[0]) & (p.y >= q.min[1]) &
                 (p.y <= q.max[1]) & (p.z >= q.min[2]) & (p.z <= q.max[2]);
        };
        ASSERT_EQ(table.box3_contains_point_mask(points.data(), n, query),
                  NaiveMask(points.data(), n, query, contains))
            << simd::KernelLevelName(level) << " n=" << n;
      }
    }
  }
}

TEST(SimdKernelTest, MaskKernelsUnalignedBase) {
  // Same geometry array probed from every sub-vector offset.
  Rng rng(0x0FF5);
  std::vector<Rect> rects;
  std::vector<Box3D> boxes;
  std::vector<Point2D> pts2;
  std::vector<Point3D> pts3;
  for (size_t i = 0; i < 40; ++i) {
    rects.push_back(RandomRect(rng));
    boxes.push_back(RandomBox3(rng));
    pts2.push_back(Point2D{rng.NextDoubleInRange(-60, 60),
                           rng.NextDoubleInRange(-60, 60)});
    pts3.push_back(Point3D{rng.NextDoubleInRange(-60, 60),
                           rng.NextDoubleInRange(-60, 60),
                           rng.NextDoubleInRange(-60, 60)});
  }
  const Rect q2 = RandomRect(rng);
  const Box3D q3 = RandomBox3(rng);
  for (const KernelLevel level : SupportedLevels()) {
    const KernelTable& table = simd::Table(level);
    for (size_t offset = 0; offset < 8; ++offset) {
      const size_t n = rects.size() - offset;
      ASSERT_EQ(table.rect_intersect_mask(rects.data() + offset, n, q2),
                NaiveMask(rects.data() + offset, n, q2,
                          [](const Rect& q, const Rect& b) {
                            return q.Intersects(b);
                          }))
          << simd::KernelLevelName(level) << " offset=" << offset;
      ASSERT_EQ(table.rect_contains_point_mask(pts2.data() + offset, n, q2),
                NaiveMask(pts2.data() + offset, n, q2,
                          [](const Rect& q, const Point2D& p) {
                            return q.Contains(p);
                          }))
          << simd::KernelLevelName(level) << " offset=" << offset;
      ASSERT_EQ(table.box3_intersect_mask(boxes.data() + offset, n, q3),
                NaiveMask(boxes.data() + offset, n, q3,
                          [](const Box3D& q, const Box3D& b) {
                            return q.Intersects(b);
                          }))
          << simd::KernelLevelName(level) << " offset=" << offset;
      const auto contains3 = [](const Box3D& q, const Point3D& p) {
        return (p.x >= q.min[0]) & (p.x <= q.max[0]) & (p.y >= q.min[1]) &
               (p.y <= q.max[1]) & (p.z >= q.min[2]) & (p.z <= q.max[2]);
      };
      ASSERT_EQ(table.box3_contains_point_mask(pts3.data() + offset, n, q3),
                NaiveMask(pts3.data() + offset, n, q3, contains3))
          << simd::KernelLevelName(level) << " offset=" << offset;
    }
  }
}

TEST(SimdKernelTest, EmptyQueryBoxesMatchScalarVerdicts) {
  // The branchless predicates give an empty (inverted ±inf) query a
  // consistent all-false verdict; every level must agree.
  Rng rng(0xE201);
  std::vector<Rect> rects;
  std::vector<Box3D> boxes;
  for (size_t i = 0; i < 17; ++i) {
    rects.push_back(RandomRect(rng));
    boxes.push_back(RandomBox3(rng));
  }
  for (const KernelLevel level : SupportedLevels()) {
    const KernelTable& table = simd::Table(level);
    EXPECT_EQ(table.rect_intersect_mask(rects.data(), rects.size(), Rect()),
              uint64_t{0})
        << simd::KernelLevelName(level);
    EXPECT_EQ(table.box3_intersect_mask(boxes.data(), boxes.size(), Box3D()),
              uint64_t{0})
        << simd::KernelLevelName(level);
  }
}

TEST(SimdKernelTest, DispatchLevelControls) {
  const KernelLevel original = simd::ActiveLevel();
  EXPECT_LE(simd::ActiveLevel(), simd::MaxSupportedLevel());

  // SetKernelLevel clamps to what this machine supports.
  const KernelLevel installed = simd::SetKernelLevel(KernelLevel::kAvx2);
  EXPECT_LE(installed, simd::MaxSupportedLevel());
  EXPECT_EQ(simd::ActiveLevel(), installed);

  EXPECT_EQ(simd::SetKernelLevel(KernelLevel::kScalar), KernelLevel::kScalar);
  EXPECT_EQ(simd::ActiveLevel(), KernelLevel::kScalar);
  EXPECT_STREQ(simd::KernelLevelName(simd::ActiveLevel()), "scalar");

  EXPECT_TRUE(simd::SetKernelLevelFromString("native"));
  EXPECT_EQ(simd::ActiveLevel(), simd::MaxSupportedLevel());
  EXPECT_FALSE(simd::SetKernelLevelFromString("avx512"));
  EXPECT_EQ(simd::ActiveLevel(), simd::MaxSupportedLevel());

  {
    simd::ScopedKernelLevel scoped(KernelLevel::kScalar);
    EXPECT_EQ(simd::ActiveLevel(), KernelLevel::kScalar);
  }
  EXPECT_EQ(simd::ActiveLevel(), simd::MaxSupportedLevel());

  simd::SetKernelLevel(original);
}

TEST(SimdKernelTest, TypedWrappersDispatchThroughActiveTable) {
  Rng rng(0x77AA);
  const std::vector<Interval> intervals = MakeIntervals(9, rng);
  std::vector<uint64_t> super(4), sub(4);
  for (size_t w = 0; w < 4; ++w) {
    super[w] = rng.NextUint64();
    sub[w] = super[w] & rng.NextUint64();
  }
  for (const KernelLevel level : SupportedLevels()) {
    simd::ScopedKernelLevel scoped(level);
    for (uint32_t value = 0; value <= intervals.back().hi + 3; ++value) {
      EXPECT_EQ(
          simd::IntervalContains(intervals.data(), intervals.size(), value),
          NaiveIntervalContains(intervals, value));
    }
    EXPECT_EQ(simd::Subset64(super.data(), sub.data(), 4),
              NaiveSubset(super, sub));
  }
}

}  // namespace
}  // namespace gsr
