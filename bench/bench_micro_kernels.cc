// Micro-benchmark of the SIMD query kernels: every kernel at every level
// this machine supports (scalar reference, AVX2), reported as
// ns/op plus speedup over scalar. Probes are issued back-to-back over a
// cache-resident working set, the way the query paths issue them: BFL's
// pruned DFS tests every neighbor of the popped vertex, SocReach probes
// the labels of consecutive stack entries, and the R-tree descent tests
// node after node — independent probes the CPU pipelines, against
// filters/labels that stay hot. Measuring a dependency chain instead
// would mostly time the probe-data load latency, which is identical at
// every level.
//
// Methodology notes:
//  - The scalar reference TU is compiled with auto-vectorization off
//    when GSR_SIMD=ON (see src/common/CMakeLists.txt), so "speedup vs
//    scalar" compares hand-written vectors against genuine scalar code,
//    not against GCC's SSE2 auto-vectorization of the same loop.
//  - The single-answer kernels (interval_contains, subset64) issue a
//    small burst per timed iteration (kBurst) so loop/sink bookkeeping
//    does not drown kernels that finish in a handful of cycles.
//  - The batched kernels (interval_contains_many, bfl_prune_mask) answer
//    up to 64 candidates per call — the shape the SpaReach-INT candidate
//    loop and BFL's pruned-DFS neighbor loop actually use — so the
//    per-call dispatch overhead is amortized and the vector lanes run
//    across candidates instead of within one probe.
//
// Outputs a table, <out>/BENCH_kernels.json (mirrored to the repo root
// like every BENCH_*.json), with one row per (kernel, variant, level)
// and a headline block carrying each kernel's best speedup.
//
// Flags (shared BenchOptions; dataset/scale/queries/threads are unused
// here): --out dir, --kernel forces the level used by the end-to-end
// FrozenRTree rows' dispatch check.

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_support.h"
#include "common/rng.h"
#include "common/simd.h"
#include "common/stopwatch.h"
#include "common/table_printer.h"
#include "geometry/geometry.h"
#include "labeling/label_set.h"
#include "spatial/frozen_rtree.h"

namespace {

using namespace gsr;         // NOLINT
using namespace gsr::bench;  // NOLINT

using simd::KernelLevel;
using simd::KernelTable;

inline void Keep(uint64_t& v) { asm volatile("" : "+r"(v)); }

/// Times `body(i)` over `iters` calls, best of `repeats` runs, returning
/// ns per call. `body` must fold its result into the sink it captures so
/// the compiler cannot dead-code the kernel call.
template <typename Body>
double MeasureNs(size_t iters, Body&& body, int repeats = 3) {
  double best = 1e300;
  for (int r = 0; r < repeats; ++r) {
    Stopwatch watch;
    for (size_t i = 0; i < iters; ++i) body(i);
    const double ns =
        static_cast<double>(watch.ElapsedNanos()) / static_cast<double>(iters);
    if (ns < best) best = ns;
  }
  return best;
}

std::vector<KernelLevel> SupportedLevels() {
  std::vector<KernelLevel> levels = {KernelLevel::kScalar};
  if (simd::MaxSupportedLevel() >= KernelLevel::kAvx2) {
    levels.push_back(KernelLevel::kAvx2);
  }
  return levels;
}

struct Row {
  std::string kernel;
  std::string variant;
  std::string level;
  double ns_per_op = 0.0;
  double speedup = 1.0;  // scalar ns / this level's ns, same variant.
};

/// Normalized interval runs in one backing array, FlatLabelStore-style.
struct IntervalRuns {
  std::vector<Interval> backing;
  std::vector<uint32_t> offsets;  // runs * n intervals, run r at r*n.
  std::vector<uint32_t> probes;   // mixed hit/miss values, one per slot.
  uint32_t span = 0;
};

IntervalRuns MakeIntervalRuns(size_t runs, size_t n, Rng& rng) {
  IntervalRuns data;
  for (size_t r = 0; r < runs; ++r) {
    data.offsets.push_back(static_cast<uint32_t>(data.backing.size()));
    uint32_t cursor = static_cast<uint32_t>(rng.NextBounded(4));
    for (size_t i = 0; i < n; ++i) {
      const uint32_t lo = cursor;
      const uint32_t hi = lo + static_cast<uint32_t>(rng.NextBounded(8));
      data.backing.push_back(Interval{lo, hi});
      cursor = hi + 2 + static_cast<uint32_t>(rng.NextBounded(6));
    }
    data.span = std::max(data.span, cursor);
  }
  for (size_t r = 0; r < runs; ++r) {
    data.probes.push_back(static_cast<uint32_t>(rng.NextBounded(data.span)));
  }
  return data;
}

constexpr size_t kIters = 1u << 20;

/// Slot count keeping `bytes_per_slot * slots` comfortably inside L1,
/// so what's timed is kernel arithmetic, not cache misses neither level
/// can hide. Always a power of two (the hot loop masks with slots-1).
size_t L1Slots(size_t bytes_per_slot) {
  size_t slots = 2;
  while (slots * 2 * bytes_per_slot <= 16384) slots *= 2;
  return slots;
}

/// Probes per timed iteration for the two single-answer kernels: issuing
/// a small burst per iteration keeps the loop/sink bookkeeping from
/// drowning kernels that finish in a handful of cycles, mirroring how
/// the query paths fire them (BFL tests every neighbor of the popped
/// vertex back to back; SocReach walks consecutive stack entries).
constexpr size_t kBurst = 4;

void BenchIntervalContains(std::vector<Row>& rows) {
  Rng rng(0x1C0B);
  for (const size_t n : {size_t{4}, size_t{8}, size_t{16}, size_t{64},
                         size_t{256}}) {
    const size_t slots = L1Slots(n * sizeof(Interval));
    const IntervalRuns data = MakeIntervalRuns(slots, n, rng);
    double scalar_ns = 0.0;
    for (const KernelLevel level : SupportedLevels()) {
      const auto kernel = simd::Table(level).interval_contains;
      uint64_t sink = 0;
      const double ns = MeasureNs(kIters / kBurst, [&](size_t i) {
        for (size_t k = 0; k < kBurst; ++k) {
          const size_t slot = (i * kBurst + k) & (slots - 1);
          sink += kernel(data.backing.data() + data.offsets[slot], n,
                         data.probes[slot]);
        }
      }) / static_cast<double>(kBurst);
      Keep(sink);
      if (level == KernelLevel::kScalar) scalar_ns = ns;
      rows.push_back({"interval_contains", "n=" + std::to_string(n),
                      simd::KernelLevelName(level), ns,
                      ns > 0.0 ? scalar_ns / ns : 1.0});
    }
  }
}

void BenchSubset64(std::vector<Row>& rows) {
  Rng rng(0x5B5E);
  for (const size_t words : {size_t{2}, size_t{4}, size_t{8}, size_t{16}}) {
    // Pairs where the subset HOLDS: the scalar loop can never quit early
    // (it is branchless anyway), and held subsets are the case BFL takes
    // on every positive and every DFS-expanded vertex — the hot case.
    const size_t slots = L1Slots(2 * words * sizeof(uint64_t));
    std::vector<uint64_t> super(slots * words), sub(slots * words);
    for (size_t i = 0; i < super.size(); ++i) {
      super[i] = rng.NextUint64();
      sub[i] = super[i] & rng.NextUint64();
    }
    double scalar_ns = 0.0;
    for (const KernelLevel level : SupportedLevels()) {
      const auto kernel = simd::Table(level).subset64;
      uint64_t sink = 0;
      const double ns = MeasureNs(kIters / kBurst, [&](size_t i) {
        for (size_t k = 0; k < kBurst; ++k) {
          const size_t slot = (i * kBurst + k) & (slots - 1);
          sink += kernel(super.data() + slot * words,
                         sub.data() + slot * words, words);
        }
      }) / static_cast<double>(kBurst);
      Keep(sink);
      if (level == KernelLevel::kScalar) scalar_ns = ns;
      rows.push_back({"subset64", "words=" + std::to_string(words),
                      simd::KernelLevelName(level), ns,
                      ns > 0.0 ? scalar_ns / ns : 1.0});
    }
  }
}

void BenchIntervalContainsMany(std::vector<Row>& rows) {
  // Batched Lemma 3.1 probe: one call answers `count` candidates against
  // one run, the SpaReach-INT candidate-loop shape. ns/op is per
  // candidate so rows compare directly with interval_contains.
  Rng rng(0x1CBA);
  constexpr size_t kCount = 32;
  for (const size_t n : {size_t{4}, size_t{8}, size_t{16}, size_t{32}}) {
    const size_t slots = L1Slots(n * sizeof(Interval) +
                                 kCount * sizeof(uint32_t));
    const IntervalRuns data = MakeIntervalRuns(slots, n, rng);
    std::vector<uint32_t> values(slots * kCount);
    for (uint32_t& v : values) {
      v = static_cast<uint32_t>(rng.NextBounded(data.span));
    }
    double scalar_ns = 0.0;
    for (const KernelLevel level : SupportedLevels()) {
      const auto kernel = simd::Table(level).interval_contains_many;
      uint64_t sink = 0;
      const double ns = MeasureNs(kIters / kCount, [&](size_t i) {
        const size_t slot = i & (slots - 1);
        sink += kernel(data.backing.data() + data.offsets[slot], n,
                       values.data() + slot * kCount, kCount);
      }) / static_cast<double>(kCount);
      Keep(sink);
      if (level == KernelLevel::kScalar) scalar_ns = ns;
      rows.push_back({"interval_contains_many",
                      "n=" + std::to_string(n) + " count=" +
                          std::to_string(kCount),
                      simd::KernelLevelName(level), ns,
                      ns > 0.0 ? scalar_ns / ns : 1.0});
    }
  }
}

void BenchBflPruneMask(std::vector<Row>& rows) {
  // Fused dual Bloom prune over a neighbor span: out(to) ⊆ out(w) and
  // in(w) ⊆ in(to) per candidate, one call per span chunk — the BFL
  // pruned-DFS inner loop. Filters are built so every candidate
  // SURVIVES both tests (the hot case: scalar gets no early-out and the
  // DFS pays full price exactly when it must keep expanding). ns/op is
  // per candidate.
  Rng rng(0xBF7A);
  constexpr size_t kCount = 32;
  for (const size_t words : {size_t{2}, size_t{4}, size_t{8}, size_t{16}}) {
    const size_t universe = 64;  // Filter pool: L1-resident at all sizes.
    std::vector<uint64_t> out_to(words), in_to(words);
    for (size_t w = 0; w < words; ++w) {
      out_to[w] = rng.NextUint64() & rng.NextUint64() & rng.NextUint64();
      in_to[w] = rng.NextUint64() | rng.NextUint64();
    }
    std::vector<uint64_t> out_filters(universe * words);
    std::vector<uint64_t> in_filters(universe * words);
    for (size_t i = 0; i < universe; ++i) {
      for (size_t w = 0; w < words; ++w) {
        out_filters[i * words + w] = out_to[w] | rng.NextUint64();
        in_filters[i * words + w] = in_to[w] & rng.NextUint64();
      }
    }
    const size_t slots = L1Slots(kCount * sizeof(uint32_t));
    std::vector<uint32_t> ids(slots * kCount);
    for (uint32_t& id : ids) {
      id = static_cast<uint32_t>(rng.NextBounded(universe));
    }
    double scalar_ns = 0.0;
    for (const KernelLevel level : SupportedLevels()) {
      const auto kernel = simd::Table(level).bfl_prune_mask;
      uint64_t sink = 0;
      const double ns = MeasureNs(kIters / kCount, [&](size_t i) {
        const size_t slot = i & (slots - 1);
        sink += kernel(out_filters.data(), in_filters.data(), words,
                       ids.data() + slot * kCount, kCount, out_to.data(),
                       in_to.data());
      }) / static_cast<double>(kCount);
      Keep(sink);
      if (level == KernelLevel::kScalar) scalar_ns = ns;
      rows.push_back({"bfl_prune_mask",
                      "words=" + std::to_string(words) + " count=" +
                          std::to_string(kCount),
                      simd::KernelLevelName(level), ns,
                      ns > 0.0 ? scalar_ns / ns : 1.0});
    }
  }
}

template <typename GeomT, typename QueryT, typename KernelFn>
void BenchMaskKernel(std::vector<Row>& rows, const std::string& name,
                     const std::vector<GeomT>& geoms,
                     const std::vector<QueryT>& queries, size_t n,
                     KernelFn kernel_of) {
  const size_t node_count = geoms.size() / n;
  double scalar_ns = 0.0;
  for (const KernelLevel level : SupportedLevels()) {
    const auto kernel = kernel_of(simd::Table(level));
    uint64_t sink = 0;
    const double ns = MeasureNs(kIters / 4, [&](size_t i) {
      const size_t node = i % node_count;
      const size_t q = i & (queries.size() - 1);
      sink += kernel(geoms.data() + node * n, n, queries[q]);
    });
    Keep(sink);
    if (level == KernelLevel::kScalar) scalar_ns = ns;
    rows.push_back({name, "n=" + std::to_string(n),
                    simd::KernelLevelName(level), ns,
                    ns > 0.0 ? scalar_ns / ns : 1.0});
  }
}

void BenchMaskKernels(std::vector<Row>& rows) {
  Rng rng(0xBEEF);
  const size_t n = 32;  // R-tree fanout: the node width descent tests.
  const size_t node_count = 256;
  auto rect = [&rng]() {
    const double x = rng.NextDoubleInRange(0, 900);
    const double y = rng.NextDoubleInRange(0, 900);
    return Rect(x, y, x + rng.NextDoubleInRange(1, 100),
                y + rng.NextDoubleInRange(1, 100));
  };
  auto box = [&rng]() {
    const double x = rng.NextDoubleInRange(0, 900);
    const double y = rng.NextDoubleInRange(0, 900);
    const double z = rng.NextDoubleInRange(0, 900);
    return Box3D(x, y, z, x + rng.NextDoubleInRange(1, 100),
                 y + rng.NextDoubleInRange(1, 100),
                 z + rng.NextDoubleInRange(1, 100));
  };

  std::vector<Rect> rects;
  std::vector<Box3D> boxes;
  std::vector<Point2D> pts2;
  std::vector<Point3D> pts3;
  std::vector<Rect> rect_queries;
  std::vector<Box3D> box_queries;
  for (size_t i = 0; i < node_count * n; ++i) {
    rects.push_back(rect());
    boxes.push_back(box());
    pts2.push_back(Point2D{rng.NextDoubleInRange(0, 1000),
                           rng.NextDoubleInRange(0, 1000)});
    pts3.push_back(Point3D{rng.NextDoubleInRange(0, 1000),
                           rng.NextDoubleInRange(0, 1000),
                           rng.NextDoubleInRange(0, 1000)});
  }
  for (size_t i = 0; i < 64; ++i) {
    rect_queries.push_back(rect());
    box_queries.push_back(box());
  }

  BenchMaskKernel(rows, "rect_intersect_mask", rects, rect_queries, n,
                  [](const KernelTable& t) { return t.rect_intersect_mask; });
  BenchMaskKernel(rows, "rect_contains_point_mask", pts2, rect_queries, n,
                  [](const KernelTable& t) {
                    return t.rect_contains_point_mask;
                  });
  BenchMaskKernel(rows, "box3_intersect_mask", boxes, box_queries, n,
                  [](const KernelTable& t) { return t.box3_intersect_mask; });
  BenchMaskKernel(rows, "box3_contains_point_mask", pts3, box_queries, n,
                  [](const KernelTable& t) {
                    return t.box3_contains_point_mask;
                  });
}

void BenchFrozenRTree(std::vector<Row>& rows) {
  // End to end through the dispatched SIMD descent: a frozen point
  // R-tree scanning all entries in a range — the SRange candidate
  // collection shape (existence probes use the branchy first-hit
  // descent instead and do not dispatch through the kernel table; see
  // FrozenRTree::AnyIntersecting).
  Rng rng(0xF07E);
  std::vector<std::pair<Point2D, uint64_t>> entries;
  for (uint64_t id = 0; id < 100000; ++id) {
    entries.push_back({Point2D{rng.NextDoubleInRange(0, 1000),
                               rng.NextDoubleInRange(0, 1000)},
                       id});
  }
  const FrozenRTreePoints2D frozen =
      FrozenRTreePoints2D::Build(std::move(entries));

  std::vector<Rect> queries;
  constexpr size_t kQueries = 1024;
  for (size_t i = 0; i < kQueries; ++i) {
    const double x = rng.NextDoubleInRange(0, 995);
    const double y = rng.NextDoubleInRange(0, 995);
    const double w = rng.NextDoubleInRange(0.1, 5.0);
    queries.push_back(Rect(x, y, x + w, y + w));
  }

  double scalar_ns = 0.0;
  for (const KernelLevel level : SupportedLevels()) {
    simd::ScopedKernelLevel scoped(level);
    uint64_t sink = 0;
    const double ns = MeasureNs(1u << 16, [&](size_t i) {
      const size_t q = i & (kQueries - 1);
      uint64_t hits = 0;
      frozen.ForEachIntersecting(queries[q], [&hits](const Point2D&,
                                                     uint64_t) {
        ++hits;
        return true;
      });
      sink += hits;
    });
    Keep(sink);
    if (level == KernelLevel::kScalar) scalar_ns = ns;
    rows.push_back({"frozen_rtree_range_scan", "100k pts",
                    simd::KernelLevelName(level), ns,
                    ns > 0.0 ? scalar_ns / ns : 1.0});
  }
}

void WriteJson(const std::string& path, const std::vector<Row>& rows) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "warning: cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(f, "{\n  \"bench\": \"kernels\",\n");
  std::fprintf(f, "  \"max_level\": \"%s\",\n",
               simd::KernelLevelName(simd::MaxSupportedLevel()));
  std::fprintf(f, "  \"measurements\": [\n");
  for (size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    std::fprintf(f,
                 "    {\"kernel\": \"%s\", \"variant\": \"%s\", "
                 "\"level\": \"%s\", \"ns_per_op\": %.2f, "
                 "\"speedup\": %.3f}%s\n",
                 r.kernel.c_str(), r.variant.c_str(), r.level.c_str(),
                 r.ns_per_op, r.speedup, i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n  \"headline\": [\n");
  // Best non-scalar speedup per kernel: the number the acceptance gate
  // (>= 2x on interval_contains and subset64) reads.
  std::vector<std::string> kernels;
  for (const Row& r : rows) {
    if (std::find(kernels.begin(), kernels.end(), r.kernel) == kernels.end()) {
      kernels.push_back(r.kernel);
    }
  }
  for (size_t k = 0; k < kernels.size(); ++k) {
    const Row* best = nullptr;
    for (const Row& r : rows) {
      if (r.kernel != kernels[k] || r.level == "scalar") continue;
      if (best == nullptr || r.speedup > best->speedup) best = &r;
    }
    if (best == nullptr) continue;
    std::fprintf(f,
                 "    {\"kernel\": \"%s\", \"best_level\": \"%s\", "
                 "\"best_variant\": \"%s\", \"speedup\": %.3f}%s\n",
                 best->kernel.c_str(), best->level.c_str(),
                 best->variant.c_str(), best->speedup,
                 k + 1 < kernels.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::fprintf(stderr, "[kernels] wrote %s\n", path.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  const BenchOptions options = BenchOptions::Parse(argc, argv);
  const bool csv = EnsureDir(options.out_dir);

  std::fprintf(stderr, "[kernels] max supported level: %s\n",
               simd::KernelLevelName(simd::MaxSupportedLevel()));

  std::vector<Row> rows;
  BenchIntervalContains(rows);
  BenchIntervalContainsMany(rows);
  BenchSubset64(rows);
  BenchBflPruneMask(rows);
  BenchMaskKernels(rows);
  BenchFrozenRTree(rows);

  TablePrinter table("micro-kernels: ns/op per level (speedup vs scalar)",
                     {"kernel", "variant", "level", "ns/op", "speedup"});
  for (const Row& r : rows) {
    table.AddRow({r.kernel, r.variant, r.level,
                  TablePrinter::FormatNumber(r.ns_per_op, 2),
                  TablePrinter::FormatNumber(r.speedup, 3) + "x"});
  }
  table.Print();
  if (csv) {
    (void)table.WriteCsv(options.out_dir + "/micro_kernels.csv");
    const std::string json_path = options.out_dir + "/BENCH_kernels.json";
    WriteJson(json_path, rows);
    MirrorBenchJson(options, json_path);
  }
  return 0;
}
