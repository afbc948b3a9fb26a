// Micro-benchmarks for the R-tree substrate (google-benchmark): the STR
// bulk load into the packed FrozenRTree layout, and the existence/range
// queries that RangeReach methods issue.

#include <benchmark/benchmark.h>

#include <utility>
#include <vector>

#include "common/rng.h"
#include "spatial/frozen_rtree.h"

namespace {

using gsr::Box3D;
using gsr::FrozenRTree2D;
using gsr::FrozenRTree3D;
using gsr::Point2D;
using gsr::Rect;
using gsr::Rng;

std::vector<std::pair<Rect, uint64_t>> MakePoints(size_t n) {
  Rng rng(42);
  std::vector<std::pair<Rect, uint64_t>> entries;
  entries.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    entries.emplace_back(
        Rect::FromPoint(Point2D{rng.NextDoubleInRange(0, 1000),
                                rng.NextDoubleInRange(0, 1000)}),
        i);
  }
  return entries;
}

void BM_RTreeBulkLoad(benchmark::State& state) {
  const auto entries = MakePoints(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    const FrozenRTree2D tree = FrozenRTree2D::Build(entries);
    benchmark::DoNotOptimize(tree.Height());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_RTreeBulkLoad)->Arg(1000)->Arg(10000)->Arg(100000);

void BM_RTreeRangeQuery(benchmark::State& state) {
  const FrozenRTree2D tree = FrozenRTree2D::Build(MakePoints(100000));
  Rng rng(7);
  for (auto _ : state) {
    const double x = rng.NextDoubleInRange(0, 950);
    const double y = rng.NextDoubleInRange(0, 950);
    benchmark::DoNotOptimize(
        tree.CountIntersecting(Rect(x, y, x + 50, y + 50)));
  }
}
BENCHMARK(BM_RTreeRangeQuery);

void BM_RTreeExistenceQuery(benchmark::State& state) {
  const FrozenRTree2D tree = FrozenRTree2D::Build(MakePoints(100000));
  Rng rng(8);
  for (auto _ : state) {
    const double x = rng.NextDoubleInRange(0, 950);
    const double y = rng.NextDoubleInRange(0, 950);
    benchmark::DoNotOptimize(tree.AnyIntersecting(Rect(x, y, x + 50, y + 50)));
  }
}
BENCHMARK(BM_RTreeExistenceQuery);

void BM_RTree3DCuboidQuery(benchmark::State& state) {
  Rng rng(9);
  std::vector<std::pair<Box3D, uint64_t>> entries;
  for (size_t i = 0; i < 100000; ++i) {
    entries.emplace_back(
        Box3D::FromPoint(rng.NextDoubleInRange(0, 1000),
                         rng.NextDoubleInRange(0, 1000),
                         rng.NextDoubleInRange(0, 100000)),
        i);
  }
  const FrozenRTree3D tree = FrozenRTree3D::Build(std::move(entries));
  for (auto _ : state) {
    const double x = rng.NextDoubleInRange(0, 900);
    const double y = rng.NextDoubleInRange(0, 900);
    const double z = rng.NextDoubleInRange(0, 90000);
    benchmark::DoNotOptimize(tree.AnyIntersecting(
        Box3D::FromRectAndInterval(Rect(x, y, x + 100, y + 100), z,
                                   z + 10000)));
  }
}
BENCHMARK(BM_RTree3DCuboidQuery);

}  // namespace

BENCHMARK_MAIN();
