// Micro-benchmarks for the reachability substrates (google-benchmark):
// interval-labeling and BFL construction, GReach probes, and descendant
// enumeration (the SocReach primitive).

#include <benchmark/benchmark.h>

#include <utility>
#include <vector>

#include "common/rng.h"
#include "graph/digraph.h"
#include "labeling/bfl.h"
#include "labeling/interval_labeling.h"

namespace {

using gsr::BflIndex;
using gsr::DiGraph;
using gsr::IntervalLabeling;
using gsr::Rng;
using gsr::VertexId;

DiGraph MakeDag(uint32_t n, double density, uint64_t seed) {
  Rng rng(seed);
  std::vector<std::pair<VertexId, VertexId>> edges;
  const uint64_t target = static_cast<uint64_t>(density * n);
  for (uint64_t e = 0; e < target; ++e) {
    const VertexId a = static_cast<VertexId>(rng.NextBounded(n));
    const VertexId b = static_cast<VertexId>(rng.NextBounded(n));
    if (a != b) edges.emplace_back(std::min(a, b), std::max(a, b));
  }
  auto graph = DiGraph::FromEdges(n, std::move(edges));
  return std::move(graph).value();
}

void BM_IntervalLabelingBuild(benchmark::State& state) {
  const DiGraph dag =
      MakeDag(static_cast<uint32_t>(state.range(0)), 3.0, 11);
  for (auto _ : state) {
    const IntervalLabeling labeling = IntervalLabeling::Build(dag);
    benchmark::DoNotOptimize(labeling.stats().compressed_labels);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_IntervalLabelingBuild)->Arg(1000)->Arg(10000)->Arg(100000);

void BM_BflBuild(benchmark::State& state) {
  const DiGraph dag =
      MakeDag(static_cast<uint32_t>(state.range(0)), 3.0, 13);
  for (auto _ : state) {
    const BflIndex index = BflIndex::Build(&dag);
    benchmark::DoNotOptimize(index.SizeBytes());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_BflBuild)->Arg(1000)->Arg(10000)->Arg(100000);

void BM_IntervalLabelingGReach(benchmark::State& state) {
  const DiGraph dag = MakeDag(50000, 3.0, 17);
  const IntervalLabeling labeling = IntervalLabeling::Build(dag);
  Rng rng(19);
  for (auto _ : state) {
    const VertexId v = static_cast<VertexId>(rng.NextBounded(50000));
    const VertexId u = static_cast<VertexId>(rng.NextBounded(50000));
    benchmark::DoNotOptimize(labeling.CanReach(v, u));
  }
}
BENCHMARK(BM_IntervalLabelingGReach);

void BM_BflGReach(benchmark::State& state) {
  const DiGraph dag = MakeDag(50000, 3.0, 17);
  const BflIndex index = BflIndex::Build(&dag);
  BflIndex::SearchScratch scratch;
  Rng rng(19);
  for (auto _ : state) {
    const VertexId v = static_cast<VertexId>(rng.NextBounded(50000));
    const VertexId u = static_cast<VertexId>(rng.NextBounded(50000));
    benchmark::DoNotOptimize(index.CanReach(v, u, scratch));
  }
}
BENCHMARK(BM_BflGReach);

void BM_DescendantEnumeration(benchmark::State& state) {
  const DiGraph dag = MakeDag(50000, 3.0, 23);
  const IntervalLabeling labeling = IntervalLabeling::Build(dag);
  Rng rng(29);
  for (auto _ : state) {
    const VertexId v = static_cast<VertexId>(rng.NextBounded(50000));
    uint64_t count = 0;
    labeling.ForEachDescendant(v, [&count](VertexId) {
      ++count;
      return true;
    });
    benchmark::DoNotOptimize(count);
  }
}
BENCHMARK(BM_DescendantEnumeration);

}  // namespace

BENCHMARK_MAIN();
