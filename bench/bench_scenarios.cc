// Result-sink scenario throughput: the query kinds beyond boolean
// RangeReach — RangeReachCount, RangeReachEnum and multi-source AnyReach
// — on the exec engine, per method, with and without the work-sharing
// scheduler. Three comparisons per (dataset, method):
//
//  1. kind sweep: batch qps for bool / count / enum on the same skewed
//     workload, per-query BatchRunner vs scheduler RunShared. Count and
//     enum pay for member enumeration where bool short-circuits, so their
//     qps bounds the cost of the richer answer; the scheduler ratio shows
//     grouped collection amortizing the same probes/descents it does for
//     booleans.
//
//  2. any_of_k: one k-source AnyReach evaluation against the k boolean
//     queries an application would otherwise issue ("does any of my k
//     friends reach R" = OR of k RangeReach). Methods with batched label
//     probes fold the k sources into mask-width kernel calls and
//     short-circuit on the first hit, so the win should exceed the
//     trivial OR-short-circuit expectation of ~2x at 50% selectivity.
//
//  3. enum vs repeated-Bool: RangeReachEnum against the pre-refactor
//     emulation — enumerate the venues inside R from a spatial index,
//     then issue one point-rect boolean RangeReach per venue. This is the
//     headline number of the result-sink refactor: the emulation pays one
//     full index probe per venue, the sink path one reachability pass per
//     query.
//
// Outputs one table block per dataset, <out>/scenarios_<dataset>.csv and
// a machine-readable <out>/BENCH_scenarios.json (mirrored over the
// tracked repo-root copy).

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_support.h"
#include "common/simd.h"
#include "common/stopwatch.h"
#include "common/table_printer.h"
#include "datagen/workload.h"
#include "exec/batch_runner.h"
#include "exec/query_group.h"
#include "exec/thread_pool.h"
#include "spatial/frozen_rtree.h"

namespace {

using namespace gsr;         // NOLINT
using namespace gsr::bench;  // NOLINT

// Same repeat-to-minimum-wall-time policy as bench_support's throughput
// measurements: a fast method resolves one batch in under a millisecond,
// where a single-shot rate is timer noise.
constexpr double kMinMeasuredSeconds = 0.25;
constexpr int kMaxMeasuredReps = 200;

/// Methods the scenario sweep covers: the contenders whose collection
/// paths differ structurally (descendant scan, label probes with and
/// without batch kernels, masked R-tree descent).
std::vector<MethodConfig> ScenarioMethodConfigs() {
  std::vector<MethodConfig> configs;
  for (const MethodKind kind :
       {MethodKind::kSocReach, MethodKind::kSpaReachBfl,
        MethodKind::kSpaReachInt, MethodKind::kThreeDReach}) {
    MethodConfig config;
    config.kind = kind;
    configs.push_back(config);
  }
  return configs;
}

/// Repeats the workload until per-batch overheads are amortized.
std::vector<RangeReachQuery> TileBatch(std::vector<RangeReachQuery> queries,
                                       size_t min_size) {
  if (queries.empty()) return queries;
  const size_t base = queries.size();
  while (queries.size() < min_size) {
    for (size_t i = 0; i < base && queries.size() < min_size; ++i) {
      queries.push_back(queries[i]);
    }
  }
  return queries;
}

struct KindMeasurement {
  std::string dataset;
  std::string method;
  WorkloadKind kind = WorkloadKind::kBool;
  double batch_qps = 0.0;
  double shared_qps = 0.0;
  double shared_speedup = 0.0;  // shared_qps / batch_qps.
  size_t true_answers = 0;
  uint64_t result_vertices = 0;  // Sum of counts (count/enum kinds).
};

struct AnyMeasurement {
  std::string dataset;
  std::string method;
  uint32_t k = 0;
  double any_qps = 0.0;        // AnyReach queries per second.
  double bool_equiv_qps = 0.0;  // k-bool emulations per second (= bool
                                // qps on the expanded batch / k).
  double speedup = 0.0;         // any_qps / bool_equiv_qps.
  size_t true_answers = 0;
};

struct EnumVsBoolMeasurement {
  std::string dataset;
  std::string method;
  double enum_us = 0.0;           // Avg per query, serial EvaluateEnumInto.
  double repeated_bool_us = 0.0;  // Avg per query, venue-scan emulation.
  double speedup = 0.0;           // repeated_bool_us / enum_us.
  double avg_venues = 0.0;        // Venues per region (= probes paid).
  uint64_t result_vertices = 0;   // Total enum results (sanity anchor).
};

/// Closed-loop qps of one (kind, shared?) configuration, best-effort
/// steady state: warmup batch, then repeat until enough wall time.
double MeasureKindQps(const RangeReachMethod& method,
                      const std::vector<RangeReachQuery>& queries,
                      exec::ThreadPool& pool, QueryKind kind, bool shared,
                      size_t* true_answers, uint64_t* result_vertices) {
  exec::BatchRunner runner(&pool);
  exec::BatchOptions batch;
  batch.kind = kind;
  exec::SchedulerOptions sched;
  sched.kind = kind;
  auto run = [&]() {
    return shared ? runner.RunShared(method, queries, sched)
                  : runner.Run(method, queries, batch);
  };
  (void)run();  // Warmup: fault in scratches, warm caches.

  Stopwatch watch;
  size_t total = 0;
  int reps = 0;
  do {
    const exec::BatchResult result = run();
    *true_answers = result.true_count;
    if (reps == 0) {
      *result_vertices = 0;
      for (const uint64_t c : result.counts) *result_vertices += c;
    }
    total += queries.size();
    ++reps;
  } while (watch.ElapsedSeconds() < kMinMeasuredSeconds &&
           reps < kMaxMeasuredReps);
  return static_cast<double>(total) / std::max(1e-12, watch.ElapsedSeconds());
}

/// Closed-loop AnyReach qps via BatchRunner::RunAny.
double MeasureAnyQps(const RangeReachMethod& method,
                     const std::vector<AnyReachQuery>& queries,
                     exec::ThreadPool& pool, size_t* true_answers) {
  exec::BatchRunner runner(&pool);
  (void)runner.RunAny(method, queries);

  Stopwatch watch;
  size_t total = 0;
  int reps = 0;
  do {
    const exec::BatchResult result = runner.RunAny(method, queries);
    *true_answers = result.true_count;
    total += queries.size();
    ++reps;
  } while (watch.ElapsedSeconds() < kMinMeasuredSeconds &&
           reps < kMaxMeasuredReps);
  return static_cast<double>(total) / std::max(1e-12, watch.ElapsedSeconds());
}

/// The enum-vs-repeated-Bool headline comparison, measured serially (one
/// scratch, no pool) so the two sides differ only in algorithm: the
/// emulation's per-venue probes would otherwise just soak up idle
/// workers and hide its cost at low load.
EnumVsBoolMeasurement MeasureEnumVsRepeatedBool(
    const RangeReachMethod& method, const GeoSocialNetwork& network,
    const std::vector<RangeReachQuery>& queries) {
  EnumVsBoolMeasurement m;
  if (queries.empty()) return m;

  // The venue index the emulation scans; apps without RangeReachEnum
  // would hold exactly this.
  FrozenRTreePoints2D venues;
  {
    std::vector<std::pair<Point2D, uint64_t>> entries;
    entries.reserve(network.spatial_vertices().size());
    for (const VertexId v : network.spatial_vertices()) {
      entries.emplace_back(network.PointOf(v), v);
    }
    venues = FrozenRTreePoints2D::Build(std::move(entries));
  }

  const std::unique_ptr<QueryScratch> scratch = method.NewScratch();
  std::vector<VertexId> out;
  size_t total_venues = 0;

  // Warmup both paths once before timing either.
  method.EvaluateEnumInto(queries[0].vertex, queries[0].region, *scratch,
                          out);
  (void)venues.CountIntersecting(queries[0].region);

  Stopwatch watch;
  for (const RangeReachQuery& query : queries) {
    method.EvaluateEnumInto(query.vertex, query.region, *scratch, out);
    m.result_vertices += out.size();
  }
  m.enum_us = watch.ElapsedMicros() / static_cast<double>(queries.size());

  uint64_t emulated_vertices = 0;
  watch.Restart();
  for (const RangeReachQuery& query : queries) {
    venues.ForEachIntersecting(
        query.region, [&](const Point2D& p, uint64_t /*id*/) {
          ++total_venues;
          // One boolean RangeReach per venue, on a zero-area rect at the
          // venue point — the only way to ask "is this venue reachable"
          // before the sink refactor.
          const Rect probe(p.x, p.y, p.x, p.y);
          if (method.Evaluate(query.vertex, probe, *scratch)) {
            ++emulated_vertices;
          }
          return true;
        });
  }
  m.repeated_bool_us =
      watch.ElapsedMicros() / static_cast<double>(queries.size());
  m.speedup = m.enum_us > 0.0 ? m.repeated_bool_us / m.enum_us : 0.0;
  m.avg_venues =
      static_cast<double>(total_venues) / static_cast<double>(queries.size());
  // A zero-area probe rect can cover several co-located venues, so the
  // emulation may over-count; the enum total is the trustworthy anchor.
  (void)emulated_vertices;
  method.DrainScratchCounters(*scratch);
  return m;
}

void WriteJson(const std::string& path,
               const std::vector<KindMeasurement>& kinds,
               const std::vector<AnyMeasurement>& anys,
               const std::vector<EnumVsBoolMeasurement>& enums,
               size_t batch_size, double scale, unsigned threads) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "warning: cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(f, "{\n  \"bench\": \"scenarios\",\n");
  std::fprintf(f, "  \"kernel\": \"%s\",\n",
               simd::KernelLevelName(simd::ActiveLevel()));
  std::fprintf(f, "  \"scale\": %g,\n  \"batch_size\": %zu,\n", scale,
               batch_size);
  std::fprintf(f, "  \"threads\": %u,\n", threads);
  std::fprintf(f, "  \"kind_measurements\": [\n");
  for (size_t i = 0; i < kinds.size(); ++i) {
    const KindMeasurement& m = kinds[i];
    std::fprintf(f,
                 "    {\"dataset\": \"%s\", \"method\": \"%s\", "
                 "\"kind\": \"%s\", \"batch_qps\": %.1f, "
                 "\"shared_qps\": %.1f, \"shared_speedup\": %.3f, "
                 "\"true_answers\": %zu, \"result_vertices\": %llu}%s\n",
                 m.dataset.c_str(), m.method.c_str(), WorkloadKindName(m.kind),
                 m.batch_qps, m.shared_qps, m.shared_speedup, m.true_answers,
                 static_cast<unsigned long long>(m.result_vertices),
                 i + 1 < kinds.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n  \"any_of_k_measurements\": [\n");
  for (size_t i = 0; i < anys.size(); ++i) {
    const AnyMeasurement& m = anys[i];
    std::fprintf(f,
                 "    {\"dataset\": \"%s\", \"method\": \"%s\", \"k\": %u, "
                 "\"any_qps\": %.1f, \"bool_equiv_qps\": %.1f, "
                 "\"speedup\": %.3f, \"true_answers\": %zu}%s\n",
                 m.dataset.c_str(), m.method.c_str(), m.k, m.any_qps,
                 m.bool_equiv_qps, m.speedup, m.true_answers,
                 i + 1 < anys.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n  \"enum_vs_repeated_bool\": [\n");
  for (size_t i = 0; i < enums.size(); ++i) {
    const EnumVsBoolMeasurement& m = enums[i];
    std::fprintf(f,
                 "    {\"dataset\": \"%s\", \"method\": \"%s\", "
                 "\"enum_us\": %.2f, \"repeated_bool_us\": %.2f, "
                 "\"speedup\": %.3f, \"avg_venues\": %.1f, "
                 "\"result_vertices\": %llu}%s\n",
                 m.dataset.c_str(), m.method.c_str(), m.enum_us,
                 m.repeated_bool_us, m.speedup, m.avg_venues,
                 static_cast<unsigned long long>(m.result_vertices),
                 i + 1 < enums.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::fprintf(stderr, "[scenarios] wrote %s\n", path.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  const BenchOptions options = BenchOptions::Parse(argc, argv);
  const unsigned max_threads = options.threads != 0
                                   ? options.threads
                                   : exec::ThreadPool::DefaultThreads();
  const auto bundles = LoadDatasets(options);
  const bool csv = EnsureDir(options.out_dir);

  std::vector<KindMeasurement> kind_all;
  std::vector<AnyMeasurement> any_all;
  std::vector<EnumVsBoolMeasurement> enum_all;
  size_t batch_size = 0;

  const std::vector<WorkloadKind> kinds = {
      WorkloadKind::kBool, WorkloadKind::kCount, WorkloadKind::kEnum};
  const auto to_query_kind = [](WorkloadKind kind) {
    switch (kind) {
      case WorkloadKind::kCount:
        return QueryKind::kCount;
      case WorkloadKind::kEnum:
        return QueryKind::kEnum;
      default:
        return QueryKind::kBool;
    }
  };

  for (const DatasetBundle& bundle : bundles) {
    TablePrinter kind_table(
        "scenarios / " + bundle.name() + ": query kinds at " +
            std::to_string(max_threads) + " threads (skewed workload)",
        {"method", "kind", "batch qps", "shared qps", "shared speedup",
         "result vertices"});
    TablePrinter any_table(
        "scenarios / " + bundle.name() + ": any_of_k vs k boolean queries",
        {"method", "k", "any qps", "k-bool equiv qps", "speedup"});
    TablePrinter enum_table(
        "scenarios / " + bundle.name() + ": enum vs repeated-bool emulation",
        {"method", "enum us/q", "repeated-bool us/q", "speedup",
         "venues/region"});

    for (const MethodConfig& config : ScenarioMethodConfigs()) {
      const TimedMethod built = BuildTimed(bundle.cn.get(), config);
      const std::string method_name = MethodKindName(config.kind);
      exec::ThreadPool pool(max_threads);

      // The skewed production shape the scheduler targets: hot query
      // vertices re-issuing a small pool of regions. Fresh generator per
      // method so every method sees the identical stream.
      WorkloadGenerator workload(bundle.network.get(), /*seed=*/20250808);
      QuerySpec spec;
      spec.count = options.queries;
      spec.vertex_zipf = 1.0;
      spec.regions_per_vertex = 4;
      const std::vector<RangeReachQuery> queries =
          TileBatch(workload.Generate(spec), /*min_size=*/2000);
      batch_size = queries.size();

      for (const WorkloadKind kind : kinds) {
        KindMeasurement m;
        m.dataset = bundle.name();
        m.method = method_name;
        m.kind = kind;
        const QueryKind qk = to_query_kind(kind);
        m.batch_qps = MeasureKindQps(*built.method, queries, pool, qk,
                                     /*shared=*/false, &m.true_answers,
                                     &m.result_vertices);
        m.shared_qps = MeasureKindQps(*built.method, queries, pool, qk,
                                      /*shared=*/true, &m.true_answers,
                                      &m.result_vertices);
        m.shared_speedup =
            m.batch_qps > 0.0 ? m.shared_qps / m.batch_qps : 0.0;
        kind_all.push_back(m);
        kind_table.AddRow({method_name, WorkloadKindName(kind),
                           TablePrinter::FormatNumber(m.batch_qps, 4),
                           TablePrinter::FormatNumber(m.shared_qps, 4),
                           TablePrinter::FormatNumber(m.shared_speedup, 3) +
                               "x",
                           std::to_string(m.result_vertices)});
      }

      // any_of_k against its k-boolean emulation on identical sources.
      {
        WorkloadGenerator any_workload(bundle.network.get(),
                                       /*seed=*/20250808);
        QuerySpec any_spec = spec;
        any_spec.kind = WorkloadKind::kAnyOfK;
        any_spec.any_k = 4;
        const std::vector<AnyReachQuery> any_queries =
            any_workload.GenerateAnyReach(any_spec);

        std::vector<RangeReachQuery> expanded;
        expanded.reserve(any_queries.size() * any_spec.any_k);
        for (const AnyReachQuery& q : any_queries) {
          for (const VertexId source : q.sources) {
            expanded.push_back({source, q.region});
          }
        }

        AnyMeasurement m;
        m.dataset = bundle.name();
        m.method = method_name;
        m.k = any_spec.any_k;
        m.any_qps =
            MeasureAnyQps(*built.method, any_queries, pool, &m.true_answers);
        size_t expanded_true = 0;
        uint64_t ignored = 0;
        const double bool_qps =
            MeasureKindQps(*built.method, expanded, pool, QueryKind::kBool,
                           /*shared=*/false, &expanded_true, &ignored);
        m.bool_equiv_qps = bool_qps / static_cast<double>(any_spec.any_k);
        m.speedup =
            m.bool_equiv_qps > 0.0 ? m.any_qps / m.bool_equiv_qps : 0.0;
        any_all.push_back(m);
        any_table.AddRow({method_name, std::to_string(m.k),
                          TablePrinter::FormatNumber(m.any_qps, 4),
                          TablePrinter::FormatNumber(m.bool_equiv_qps, 4),
                          TablePrinter::FormatNumber(m.speedup, 3) + "x"});
      }

      // The headline: enum against the pre-refactor venue-probe loop, on
      // the untiled workload (each distinct query once — the emulation's
      // per-venue probes make tiled repetition pointlessly slow).
      {
        WorkloadGenerator enum_workload(bundle.network.get(),
                                        /*seed=*/20250808);
        QuerySpec enum_spec = spec;
        enum_spec.count = std::min<uint32_t>(options.queries, 100);
        EnumVsBoolMeasurement m = MeasureEnumVsRepeatedBool(
            *built.method, *bundle.network,
            enum_workload.Generate(enum_spec));
        m.dataset = bundle.name();
        m.method = method_name;
        enum_all.push_back(m);
        enum_table.AddRow({method_name, Micros(m.enum_us),
                           Micros(m.repeated_bool_us),
                           TablePrinter::FormatNumber(m.speedup, 3) + "x",
                           TablePrinter::FormatNumber(m.avg_venues, 4)});
      }
    }

    kind_table.Print();
    any_table.Print();
    enum_table.Print();
    if (csv) {
      (void)kind_table.WriteCsv(options.out_dir + "/scenarios_" +
                                bundle.name() + ".csv");
    }
  }

  const std::string json_path = options.out_dir + "/BENCH_scenarios.json";
  WriteJson(json_path, kind_all, any_all, enum_all, batch_size, options.scale,
            max_threads);
  MirrorBenchJson(options, json_path);
  return 0;
}
