// Cost-based query planner A/B: the planner (O(1) observation pre-checks
// + per-query cost routing over a portfolio of fixed methods) against
// every one of its portfolio members run standalone, on a
// selectivity-stratified mixed workload — the regime the planner exists
// for. A fixed method is tuned for one selectivity band: the
// social-first scan wins tiny regions, the spatial-first probes win huge
// ones, and any single choice loses the other end. The planner's claim
// is that per-query routing plus stage-1 settles beat the *best* fixed
// method on the mix, not just the average one.
//
// Per dataset:
//  1. mixed-workload serial latency per method (portfolio members fixed,
//     then the planner), identical query stream, each method on its own
//     scratch — the headline "speedup vs best fixed";
//  2. the planner's settle accounting: what fraction of queries stage 1
//     answered without routing (negative: provably empty region or no
//     reachable spatial vertex; positive: reachable witness inside the
//     region) and where the routed remainder went.
//
// Outputs <out>/planner_<dataset>.csv per dataset plus a machine-readable
// <out>/BENCH_planner.json (mirrored over the tracked repo-root copy).

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_support.h"
#include "common/simd.h"
#include "common/stopwatch.h"
#include "common/table_printer.h"
#include "core/query_planner.h"
#include "datagen/workload.h"

namespace {

using namespace gsr;         // NOLINT
using namespace gsr::bench;  // NOLINT

// Repeat-to-minimum-wall-time, same policy as the throughput harnesses:
// one pass over a small mixed batch on a fast method is timer noise.
constexpr double kMinMeasuredSeconds = 0.2;
constexpr int kMaxMeasuredReps = 100;

struct SerialStats {
  double avg_us = 0.0;
  uint32_t true_answers = 0;
};

/// Serial per-query latency on the method-owned scratch: one warmup pass,
/// then whole-batch repetitions until enough wall time accumulates.
SerialStats MeasureSerial(const RangeReachMethod& method,
                          const std::vector<RangeReachQuery>& queries) {
  SerialStats stats;
  if (queries.empty()) return stats;
  for (const RangeReachQuery& query : queries) {
    (void)method.EvaluateQuery(query);
  }
  Stopwatch watch;
  size_t total = 0;
  int reps = 0;
  do {
    uint32_t trues = 0;
    for (const RangeReachQuery& query : queries) {
      if (method.EvaluateQuery(query)) ++trues;
    }
    stats.true_answers = trues;
    total += queries.size();
    ++reps;
  } while (watch.ElapsedSeconds() < kMinMeasuredSeconds &&
           reps < kMaxMeasuredReps);
  stats.avg_us = watch.ElapsedMicros() / static_cast<double>(total);
  return stats;
}

struct MethodMeasurement {
  std::string dataset;
  std::string method;
  double avg_us = 0.0;
  uint32_t true_answers = 0;
  double build_seconds = 0.0;
  size_t index_bytes = 0;
};

struct RoutedShare {
  std::string method;
  double share = 0.0;  // Fraction of *all* queries routed to this member.
};

struct PlannerMeasurement {
  std::string dataset;
  double avg_us = 0.0;
  std::string best_fixed;
  double best_fixed_us = 0.0;
  double speedup_vs_best_fixed = 0.0;
  double settled_negative_rate = 0.0;
  double settled_positive_rate = 0.0;
  std::vector<RoutedShare> routed;
};

void WriteJson(const std::string& path,
               const std::vector<SelectivityStratum>& strata,
               const std::vector<MethodMeasurement>& methods,
               const std::vector<PlannerMeasurement>& planners, double scale,
               uint32_t queries) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "warning: cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(f, "{\n  \"bench\": \"planner\",\n");
  std::fprintf(f, "  \"kernel\": \"%s\",\n",
               simd::KernelLevelName(simd::ActiveLevel()));
  std::fprintf(f, "  \"scale\": %g,\n  \"queries\": %u,\n", scale, queries);
  std::fprintf(f, "  \"strata\": [\n");
  for (size_t i = 0; i < strata.size(); ++i) {
    std::fprintf(f, "    {\"weight\": %g, \"extent_percent\": %g}%s\n",
                 strata[i].weight, strata[i].extent_percent,
                 i + 1 < strata.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n  \"fixed_methods\": [\n");
  for (size_t i = 0; i < methods.size(); ++i) {
    const MethodMeasurement& m = methods[i];
    std::fprintf(f,
                 "    {\"dataset\": \"%s\", \"method\": \"%s\", "
                 "\"avg_us\": %.3f, \"true_answers\": %u, "
                 "\"build_seconds\": %.3f, \"index_bytes\": %zu}%s\n",
                 m.dataset.c_str(), m.method.c_str(), m.avg_us,
                 m.true_answers, m.build_seconds, m.index_bytes,
                 i + 1 < methods.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n  \"planner\": [\n");
  for (size_t i = 0; i < planners.size(); ++i) {
    const PlannerMeasurement& m = planners[i];
    std::fprintf(f,
                 "    {\"dataset\": \"%s\", \"avg_us\": %.3f, "
                 "\"best_fixed\": \"%s\", \"best_fixed_us\": %.3f, "
                 "\"speedup_vs_best_fixed\": %.3f, "
                 "\"settled_negative_rate\": %.4f, "
                 "\"settled_positive_rate\": %.4f, \"routed\": [",
                 m.dataset.c_str(), m.avg_us, m.best_fixed.c_str(),
                 m.best_fixed_us, m.speedup_vs_best_fixed,
                 m.settled_negative_rate, m.settled_positive_rate);
    for (size_t r = 0; r < m.routed.size(); ++r) {
      std::fprintf(f, "{\"method\": \"%s\", \"share\": %.4f}%s",
                   m.routed[r].method.c_str(), m.routed[r].share,
                   r + 1 < m.routed.size() ? ", " : "");
    }
    std::fprintf(f, "]}%s\n", i + 1 < planners.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::fprintf(stderr, "[planner] wrote %s\n", path.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  const BenchOptions options = BenchOptions::Parse(argc, argv);
  const auto bundles = LoadDatasets(options);
  const bool csv = EnsureDir(options.out_dir);
  const std::vector<SelectivityStratum> strata = DefaultMixedStrata();

  std::vector<MethodMeasurement> method_all;
  std::vector<PlannerMeasurement> planner_all;
  double worst_speedup = -1.0;
  std::string worst_dataset;

  for (const DatasetBundle& bundle : bundles) {
    // The selectivity-stratified mix: half near-point lookups, a medium
    // band, and a heavy tail of huge regions (see DefaultMixedStrata).
    // One generator, one stream — every method answers the same queries.
    WorkloadGenerator workload(bundle.network.get(), /*seed=*/20250808);
    QuerySpec spec;
    spec.count = options.queries;
    spec.strata = strata;
    const std::vector<RangeReachQuery> queries = workload.Generate(spec);

    MethodConfig planner_config;
    planner_config.kind = MethodKind::kPlanner;

    TablePrinter table(
        "planner / " + bundle.name() +
            ": selectivity-mixed workload, serial per-query latency",
        {"method", "avg us/q", "TRUE %", "build s", "index MB"});

    double best_fixed_us = -1.0;
    std::string best_fixed;
    for (const MethodKind kind : planner_config.planner.portfolio) {
      MethodConfig config;
      config.kind = kind;
      const TimedMethod built = BuildTimed(bundle.cn.get(), config);
      const SerialStats stats = MeasureSerial(*built.method, queries);
      MethodMeasurement m;
      m.dataset = bundle.name();
      m.method = MethodKindName(kind);
      m.avg_us = stats.avg_us;
      m.true_answers = stats.true_answers;
      m.build_seconds = built.build_seconds;
      m.index_bytes = built.method->IndexSizeBytes();
      method_all.push_back(m);
      if (best_fixed_us < 0.0 || stats.avg_us < best_fixed_us) {
        best_fixed_us = stats.avg_us;
        best_fixed = m.method;
      }
      table.AddRow({m.method, Micros(m.avg_us),
                    TablePrinter::FormatNumber(
                        100.0 * m.true_answers /
                            static_cast<double>(queries.size()),
                        2),
                    TablePrinter::FormatNumber(m.build_seconds, 3),
                    Mb(m.index_bytes)});
    }

    const TimedMethod planner_built =
        BuildTimed(bundle.cn.get(), planner_config);
    const PlannedMethod& planner =
        static_cast<const PlannedMethod&>(*planner_built.method);
    planner.ResetCounters();
    const SerialStats planner_stats =
        MeasureSerial(*planner_built.method, queries);

    PlannerMeasurement pm;
    pm.dataset = bundle.name();
    pm.avg_us = planner_stats.avg_us;
    pm.best_fixed = best_fixed;
    pm.best_fixed_us = best_fixed_us;
    pm.speedup_vs_best_fixed =
        planner_stats.avg_us > 0.0 ? best_fixed_us / planner_stats.avg_us
                                   : 0.0;
    const PlannedMethod::Counters& counters = planner.counters();
    const double denom =
        std::max<double>(1.0, static_cast<double>(counters.queries));
    pm.settled_negative_rate =
        static_cast<double>(counters.settled_negative) / denom;
    pm.settled_positive_rate =
        static_cast<double>(counters.settled_positive) / denom;
    for (size_t k = 0; k < counters.routed.size(); ++k) {
      if (counters.routed[k] == 0) continue;
      pm.routed.push_back(
          {MethodKindName(static_cast<MethodKind>(k)),
           static_cast<double>(counters.routed[k]) / denom});
    }
    planner_all.push_back(pm);

    table.AddRow({"Planner", Micros(pm.avg_us),
                  TablePrinter::FormatNumber(
                      100.0 * planner_stats.true_answers /
                          static_cast<double>(queries.size()),
                      2),
                  TablePrinter::FormatNumber(planner_built.build_seconds, 3),
                  Mb(planner_built.method->IndexSizeBytes())});
    table.Print();
    if (csv) {
      (void)table.WriteCsv(options.out_dir + "/planner_" + bundle.name() +
                           ".csv");
    }

    TablePrinter settle_table(
        "planner / " + bundle.name() + ": stage-1 settles and routing",
        {"outcome", "share %"});
    settle_table.AddRow(
        {"settled FALSE (empty region / no spatial descendant)",
         TablePrinter::FormatNumber(100.0 * pm.settled_negative_rate, 2)});
    settle_table.AddRow(
        {"settled TRUE (witness point inside region)",
         TablePrinter::FormatNumber(100.0 * pm.settled_positive_rate, 2)});
    for (const RoutedShare& r : pm.routed) {
      settle_table.AddRow({"routed to " + r.method,
                           TablePrinter::FormatNumber(100.0 * r.share, 2)});
    }
    settle_table.Print();

    std::printf("planner / %s: %.2fx vs best fixed (%s, %.2f us -> %.2f "
                "us)\n\n",
                bundle.name().c_str(), pm.speedup_vs_best_fixed,
                best_fixed.c_str(), best_fixed_us, pm.avg_us);
    if (worst_speedup < 0.0 || pm.speedup_vs_best_fixed < worst_speedup) {
      worst_speedup = pm.speedup_vs_best_fixed;
      worst_dataset = bundle.name();
    }
  }

  if (worst_speedup >= 0.0) {
    std::printf("planner headline: worst-case %.2fx vs best fixed (%s)\n",
                worst_speedup, worst_dataset.c_str());
  }

  const std::string json_path = options.out_dir + "/BENCH_planner.json";
  WriteJson(json_path, strata, method_all, planner_all, options.scale,
            options.queries);
  MirrorBenchJson(options, json_path);
  return 0;
}
