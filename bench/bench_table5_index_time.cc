// Regenerates Table 5: indexing time in seconds per evaluation method
// (MBR-based SCC variant in parentheses). Expected shape: the SPA-graph of
// GeoReach is by far the most expensive to build on fragmented networks;
// the interval-labeling-based indexes stay close to SpaReach-BFL; the MBR
// variants add little on top of the replicate ones.
//
// In addition to the serial Table 5, this harness sweeps the parallel
// index-construction pipeline over thread counts 1, 2, 4, ... up to
// --threads (default: hardware concurrency) and writes a machine-readable
// <out>/BENCH_build.json with every (dataset, method, threads) build time,
// its speedup over the 1-thread build, the total index bytes, and the
// flat-label-store bytes (the Table 4 "interval labeling" component) for
// the labeling-based methods. The constructed index is identical at every
// thread count, so the sweep measures construction time only.

#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_support.h"
#include "common/table_printer.h"
#include "exec/thread_pool.h"
#include "labeling/interval_labeling.h"

namespace {

using namespace gsr;         // NOLINT
using namespace gsr::bench;  // NOLINT

std::string TimeCell(const CondensedNetwork* cn, MethodKind kind,
                     bool with_mbr_variant) {
  MethodConfig config;
  config.kind = kind;
  config.scc_mode = SccSpatialMode::kReplicate;
  const auto replicate = BuildTimed(cn, config);
  std::string cell = TablePrinter::FormatNumber(replicate.build_seconds);
  if (with_mbr_variant) {
    config.scc_mode = SccSpatialMode::kMbr;
    const auto mbr = BuildTimed(cn, config);
    cell += " (" + TablePrinter::FormatNumber(mbr.build_seconds) + ")";
  }
  return cell;
}

/// Thread counts to sweep: 1, 2, 4, ... up to `max_threads` (always
/// including `max_threads` itself).
std::vector<unsigned> ThreadSweep(unsigned max_threads) {
  std::vector<unsigned> sweep;
  for (unsigned t = 1; t < max_threads; t *= 2) sweep.push_back(t);
  sweep.push_back(max_threads);
  return sweep;
}

struct BuildMeasurement {
  std::string dataset;
  std::string method;
  unsigned threads = 0;
  double build_seconds = 0.0;
  double speedup = 1.0;  // vs the same method built with 1 thread.
  size_t index_bytes = 0;
  size_t flat_label_bytes = 0;
};

void WriteJson(const std::string& path,
               const std::vector<BuildMeasurement>& all,
               const std::vector<std::string>& datasets,
               const std::vector<unsigned>& sweep, double scale) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "warning: cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(f, "{\n  \"bench\": \"build\",\n  \"scale\": %g,\n", scale);
  std::fprintf(f, "  \"measurements\": [\n");
  for (size_t i = 0; i < all.size(); ++i) {
    const BuildMeasurement& m = all[i];
    std::fprintf(f,
                 "    {\"dataset\": \"%s\", \"method\": \"%s\", "
                 "\"threads\": %u, \"build_seconds\": %.6f, "
                 "\"speedup\": %.3f, \"index_bytes\": %zu, "
                 "\"flat_label_bytes\": %zu}%s\n",
                 m.dataset.c_str(), m.method.c_str(), m.threads,
                 m.build_seconds, m.speedup, m.index_bytes,
                 m.flat_label_bytes, i + 1 < all.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n  \"totals\": [\n");
  // Per-dataset end-to-end totals: the wall time to build ALL methods of
  // the sweep at a given thread count, and its speedup over 1 thread.
  bool first = true;
  for (const std::string& dataset : datasets) {
    double total_1t = 0.0;
    for (const unsigned threads : sweep) {
      double total = 0.0;
      for (const BuildMeasurement& m : all) {
        if (m.dataset == dataset && m.threads == threads) {
          total += m.build_seconds;
        }
      }
      if (threads == 1) total_1t = total;
      if (!first) std::fprintf(f, ",\n");
      first = false;
      std::fprintf(f,
                   "    {\"dataset\": \"%s\", \"threads\": %u, "
                   "\"build_seconds\": %.6f, \"speedup\": %.3f}",
                   dataset.c_str(), threads, total,
                   total > 0.0 ? total_1t / total : 1.0);
    }
  }
  std::fprintf(f, "\n  ]\n}\n");
  std::fclose(f);
  std::fprintf(stderr, "[build] wrote %s\n", path.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  const BenchOptions options = BenchOptions::Parse(argc, argv);
  const auto bundles = LoadDatasets(options);
  const bool csv = EnsureDir(options.out_dir);

  TablePrinter table(
      "Table 5: Indexing time [secs]; in parentheses, the MBR-based variant",
      {"dataset", "SpaReach-BFL", "SpaReach-INT", "GeoReach", "SocReach",
       "3DReach", "3DReach-REV"});

  for (const DatasetBundle& bundle : bundles) {
    const CondensedNetwork* cn = bundle.cn.get();
    table.AddRow({
        bundle.name(),
        TimeCell(cn, MethodKind::kSpaReachBfl, /*with_mbr_variant=*/true),
        TimeCell(cn, MethodKind::kSpaReachInt, true),
        TimeCell(cn, MethodKind::kGeoReach, false),
        TimeCell(cn, MethodKind::kSocReach, false),
        TimeCell(cn, MethodKind::kThreeDReach, true),
        TimeCell(cn, MethodKind::kThreeDReachRev, true),
    });
  }

  table.Print();
  if (csv) {
    (void)table.WriteCsv(options.out_dir + "/table5_index_time.csv");
  }

  // Parallel-build sweep (replicate mode, the paper's winning variant).
  const unsigned max_threads = options.threads != 0
                                   ? options.threads
                                   : exec::ThreadPool::DefaultThreads();
  const std::vector<unsigned> sweep = ThreadSweep(max_threads);
  const std::vector<MethodKind> kinds = {
      MethodKind::kSpaReachBfl,  MethodKind::kSpaReachInt,
      MethodKind::kGeoReach,     MethodKind::kSocReach,
      MethodKind::kThreeDReach,  MethodKind::kThreeDReachRev,
  };

  std::vector<BuildMeasurement> all;
  std::vector<std::string> dataset_names;
  for (const DatasetBundle& bundle : bundles) {
    dataset_names.push_back(bundle.name());

    std::vector<std::string> headers = {"method"};
    for (const unsigned t : sweep) {
      headers.push_back(std::to_string(t) + "T secs");
    }
    headers.push_back("speedup");
    TablePrinter sweep_table("parallel build / " + bundle.name() +
                                 ": threads 1.." + std::to_string(max_threads),
                             headers);

    for (const MethodKind kind : kinds) {
      MethodConfig config;
      config.kind = kind;
      config.scc_mode = SccSpatialMode::kReplicate;

      double secs_1t = 0.0;
      std::vector<std::string> cells = {MethodKindName(kind)};
      double last_secs = 0.0;
      for (const unsigned threads : sweep) {
        config.build.num_threads = threads;
        const TimedMethod built = BuildTimed(bundle.cn.get(), config);
        if (threads == 1) secs_1t = built.build_seconds;
        last_secs = built.build_seconds;

        BuildMeasurement m;
        m.dataset = bundle.name();
        m.method = MethodKindName(kind);
        m.threads = threads;
        m.build_seconds = built.build_seconds;
        m.speedup =
            built.build_seconds > 0.0 ? secs_1t / built.build_seconds : 1.0;
        m.index_bytes = built.method->IndexSizeBytes();
        // The frozen FlatLabelStore bytes (offsets + packed intervals);
        // zero for methods without an interval labeling.
        const IntervalLabeling* labeling = built.method->interval_labeling();
        m.flat_label_bytes =
            labeling == nullptr ? 0 : labeling->flat_store().SizeBytes();
        all.push_back(m);

        cells.push_back(TablePrinter::FormatNumber(built.build_seconds));
      }
      cells.push_back(TablePrinter::FormatNumber(
                          last_secs > 0.0 ? secs_1t / last_secs : 1.0) +
                      "x");
      sweep_table.AddRow(cells);
    }
    sweep_table.Print();
  }

  if (csv) {
    const std::string json_path = options.out_dir + "/BENCH_build.json";
    WriteJson(json_path, all, dataset_names, sweep, options.scale);
    MirrorBenchJson(options, json_path);
  }
  return 0;
}
