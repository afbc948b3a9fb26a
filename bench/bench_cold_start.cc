// Cold-start comparison: serving a dataset by rebuilding every index from
// scratch versus restoring it from a versioned binary snapshot
// (src/snapshot). For each method of the final comparison (Figure 7 set)
// this harness measures the 1-thread build time, the snapshot save time
// and file size, and the zero-copy mmap load time (map + validate, pages
// faulted lazily).
//
// Expected shape: snapshot loads sit orders of magnitude below rebuilds —
// loading is bounded by checksumming and page-table setup, while building
// runs graph traversals per vertex. The loaded method is verified
// query-by-query against the built one before any timing is reported.
//
// Outputs one table + CSV per dataset (<out>/cold_start_<dataset>.csv)
// and a machine-readable <out>/BENCH_snapshot.json with every
// (dataset, method) measurement and its load-vs-rebuild speedup.

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_support.h"
#include "common/stopwatch.h"
#include "common/table_printer.h"
#include "core/method_snapshot.h"

namespace {

using namespace gsr;         // NOLINT
using namespace gsr::bench;  // NOLINT

struct Measurement {
  std::string dataset;
  std::string method;
  double build_seconds = 0.0;
  double save_seconds = 0.0;
  size_t file_bytes = 0;
  double load_mmap_seconds = 0.0;
  size_t index_bytes = 0;
  // Build time over load time; the cold-start win of snapshots.
  double speedup_mmap = 0.0;
};

size_t FileSize(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return 0;
  std::fseek(f, 0, SEEK_END);
  const long size = std::ftell(f);
  std::fclose(f);
  return size > 0 ? static_cast<size_t>(size) : 0;
}

/// Loads the snapshot with kMmap, checks the result answers every query
/// exactly like `built`, and returns the load wall time. Exits on any
/// load failure or divergence — a bench over wrong answers is worthless.
double TimedVerifiedLoad(const CondensedNetwork* cn, const std::string& path,
                         const RangeReachMethod& built,
                         const std::vector<RangeReachQuery>& queries,
                         size_t* index_bytes) {
  Stopwatch watch;
  auto loaded =
      LoadMethodSnapshot(cn, path, {.mode = snapshot::LoadMode::kMmap});
  const double seconds = watch.ElapsedSeconds();
  if (!loaded.ok()) {
    std::fprintf(stderr, "error: loading %s failed: %s\n", path.c_str(),
                 loaded.status().ToString().c_str());
    std::exit(1);
  }
  for (const RangeReachQuery& query : queries) {
    if (loaded->method->EvaluateQuery(query) != built.EvaluateQuery(query)) {
      std::fprintf(stderr,
                   "error: snapshot-loaded %s diverges from the built index\n",
                   built.name().c_str());
      std::exit(1);
    }
  }
  *index_bytes = loaded->method->IndexSizeBytes();
  return seconds;
}

void WriteJson(const std::string& path, const std::vector<Measurement>& all,
               double scale) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "warning: cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(f, "{\n  \"bench\": \"snapshot\",\n  \"scale\": %g,\n", scale);
  std::fprintf(f, "  \"measurements\": [\n");
  for (size_t i = 0; i < all.size(); ++i) {
    const Measurement& m = all[i];
    std::fprintf(f,
                 "    {\"dataset\": \"%s\", \"method\": \"%s\", "
                 "\"build_seconds\": %.6f, \"save_seconds\": %.6f, "
                 "\"file_bytes\": %zu, \"index_bytes\": %zu, "
                 "\"load_mmap_seconds\": %.6f, \"speedup_mmap\": %.1f}%s\n",
                 m.dataset.c_str(), m.method.c_str(), m.build_seconds,
                 m.save_seconds, m.file_bytes, m.index_bytes,
                 m.load_mmap_seconds, m.speedup_mmap,
                 i + 1 < all.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::fprintf(stderr, "[cold_start] wrote %s\n", path.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  const BenchOptions options = BenchOptions::Parse(argc, argv);
  const auto bundles = LoadDatasets(options);
  const bool csv = EnsureDir(options.out_dir);

  std::vector<Measurement> all;
  for (const DatasetBundle& bundle : bundles) {
    WorkloadGenerator workload(bundle.network.get(), /*seed=*/20250805);
    QuerySpec spec;
    spec.count = std::min<uint32_t>(options.queries, 200);
    const std::vector<RangeReachQuery> queries = workload.Generate(spec);

    TablePrinter table(
        "cold start / " + bundle.name() +
            ": 1-thread rebuild vs snapshot load (times in seconds)",
        {"method", "build", "save", "file MB", "load mmap", "speedup(mmap)"});

    // Aggregate cold start over the whole method set: what a server pays
    // to bring every index of the comparison online.
    Measurement total;
    total.dataset = bundle.name();
    total.method = "ALL";

    for (const MethodConfig& config : Figure7MethodConfigs()) {
      const std::string method_name = MethodKindName(config.kind);
      const TimedMethod built = BuildTimed(bundle.cn.get(), config);

      const std::string path = options.out_dir + "/cold_start_" +
                               bundle.name() + "_" + method_name + ".snap";
      Stopwatch watch;
      const Status saved =
          SaveMethodSnapshot(*built.method, config, *bundle.cn, path);
      const double save_seconds = watch.ElapsedSeconds();
      if (!saved.ok()) {
        std::fprintf(stderr, "error: saving %s failed: %s\n",
                     method_name.c_str(), saved.ToString().c_str());
        return 1;
      }

      Measurement m;
      m.dataset = bundle.name();
      m.method = method_name;
      m.build_seconds = built.build_seconds;
      m.save_seconds = save_seconds;
      m.file_bytes = FileSize(path);
      m.load_mmap_seconds = TimedVerifiedLoad(bundle.cn.get(), path,
                                              *built.method, queries,
                                              &m.index_bytes);
      m.speedup_mmap = m.load_mmap_seconds > 0.0
                           ? m.build_seconds / m.load_mmap_seconds
                           : 0.0;
      all.push_back(m);
      total.build_seconds += m.build_seconds;
      total.save_seconds += m.save_seconds;
      total.file_bytes += m.file_bytes;
      total.index_bytes += m.index_bytes;
      total.load_mmap_seconds += m.load_mmap_seconds;
      std::remove(path.c_str());

      table.AddRow({method_name,
                    TablePrinter::FormatNumber(m.build_seconds, 4),
                    TablePrinter::FormatNumber(m.save_seconds, 4),
                    Mb(m.file_bytes),
                    TablePrinter::FormatNumber(m.load_mmap_seconds, 4),
                    TablePrinter::FormatNumber(m.speedup_mmap, 1)});
    }

    total.speedup_mmap = total.load_mmap_seconds > 0.0
                             ? total.build_seconds / total.load_mmap_seconds
                             : 0.0;
    all.push_back(total);
    table.AddRow({"ALL", TablePrinter::FormatNumber(total.build_seconds, 4),
                  TablePrinter::FormatNumber(total.save_seconds, 4),
                  Mb(total.file_bytes),
                  TablePrinter::FormatNumber(total.load_mmap_seconds, 4),
                  TablePrinter::FormatNumber(total.speedup_mmap, 1)});

    table.Print();
    if (csv) {
      (void)table.WriteCsv(options.out_dir + "/cold_start_" + bundle.name() +
                           ".csv");
    }
  }

  const std::string json_path = options.out_dir + "/BENCH_snapshot.json";
  WriteJson(json_path, all, options.scale);
  MirrorBenchJson(options, json_path);
  return 0;
}
