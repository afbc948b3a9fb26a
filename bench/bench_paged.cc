// Out-of-core serving: query latency through the paged access layer
// (LoadMode::kPaged — an explicit fixed-budget page cache over pread)
// versus the resident mmap baseline, across cache budgets of 5%, 25%,
// and 100% of the snapshot size.
//
// Three regimes per (method, budget):
//  - cold: the explicit cache is dropped AND the kernel page cache for
//    the snapshot file is invalidated (fadvise DONTNEED), so every page
//    the descent touches costs a device-backed pread — the restart-onto-
//    cold-storage story;
//  - warm: the same workload again with the cache in steady state — hits
//    serve from the arena, misses recycle frames under the clock sweep;
//  - mmap: the zero-copy resident baseline (pages faulted once up front).
//
// Expected shape: warm-cache latency lands within a small factor of
// resident mmap even at a 5% budget (descents touch a thin, hot slice of
// the index), while cold latency exposes the page-fill cost that mmap
// hides in page faults. Answers are verified query-by-query against the
// built index before any timing is reported.
//
// One pass of a few hundred sub-microsecond queries swings by up to 3x
// run to run, so each regime is repeated (mmap and warm kTimedPasses
// times, the cold drop-and-pass kColdPasses times) and reported as the
// median pass with its 25th/75th percentiles.
//
// Outputs one table + CSV per dataset (<out>/paged_<dataset>.csv) and a
// machine-readable <out>/BENCH_paged.json mirrored to the repo root.

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#if defined(__linux__) || defined(__APPLE__)
#include <fcntl.h>
#include <unistd.h>
#endif

#include "bench/bench_support.h"
#include "common/stopwatch.h"
#include "common/table_printer.h"
#include "core/method_snapshot.h"
#include "snapshot/page_cache.h"

namespace {

using namespace gsr;         // NOLINT
using namespace gsr::bench;  // NOLINT

constexpr int kTimedPasses = 7;
constexpr int kColdPasses = 3;

/// Median and quartiles of repeated passes' average µs per query.
struct Spread {
  double p25 = 0.0;
  double median = 0.0;
  double p75 = 0.0;
};

/// Quartiles of the passes, linearly interpolated between sorted ranks.
Spread SpreadOf(std::vector<double> passes) {
  std::sort(passes.begin(), passes.end());
  const auto at = [&](double q) {
    const double pos = q * static_cast<double>(passes.size() - 1);
    const size_t lo = static_cast<size_t>(pos);
    const size_t hi = std::min(lo + 1, passes.size() - 1);
    return passes[lo] +
           (pos - static_cast<double>(lo)) * (passes[hi] - passes[lo]);
  };
  return Spread{at(0.25), at(0.5), at(0.75)};
}

/// Runs `pass` (which returns one pass's average µs per query) `n` times.
template <typename Pass>
Spread Repeat(int n, Pass&& pass) {
  std::vector<double> passes;
  for (int i = 0; i < n; ++i) passes.push_back(pass());
  return SpreadOf(std::move(passes));
}

struct Measurement {
  std::string dataset;
  std::string method;
  size_t file_bytes = 0;
  size_t index_bytes = 0;
  double budget_fraction = 0.0;
  size_t budget_bytes = 0;
  size_t frames = 0;
  size_t resident_bytes = 0;  // R-tree prefix kept out of budget_bytes.
  Spread cold_us;
  Spread warm_us;
  Spread mmap_us;
  double warm_over_mmap = 0.0;  // Median warm / median mmap.
  uint64_t cold_misses = 0;     // Cache counters of the last cold pass
  uint64_t cold_evictions = 0;  // and of the last warm pass.
  uint64_t warm_hits = 0;
  uint64_t warm_misses = 0;
};

size_t FileSize(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return 0;
  std::fseek(f, 0, SEEK_END);
  const long size = std::ftell(f);
  std::fclose(f);
  return size > 0 ? static_cast<size_t>(size) : 0;
}

/// Asks the kernel to forget its cached pages of `path`, so the next
/// pread is device-backed. Advisory: on platforms without fadvise the
/// "cold" numbers measure a cold explicit cache over a warm OS cache.
void DropOsCache(const std::string& path) {
#if defined(__linux__)
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) return;
  ::fsync(fd);
  (void)::posix_fadvise(fd, 0, 0, POSIX_FADV_DONTNEED);
  ::close(fd);
#elif defined(__APPLE__)
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) return;
  (void)::fcntl(fd, F_NOCACHE, 1);
  ::close(fd);
#else
  (void)path;
#endif
}

/// Loads in `mode`, checks the result answers every query exactly like
/// `built`, and returns the LoadedMethod. Exits on failure or divergence.
LoadedMethod VerifiedLoad(const CondensedNetwork* cn, const std::string& path,
                          snapshot::LoadMode mode, size_t budget_bytes,
                          const RangeReachMethod& built,
                          const std::vector<RangeReachQuery>& queries) {
  auto loaded = LoadMethodSnapshot(
      cn, path, {.mode = mode, .page_cache_bytes = budget_bytes});
  if (!loaded.ok()) {
    std::fprintf(stderr, "error: loading %s failed: %s\n", path.c_str(),
                 loaded.status().ToString().c_str());
    std::exit(1);
  }
  for (const RangeReachQuery& query : queries) {
    if (loaded->method->EvaluateQuery(query) != built.EvaluateQuery(query)) {
      std::fprintf(stderr,
                   "error: %s-loaded %s diverges from the built index\n",
                   mode == snapshot::LoadMode::kPaged ? "paged" : "mmap",
                   built.name().c_str());
      std::exit(1);
    }
  }
  return std::move(loaded).value();
}

void WriteJson(const std::string& path, const std::vector<Measurement>& all,
               double scale) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "warning: cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(f, "{\n  \"bench\": \"paged\",\n  \"scale\": %g,\n", scale);
  std::fprintf(f,
               "  \"passes\": {\"cold\": %d, \"warm\": %d, \"mmap\": %d},\n",
               kColdPasses, kTimedPasses, kTimedPasses);
  std::fprintf(f, "  \"measurements\": [\n");
  const auto spread = [](const Spread& s) {
    char out[96];
    std::snprintf(out, sizeof(out),
                  "{\"median\": %.3f, \"p25\": %.3f, \"p75\": %.3f}",
                  s.median, s.p25, s.p75);
    return std::string(out);
  };
  for (size_t i = 0; i < all.size(); ++i) {
    const Measurement& m = all[i];
    std::fprintf(
        f,
        "    {\"dataset\": \"%s\", \"method\": \"%s\", "
        "\"file_bytes\": %zu, \"index_bytes\": %zu, "
        "\"budget_fraction\": %.2f, \"budget_bytes\": %zu, "
        "\"frames\": %zu, \"resident_bytes\": %zu, "
        "\"cold_us\": %s, \"warm_us\": %s, "
        "\"mmap_us\": %s, \"warm_over_mmap\": %.2f, "
        "\"cold_misses\": %llu, \"cold_evictions\": %llu, "
        "\"warm_hits\": %llu, \"warm_misses\": %llu}%s\n",
        m.dataset.c_str(), m.method.c_str(), m.file_bytes, m.index_bytes,
        m.budget_fraction, m.budget_bytes, m.frames, m.resident_bytes,
        spread(m.cold_us).c_str(), spread(m.warm_us).c_str(),
        spread(m.mmap_us).c_str(), m.warm_over_mmap,
        static_cast<unsigned long long>(m.cold_misses),
        static_cast<unsigned long long>(m.cold_evictions),
        static_cast<unsigned long long>(m.warm_hits),
        static_cast<unsigned long long>(m.warm_misses),
        i + 1 < all.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::fprintf(stderr, "[paged] wrote %s\n", path.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  const BenchOptions options = BenchOptions::Parse(argc, argv);
  const auto bundles = LoadDatasets(options);
  const bool csv = EnsureDir(options.out_dir);

  // The snapshot-heavy methods of the comparison: the 3D R-tree descents
  // (3DReach both orientations) and the interval-labeling probe path
  // (SpaReach-INT) — together they exercise every paged structure.
  std::vector<MethodConfig> configs;
  for (const MethodKind kind :
       {MethodKind::kThreeDReach, MethodKind::kThreeDReachRev,
        MethodKind::kSpaReachInt}) {
    MethodConfig config;
    config.kind = kind;
    configs.push_back(config);
  }
  const double kBudgetFractions[] = {0.05, 0.25, 1.0};

  std::vector<Measurement> all;
  for (const DatasetBundle& bundle : bundles) {
    WorkloadGenerator workload(bundle.network.get(), /*seed=*/20250805);
    QuerySpec spec;
    spec.count = std::min<uint32_t>(options.queries, 200);
    const std::vector<RangeReachQuery> queries = workload.Generate(spec);

    TablePrinter table(
        "paged serving / " + bundle.name() +
            ": explicit cache vs resident mmap (median pass, avg "
            "microseconds per query)",
        {"method", "budget", "frames", "resident", "cold", "warm", "mmap",
         "warm/mmap", "warm hit%"});

    for (const MethodConfig& config : configs) {
      const std::string method_name = MethodKindName(config.kind);
      const TimedMethod built = BuildTimed(bundle.cn.get(), config);

      const std::string path = options.out_dir + "/paged_" + bundle.name() +
                               "_" + method_name + ".snap";
      const Status saved =
          SaveMethodSnapshot(*built.method, config, *bundle.cn, path);
      if (!saved.ok()) {
        std::fprintf(stderr, "error: saving %s failed: %s\n",
                     method_name.c_str(), saved.ToString().c_str());
        return 1;
      }
      const size_t file_bytes = FileSize(path);

      // Resident baseline: mmap, faulted in by the verification pass.
      const LoadedMethod resident = VerifiedLoad(
          bundle.cn.get(), path, snapshot::LoadMode::kMmap, 0, *built.method,
          queries);
      const Spread mmap_us = Repeat(kTimedPasses, [&] {
        return MeasureQueries(*resident.method, queries).avg_micros;
      });

      for (const double fraction : kBudgetFractions) {
        const size_t budget = std::max<size_t>(
            static_cast<size_t>(static_cast<double>(file_bytes) * fraction),
            1);
        const LoadedMethod paged =
            VerifiedLoad(bundle.cn.get(), path, snapshot::LoadMode::kPaged,
                         budget, *built.method, queries);

        // Cold: both cache layers emptied, every touched page preads.
        const Spread cold_us = Repeat(kColdPasses, [&] {
          paged.page_cache->Drop();
          DropOsCache(path);
          paged.page_cache->ResetStats();
          return MeasureQueries(*paged.method, queries).avg_micros;
        });
        const snapshot::PageCache::Stats cold_stats =
            paged.page_cache->GetStats();

        // Warm: steady state reached by the last cold pass.
        const Spread warm_us = Repeat(kTimedPasses, [&] {
          paged.page_cache->ResetStats();
          return MeasureQueries(*paged.method, queries).avg_micros;
        });
        const snapshot::PageCache::Stats warm_stats =
            paged.page_cache->GetStats();

        Measurement m;
        m.dataset = bundle.name();
        m.method = method_name;
        m.file_bytes = file_bytes;
        m.index_bytes = paged.method->IndexSizeBytes();
        m.budget_fraction = fraction;
        m.budget_bytes = budget;
        m.frames = paged.page_cache->num_frames();
        m.resident_bytes = paged.resident_bytes;
        m.cold_us = cold_us;
        m.warm_us = warm_us;
        m.mmap_us = mmap_us;
        m.warm_over_mmap = mmap_us.median > 0.0
                               ? warm_us.median / mmap_us.median
                               : 0.0;
        m.cold_misses = cold_stats.misses;
        m.cold_evictions = cold_stats.evictions;
        m.warm_hits = warm_stats.hits;
        m.warm_misses = warm_stats.misses;
        all.push_back(m);

        const uint64_t warm_total = m.warm_hits + m.warm_misses;
        const double warm_hit_pct =
            warm_total > 0
                ? 100.0 * static_cast<double>(m.warm_hits) /
                      static_cast<double>(warm_total)
                : 100.0;
        char budget_label[32];
        std::snprintf(budget_label, sizeof(budget_label), "%.0f%%",
                      fraction * 100.0);
        table.AddRow({method_name, budget_label, std::to_string(m.frames),
                      std::to_string(m.resident_bytes),
                      Micros(cold_us.median), Micros(warm_us.median),
                      Micros(mmap_us.median),
                      TablePrinter::FormatNumber(m.warm_over_mmap, 3),
                      TablePrinter::FormatNumber(warm_hit_pct, 4)});
      }
      std::remove(path.c_str());
    }

    table.Print();
    if (csv) {
      (void)table.WriteCsv(options.out_dir + "/paged_" + bundle.name() +
                           ".csv");
    }
  }

  const std::string json_path = options.out_dir + "/BENCH_paged.json";
  WriteJson(json_path, all, options.scale);
  MirrorBenchJson(options, json_path);
  return 0;
}
