#ifndef PERFBENCH_HARNESS_SUPPORT_H_
#define PERFBENCH_HARNESS_SUPPORT_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "core/geosocial_network.h"
#include "core/range_reach.h"
#include "core/update_log.h"
#include "exec/batch_runner.h"

namespace perfbench {

/// Command line of one benchmark run (see main.cc for the flags).
struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Dataset scale; 1.0 for every measured run, smaller for the self-test.
  double scale = 1.0;
  /// Scratch directory for snapshots, spills and the span file.
  std::string out_dir = ".bench_out";
  std::string commit = "unknown";
  std::string source_sha = "unknown";
  /// Pool workers of the serving phases: min(4, hardware threads).
  unsigned threads = 4;
};

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline double SecondsSince(int64_t start_ns) {
  return static_cast<double>(NowNs() - start_ns) / 1e9;
}

/// Median of `values` (0 when empty). Takes a copy: callers keep order.
double Median(std::vector<double> values);

/// Nearest-rank quantile: always one of the samples, never interpolated.
double Quantile(std::vector<double> values, double q);

/// A fixed-capacity uniform sample of a stream (Algorithm R, seeded), so
/// a ten-second run keeps at most `capacity` latencies however many
/// queries it answers. count() is the full stream length.
class Reservoir {
 public:
  explicit Reservoir(size_t capacity, uint64_t seed = 0x5EED)
      : capacity_(capacity), rng_(seed) {}

  void Add(double value);
  void Append(const Reservoir& other);

  uint64_t count() const { return count_; }
  const std::vector<double>& kept() const { return kept_; }

 private:
  size_t capacity_;
  uint64_t count_ = 0;
  gsr::Rng rng_;
  std::vector<double> kept_;
};

/// An insertion-ordered JSON object builder (numbers keep all digits).
class Json {
 public:
  Json& Num(const std::string& key, double value);
  Json& Int(const std::string& key, uint64_t value);
  Json& Str(const std::string& key, const std::string& value);
  Json& Bool(const std::string& key, bool value);
  Json& Obj(const std::string& key, const Json& value);
  Json& NumList(const std::string& key, const std::vector<double>& values);
  std::string Dump() const;

 private:
  std::vector<std::pair<std::string, std::string>> fields_;
};

std::string FormatNumber(double value);

/// 64-bit FNV-1a over the bytes fed in; the workload fingerprints.
class Fingerprint {
 public:
  void Bytes(const void* data, size_t len);
  void U64(uint64_t v) { Bytes(&v, sizeof(v)); }
  void F64(double v) { Bytes(&v, sizeof(v)); }
  uint64_t value() const { return hash_; }
  std::string Hex() const;

 private:
  uint64_t hash_ = 0xcbf29ce484222325ULL;
};

std::string NetworkFingerprint(const gsr::GeoSocialNetwork& network);
void AddQueries(Fingerprint& fp,
                const std::vector<gsr::RangeReachQuery>& queries);
std::string UpdatesFingerprint(const std::vector<gsr::Update>& updates);

/// Derives the seed of one input stream (queries, updates) from the run
/// seed; `stream` tells the streams apart.
uint64_t MixSeed(uint64_t stream, uint64_t seed);

std::string CpuModel();

/// Peak resident set size of this process (VmHWM), MB; 0 if unknown.
double PeakRssMb();

/// Size of a file in bytes (0 when missing).
uint64_t FileBytes(const std::string& path);

/// Answers of one batch as the reference produced them. Enum results are
/// kept as 64-bit fingerprints of the sorted vertex lists, so a run can
/// hold the references of many batches.
struct Expected {
  gsr::QueryKind kind = gsr::QueryKind::kBool;
  std::vector<uint8_t> answers;
  std::vector<uint64_t> counts;
  std::vector<uint64_t> enum_fingerprints;
};

Expected ToExpected(gsr::QueryKind kind, gsr::exec::BatchResult result);

/// Number of queries of `got` that disagree with `want`.
uint64_t CountMismatches(const Expected& want,
                         const gsr::exec::BatchResult& got);

/// What one workload run measured. Metrics are looked up by name in the
/// tables of metrics.h, which also fix their units.
struct RunResult {
  std::map<std::string, double> metrics;
  Json detail;
  uint64_t attempted = 0;
  uint64_t failed = 0;

  void Set(const std::string& name, double value);
};

/// Latency summary for the detail record: median, p99 and sample count.
Json LatencySummary(const Reservoir& samples);

/// What a closed loop measured.
struct LoopStats {
  double qps = 0.0;
  uint64_t queries = 0;
  std::vector<double> slice_qps;
  Reservoir latencies{1u << 20};
  uint64_t mismatches = 0;
};

/// The closed loop of the serving workloads: hand over batch i (cycling
/// through `expected.size()` batches), wait, check it, hand over the
/// next, until `seconds` have passed at a slice edge. Only `run(b)` — one
/// batch with record_latencies on — is timed. qps is the median over
/// slices of `slice_batches` consecutive batches (the total rate when a
/// run has fewer than three). `stop()` ends the loop early at a slice
/// edge (a traced run whose span budget is spent).
template <typename RunBatch, typename Stop>
LoopStats ClosedLoop(const std::vector<Expected>& expected,
                     size_t slice_batches, double seconds, RunBatch&& run,
                     Stop&& stop) {
  LoopStats s;
  double busy_seconds = 0.0;
  double slice_seconds = 0.0;
  uint64_t slice_queries = 0;
  const int64_t start = NowNs();
  for (size_t i = 0;; ++i) {
    if (i % slice_batches == 0 && i > 0 &&
        (SecondsSince(start) >= seconds || stop())) {
      break;
    }
    const size_t b = i % expected.size();
    const int64_t t0 = NowNs();
    const gsr::exec::BatchResult result = run(b);
    const double dt = static_cast<double>(NowNs() - t0) / 1e9;
    busy_seconds += dt;
    slice_seconds += dt;
    s.queries += result.answers.size();
    slice_queries += result.answers.size();
    if ((i + 1) % slice_batches == 0) {
      s.slice_qps.push_back(static_cast<double>(slice_queries) /
                            slice_seconds);
      slice_seconds = 0.0;
      slice_queries = 0;
    }
    for (const double us : result.latencies_us) s.latencies.Add(us);
    s.mismatches += CountMismatches(expected[b], result);
  }
  s.qps = s.slice_qps.size() >= 3
              ? Median(s.slice_qps)
              : static_cast<double>(s.queries) / busy_seconds;
  return s;
}

template <typename RunBatch>
LoopStats ClosedLoop(const std::vector<Expected>& expected,
                     size_t slice_batches, double seconds, RunBatch&& run) {
  return ClosedLoop(expected, slice_batches, seconds,
                    std::forward<RunBatch>(run), [] { return false; });
}

/// Serial ns per query of `method` over `batch` on one scratch; answers
/// that disagree with `expected` are added to `mismatches`.
double SerialNsPerQuery(const gsr::RangeReachMethod& method,
                        gsr::QueryScratch& scratch,
                        const std::vector<gsr::RangeReachQuery>& batch,
                        const Expected& expected, uint64_t& mismatches);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_SUPPORT_H_
