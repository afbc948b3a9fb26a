#ifndef GSR_BENCH_BENCH_SUPPORT_H_
#define GSR_BENCH_BENCH_SUPPORT_H_

#include <memory>
#include <string>
#include <vector>

#include "core/condensed_network.h"
#include "core/geosocial_network.h"
#include "core/method_factory.h"
#include "core/range_reach.h"
#include "datagen/generator.h"
#include "datagen/workload.h"
#include "exec/thread_pool.h"

namespace gsr::bench {

/// Command-line options shared by all paper-table harnesses.
///
///   --scale <f>    dataset scale factor in (0, 1]; 1.0 is ~1:40 of the
///                  paper's Table 3 (default 0.25 so the full suite runs in
///                  minutes on a laptop)
///   --queries <n>  queries per configuration (paper: 1000; default 200)
///   --out <dir>    directory for CSV outputs (default "results")
///   --datasets a,b comma-separated subset of
///                  foursquare,gowalla,weeplaces,yelp
///   --threads <n>  worker threads for throughput harnesses; 0 (default)
///                  means hardware concurrency
///   --kernel <k>   force the SIMD query-kernel level for the whole run:
///                  scalar | avx2 | native (default: native
///                  dispatch, i.e. the strongest level the CPU supports)
struct BenchOptions {
  double scale = 0.25;
  uint32_t queries = 200;
  std::string out_dir = "results";
  std::vector<std::string> datasets = {"foursquare", "gowalla", "weeplaces",
                                       "yelp"};
  unsigned threads = 0;

  /// Parses argv; aborts with a usage message on unknown flags. A
  /// --kernel override is installed immediately via
  /// simd::SetKernelLevelFromString, so it applies to every measurement
  /// the harness makes.
  static BenchOptions Parse(int argc, char** argv);
};

/// One generated dataset with its shared preprocessing (condensation).
/// The network lives behind a unique_ptr so its address stays stable when
/// bundles move around (CondensedNetwork and methods keep pointers to it).
struct DatasetBundle {
  GeneratorConfig config;
  std::unique_ptr<GeoSocialNetwork> network;
  std::unique_ptr<CondensedNetwork> cn;

  const std::string& name() const { return config.name; }
};

/// Generates every dataset requested in `options` (prints progress).
std::vector<DatasetBundle> LoadDatasets(const BenchOptions& options);

/// A method instance plus the wall-clock seconds its construction took.
struct TimedMethod {
  std::unique_ptr<RangeReachMethod> method;
  double build_seconds = 0.0;
};

/// Builds a method and measures its indexing time (Table 5 semantics: the
/// shared condensation is preprocessing; labeling/R-tree/SPA-graph
/// construction is what is timed).
TimedMethod BuildTimed(const CondensedNetwork* cn, const MethodConfig& config);

/// Average query latency in microseconds over `queries`, plus the number
/// of TRUE answers (reported so runs are interpretable).
struct QueryStats {
  double avg_micros = 0.0;
  uint32_t true_answers = 0;
};
QueryStats MeasureQueries(const RangeReachMethod& method,
                          const std::vector<RangeReachQuery>& queries);

/// Parallel-batch throughput of one method at a fixed thread count:
/// queries per second over the whole batch plus per-query latency
/// percentiles (latency of a query = its own wall time on its worker, so
/// under contention qps and latency diverge — both are reported).
struct ThroughputStats {
  double wall_seconds = 0.0;
  double qps = 0.0;
  double p50_us = 0.0;
  double p95_us = 0.0;
  double p99_us = 0.0;
  size_t true_answers = 0;
};

/// Evaluates `queries` on `pool` via exec::BatchRunner and reports
/// throughput. The pool's size is the thread count of the measurement.
ThroughputStats MeasureThroughput(const RangeReachMethod& method,
                                  const std::vector<RangeReachQuery>& queries,
                                  exec::ThreadPool& pool);

/// Work-sharing counterpart of MeasureThroughput: the same warmup + timed
/// batch, but through BatchRunner::RunShared (the query scheduler).
/// Latency of a query is the wall time of its group — all members of a
/// group complete together. Answers are bit-identical to MeasureThroughput
/// on the same batch.
ThroughputStats MeasureThroughputShared(
    const RangeReachMethod& method,
    const std::vector<RangeReachQuery>& queries, exec::ThreadPool& pool);

/// Open-loop (arrival-driven) measurement. Queries arrive on a Poisson
/// process at `offered_qps` regardless of completion progress, the way a
/// production feed would; the dispatcher admits every arrived query as one
/// batch (shared or unshared) and each query's latency runs from its
/// *intended arrival time* to its batch's completion. This is the
/// coordinated-omission fix: the closed-loop percentiles of
/// MeasureThroughput time each query's own service only, so queueing
/// delay behind a slow query is silently dropped from the distribution;
/// here a backlog penalizes every query stuck behind it.
struct OpenLoopStats {
  double offered_qps = 0.0;
  double achieved_qps = 0.0;  // completions / wall; < offered when behind.
  double wall_seconds = 0.0;
  double p50_us = 0.0;  // Latency from intended arrival, not service time.
  double p95_us = 0.0;
  double p99_us = 0.0;
  size_t true_answers = 0;
  size_t dispatches = 0;  // Admitted batches.
  size_t max_batch = 0;   // Largest admitted backlog (queue depth proxy).
};
OpenLoopStats MeasureOpenLoop(const RangeReachMethod& method,
                              const std::vector<RangeReachQuery>& queries,
                              exec::ThreadPool& pool, double offered_qps,
                              bool shared, uint64_t seed = 20250807);

/// Creates `dir` if needed; returns false (with a warning on stderr) when
/// that fails — CSV output is then skipped.
bool EnsureDir(const std::string& dir);

/// Copies a freshly written <out>/BENCH_*.json over the tracked copy in
/// the current working directory (the repo root when benches are run per
/// README), so the two can never drift. Only a run with the default
/// --out mirrors: a run told to write elsewhere (a smoke run into /tmp)
/// leaves the tracked copies alone. No-op when the bench already wrote
/// to the working directory; a failed copy only warns.
void MirrorBenchJson(const BenchOptions& options,
                     const std::string& json_path);

/// One curve of a figure: a display label and the method answering it.
struct FigureSeries {
  std::string label;
  const RangeReachMethod* method = nullptr;
};

/// Runs the paper's query-parameter sweeps for one dataset and a set of
/// method series, exactly like Figures 5-7:
///  - vary the region extent over {1,2,5,10,20}% (degree fixed at the
///    default bucket [50-99]);
///  - vary the query-vertex out-degree bucket (extent fixed at 5%);
///  - when `include_selectivity`, vary the spatial selectivity over
///    {0.001,0.01,0.1,1}% of |V|.
/// Prints one table per sweep (average time per query in microseconds and
/// the TRUE-answer ratio of the batch) and writes
/// <out>/<file_tag>_<dataset>_{extent,degree,selectivity}.csv.
void RunQuerySweeps(
    const BenchOptions& options, const std::string& file_tag,
    const DatasetBundle& bundle, const std::vector<FigureSeries>& series,
    bool include_selectivity);

/// "12.3" style fixed formatting helpers for table cells.
std::string Mb(size_t bytes);
std::string Micros(double micros);

}  // namespace gsr::bench

#endif  // GSR_BENCH_BENCH_SUPPORT_H_
