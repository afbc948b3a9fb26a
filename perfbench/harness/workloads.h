#ifndef PERFBENCH_HARNESS_WORKLOADS_H_
#define PERFBENCH_HARNESS_WORKLOADS_H_

#include <memory>
#include <string>
#include <vector>

#include "core/condensed_network.h"
#include "core/method_snapshot.h"
#include "harness/support.h"
#include "harness/trace.h"

namespace perfbench {

/// The three workloads. Each fills `result` and returns 0, or prints the
/// reason to stderr and returns non-zero when it could not run at all.
int RunServePlanner(const Options& options, RunResult& result);
int RunServePaged(const Options& options, RunResult& result);
int RunChurn(const Options& options, RunResult& result);

/// Set-up repetitions per run; setup_s is their median.
inline constexpr int kSetupReps = 11;

/// A method as a served application holds it: the condensation, the
/// freshly built index, and the same index reloaded from its snapshot.
struct Served {
  std::unique_ptr<gsr::CondensedNetwork> cn;
  std::unique_ptr<gsr::RangeReachMethod> built;
  gsr::LoadedMethod loaded;
  uint64_t file_bytes = 0;
};

/// Stage times of the set-up repetitions, seconds.
struct SetupTimes {
  std::vector<double> total, condense, build, save, load;

  /// Sets setup_s and the four stage metrics (medians).
  void Report(RunResult& result) const;
};

/// Runs the set-up path kSetupReps times — condense, CreateMethod,
/// SaveMethodSnapshot to `path`, LoadMethodSnapshot in `mode` — and keeps
/// the last result. kPaged loads get `budget_fraction` of the snapshot
/// file as cache budget. With a tracer, each stage is a span. Returns
/// false (message on stderr) when a save or load fails.
bool SetUpServed(const gsr::GeoSocialNetwork& network,
                 const gsr::MethodConfig& config, const std::string& path,
                 gsr::snapshot::LoadMode mode, double budget_fraction,
                 Tracer* tracer, unsigned trace_thread, Served& served,
                 SetupTimes& times);

/// The reproducibility record shared by every workload.
Json RunRecord(const Options& options, const std::string& dataset,
               const gsr::GeoSocialNetwork& network);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_WORKLOADS_H_
