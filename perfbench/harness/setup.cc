#include <cstdio>
#include <thread>

#include "common/simd.h"
#include "harness/workloads.h"

namespace perfbench {

using gsr::snapshot::LoadMode;

void SetupTimes::Report(RunResult& result) const {
  result.Set("setup_s", Median(total));
  result.Set("graph.condense_s", Median(condense));
  result.Set("core.build_s", Median(build));
  result.Set("snapshot.save_s", Median(save));
  result.Set("snapshot.load_s", Median(load));
}

bool SetUpServed(const gsr::GeoSocialNetwork& network,
                 const gsr::MethodConfig& config, const std::string& path,
                 LoadMode mode, double budget_fraction, Tracer* tracer,
                 unsigned trace_thread, Served& served, SetupTimes& times) {
  uint32_t request = 0, condense = 0, build = 0, save = 0, load = 0;
  if (tracer != nullptr) {
    request = tracer->Name("request");
    condense = tracer->Name("graph.condense");
    build = tracer->Name("core.build");
    save = tracer->Name("snapshot.save");
    load = tracer->Name("snapshot.load");
  }
  for (int rep = 0; rep < kSetupReps; ++rep) {
    // Release the previous repetition (and its mapping of `path`) first.
    served = Served{};
    ScopedSpan root(tracer, trace_thread, request, rep);
    const int64_t t0 = NowNs();
    {
      ScopedSpan span(tracer, trace_thread, condense, rep);
      served.cn = std::make_unique<gsr::CondensedNetwork>(&network);
    }
    const int64_t t1 = NowNs();
    {
      ScopedSpan span(tracer, trace_thread, build, rep);
      served.built = gsr::CreateMethod(served.cn.get(), config);
    }
    const int64_t t2 = NowNs();
    {
      ScopedSpan span(tracer, trace_thread, save, rep);
      const gsr::Status saved =
          gsr::SaveMethodSnapshot(*served.built, config, *served.cn, path);
      if (!saved.ok()) {
        std::fprintf(stderr, "error: saving %s failed: %s\n", path.c_str(),
                     saved.ToString().c_str());
        return false;
      }
    }
    const int64_t t3 = NowNs();
    served.file_bytes = FileBytes(path);
    {
      ScopedSpan span(tracer, trace_thread, load, rep);
      gsr::SnapshotLoadOptions load_options;
      load_options.mode = mode;
      load_options.page_cache_bytes = static_cast<size_t>(
          static_cast<double>(served.file_bytes) * budget_fraction);
      auto loaded = gsr::LoadMethodSnapshot(served.cn.get(), path,
                                            load_options);
      if (!loaded.ok()) {
        std::fprintf(stderr, "error: loading %s failed: %s\n", path.c_str(),
                     loaded.status().ToString().c_str());
        return false;
      }
      served.loaded = std::move(loaded).value();
    }
    const int64_t t4 = NowNs();
    times.total.push_back(static_cast<double>(t4 - t0) / 1e9);
    times.condense.push_back(static_cast<double>(t1 - t0) / 1e9);
    times.build.push_back(static_cast<double>(t2 - t1) / 1e9);
    times.save.push_back(static_cast<double>(t3 - t2) / 1e9);
    times.load.push_back(static_cast<double>(t4 - t3) / 1e9);
  }
  return true;
}

Json RunRecord(const Options& options, const std::string& dataset,
               const gsr::GeoSocialNetwork& network) {
  Json j;
  j.Str("workload", options.workload);
  j.Int("seed", options.seed);
  j.Num("scale", options.scale);
  j.Str("dataset", dataset);
  j.Int("vertices", network.num_vertices());
  j.Int("edges", network.num_edges());
  j.Str("network_fingerprint", NetworkFingerprint(network));
  j.Str("kernel", gsr::simd::KernelLevelName(gsr::simd::ActiveLevel()));
  j.Int("threads", options.threads);
  j.Int("hardware_threads", std::thread::hardware_concurrency());
  j.Str("cpu", CpuModel());
  j.Str("commit", options.commit);
  j.Str("source_sha256", options.source_sha);
  j.Num("seconds", options.seconds);
  j.Bool("trace", options.trace);
  return j;
}

}  // namespace perfbench
