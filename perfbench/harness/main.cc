// gsr_perfbench: one run of one benchmark workload.
//
//   gsr_perfbench --workload serve_planner|serve_paged|churn --seed N
//                 --seconds S --trace 0|1 [--scale F] [--out DIR]
//                 [--commit SHA] [--source-sha SHA]
//
// Prints a detail record ({"perfbench": ...}: reproducibility record,
// drift sources, sample counts) and, as the last line, the result:
// {"correct", "attempted", "failed", "metrics"}. --trace 0 reports the
// end-to-end metrics, --trace 1 the per-layer ones (metrics.h). Exits 1
// when any answer or update was wrong, 2 on bad flags.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <thread>

#include "harness/metrics.h"
#include "harness/support.h"
#include "harness/workloads.h"

namespace {

using perfbench::Json;
using perfbench::MetricDef;
using perfbench::Options;
using perfbench::RunResult;

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "error: %s\nusage: gsr_perfbench --workload "
               "serve_planner|serve_paged|churn --seed N --seconds S "
               "--trace 0|1 [--scale F] [--out DIR] [--commit SHA] "
               "[--source-sha SHA]\n",
               why);
  std::exit(2);
}

Options Parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      o.workload = value;
    } else if (flag == "--seed") {
      o.seed = std::strtoull(value.c_str(), &end, 10);
    } else if (flag == "--seconds") {
      o.seconds = std::strtod(value.c_str(), &end);
    } else if (flag == "--trace") {
      o.trace = value == "1";
      if (value != "0" && value != "1") Usage("--trace takes 0 or 1");
    } else if (flag == "--scale") {
      o.scale = std::strtod(value.c_str(), &end);
    } else if (flag == "--out") {
      o.out_dir = value;
    } else if (flag == "--commit") {
      o.commit = value;
    } else if (flag == "--source-sha") {
      o.source_sha = value;
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
    if (end != nullptr && *end != '\0') Usage(("bad value for " + flag).c_str());
  }
  if (o.workload.empty()) Usage("--workload is required");
  if (!(o.seconds > 0.0)) Usage("--seconds must be positive");
  if (!(o.scale > 0.0 && o.scale <= 1.0)) Usage("--scale must be in (0, 1]");
  o.threads = std::clamp(std::thread::hardware_concurrency(), 1u, 4u);
  return o;
}

std::string MetricsJson(const RunResult& r,
                        const std::vector<MetricDef>& defs) {
  std::string out = "{";
  for (size_t i = 0; i < defs.size(); ++i) {
    const auto it = r.metrics.find(std::string(defs[i].name));
    if (i != 0) out += ", ";
    out += '"';
    out += defs[i].name;
    out += "\": {\"value\": ";
    out += perfbench::FormatNumber(it->second);
    out += ", \"unit\": \"";
    out += defs[i].unit;
    out += "\"}";
  }
  return out + "}";
}

}  // namespace

int main(int argc, char** argv) {
  Options options = Parse(argc, argv);
  std::error_code ec;
  std::filesystem::create_directories(options.out_dir, ec);
  if (ec) {
    std::fprintf(stderr, "error: cannot create %s\n", options.out_dir.c_str());
    return 1;
  }

  RunResult result;
  int rc = 0;
  if (options.workload == "serve_planner") {
    rc = perfbench::RunServePlanner(options, result);
  } else if (options.workload == "serve_paged") {
    rc = perfbench::RunServePaged(options, result);
  } else if (options.workload == "churn") {
    rc = perfbench::RunChurn(options, result);
  } else {
    Usage(("unknown workload " + options.workload).c_str());
  }
  if (rc != 0) return rc;

  // Every end-to-end metric must have been measured; per-layer metrics of
  // layers this workload does not run read 0 and are listed as idle.
  const auto& defs = options.trace ? perfbench::PerLayerMetrics()
                                   : perfbench::EndToEndMetrics();
  std::string idle;
  for (const MetricDef& def : defs) {
    const std::string name(def.name);
    if (result.metrics.count(name) != 0) continue;
    if (!options.trace) {
      std::fprintf(stderr, "error: %s was not measured\n", name.c_str());
      return 1;
    }
    result.metrics[name] = 0.0;
    idle += (idle.empty() ? "" : " ") + name;
  }

  Json all;
  for (const auto& [name, value] : result.metrics) all.Num(name, value);
  const double fail_rate =
      result.attempted > 0 ? static_cast<double>(result.failed) /
                                 static_cast<double>(result.attempted)
                           : 1.0;
  result.detail.Num("fail_rate", fail_rate);
  result.detail.Num("peak_rss_mb", perfbench::PeakRssMb());
  result.detail.Str("idle_metrics", idle);
  result.detail.Obj("all_metrics", all);
  std::printf("{\"perfbench\": %s}\n", result.detail.Dump().c_str());

  const bool correct = result.failed == 0 && result.attempted > 0;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(result.attempted),
              static_cast<unsigned long long>(result.failed),
              MetricsJson(result, defs).c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
