#ifndef PERFBENCH_HARNESS_METRICS_H_
#define PERFBENCH_HARNESS_METRICS_H_

#include <string_view>
#include <vector>

namespace perfbench {

/// One reported metric: its name as BENCHMARK.json spells it, and unit.
struct MetricDef {
  std::string_view name;
  std::string_view unit;
};

/// Printed by every untraced run (--trace 0), on every workload.
inline const std::vector<MetricDef>& EndToEndMetrics() {
  static const std::vector<MetricDef> defs = {
      {"qps", "queries/s"},     {"query_p50_us", "us"},
      {"query_p99_us", "us"},   {"setup_s", "s"},
      {"index_mb", "MB"},
  };
  return defs;
}

/// Printed by every traced run (--trace 1), on every workload. A layer a
/// workload does not run reads 0 there and is listed as idle in the
/// run's detail record.
inline const std::vector<MetricDef>& PerLayerMetrics() {
  static const std::vector<MetricDef> defs = {
      // Set-up stages (all workloads).
      {"graph.condense_s", "s"},
      {"core.build_s", "s"},
      {"snapshot.save_s", "s"},
      {"snapshot.load_s", "s"},
      // Scheduler (serve_planner).
      {"exec.scheduler.queries_per_group", "queries/group"},
      {"exec.scheduler.dedup_ratio", "ratio"},
      {"exec.scheduler.group_build_us", "us"},
      // Planner stages (serve_planner).
      {"core.planner.settled_share", "fraction"},
      {"core.planner.routed_share.SpaReach-BFL", "fraction"},
      {"core.planner.routed_share.SocReach", "fraction"},
      {"core.planner.routed_share.3DReach", "fraction"},
      {"labeling.observations.settle_ns", "ns"},
      {"spatial.histogram.empty_ns", "ns"},
      {"core.planner.route_ns", "ns"},
      {"core.planner.member_ns.SpaReach-BFL", "ns"},
      {"core.planner.member_ns.SocReach", "ns"},
      {"core.planner.member_ns.3DReach", "ns"},
      {"core.planner.cost_base_ns.SpaReach-BFL", "ns"},
      {"core.planner.cost_base_ns.SocReach", "ns"},
      {"core.planner.cost_base_ns.3DReach", "ns"},
      {"core.planner.cost_per_unit_ns.SpaReach-BFL", "ns"},
      {"core.planner.cost_per_unit_ns.SocReach", "ns"},
      {"core.planner.cost_per_unit_ns.3DReach", "ns"},
      {"core.sink.finalize_ns", "ns"},
      // 3DReach descents (serve_paged, serve_planner).
      {"core.three_d_reach.range_queries_per_query", "count"},
      // Page cache (serve_paged).
      {"snapshot.page_cache.hit_rate", "fraction"},
      {"snapshot.page_cache.touches_per_query", "count"},
      {"snapshot.page_cache.misses_per_query", "count"},
      {"snapshot.page_cache.evictions_per_query", "count"},
      {"snapshot.page_cache.bypass_per_query", "count"},
      {"snapshot.page_cache.pin_unpin_ns", "ns"},
      {"snapshot.page_cache.pin_unpin_ns_contended", "ns"},
      {"core.three_d_reach.paged_eval_ns", "ns"},
      {"core.three_d_reach.mmap_eval_ns", "ns"},
      {"snapshot.paged_over_mmap", "ratio"},
      // Streaming engine (churn).
      {"exec.epoch.pin_ns", "ns"},
      {"exec.epoch.alive_max", "count"},
      {"exec.streaming.rebuilds", "count"},
      {"exec.streaming.snapshot_swaps", "count"},
      {"exec.streaming.rebuild_failures", "count"},
      {"exec.streaming.update_ups", "updates/s"},
      {"exec.streaming.update_p50_us", "us"},
      {"exec.streaming.update_p99_us", "us"},
      {"exec.streaming.drained_qps", "queries/s"},
      {"core.dynamic.delta_entries_mean", "count"},
      {"core.dynamic.risky_share", "fraction"},
      {"core.dynamic.base_build_s", "s"},
      {"core.dynamic.snapshot_roundtrip_s", "s"},
      {"core.dynamic.delta_after_flush", "count"},
      {"core.dynamic.view_eval_ns", "ns"},
      {"core.dynamic.base_eval_ns", "ns"},
      // Attribution check (all workloads).
      {"trace.unattributed_share", "fraction"},
      {"trace.overhead", "fraction"},
      {"trace.self_share.graph", "fraction"},
      {"trace.self_share.labeling", "fraction"},
      {"trace.self_share.spatial", "fraction"},
      {"trace.self_share.core", "fraction"},
      {"trace.self_share.exec", "fraction"},
      {"trace.self_share.snapshot", "fraction"},
  };
  return defs;
}

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_METRICS_H_
