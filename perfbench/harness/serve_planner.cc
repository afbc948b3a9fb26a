// serve_planner: the application's main read path. The default-portfolio
// planner (SpaReach-BFL, SocReach, 3DReach) on foursquare, built, saved
// and reloaded kMmap, answers batches through BatchRunner::RunShared:
// the DefaultMixedStrata selectivity mix, Zipf(1.0) query vertices,
// four pooled regions per vertex, batches of 4096 (past the scheduler's
// 1024-query grouping threshold), kinds 8:1:1 bool:count:enum by batch.
//
// The traced run drives the same RunShared path with the planner behind
// a forwarding wrapper that records a span around each of the planner's
// grouped calls. The planner's stages (DefinitelyEmpty, SettleRange,
// RouteForTest, the members, Finalize) and GroupingArena::Build are then
// timed one at a time on the workload's own queries.

#include <algorithm>
#include <climits>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "common/check.h"
#include "core/method_factory.h"
#include "core/query_planner.h"
#include "core/three_d_reach.h"
#include "datagen/generator.h"
#include "datagen/workload.h"
#include "exec/batch_runner.h"
#include "exec/query_group.h"
#include "exec/query_scheduler.h"
#include "exec/thread_pool.h"
#include "harness/workloads.h"

namespace perfbench {

namespace {

using namespace gsr;  // NOLINT

constexpr size_t kBatchSize = 4096;
constexpr size_t kBatches = 200;
/// One 8:1:1 kind cycle; qps is the median over slices of this many
/// consecutive batches.
constexpr size_t kSliceBatches = 10;

QueryKind KindOfBatch(size_t i) {
  const size_t r = i % kSliceBatches;
  return r < 8 ? QueryKind::kBool
               : (r == 8 ? QueryKind::kCount : QueryKind::kEnum);
}

/// The served planner with a span around each of its grouped calls, so
/// the traced run drives the very RunShared path the untraced run
/// measures. Every scratch the scheduler makes (one per pool worker) is
/// a span lane; a scratch serves one thread at a time, so its lane needs
/// no lock. Per batch, a lane records an exec.scheduler.worker span from
/// its first group call to the end of its last, with a core.planner.group
/// span per call inside: the worker's time between calls (sink set-up,
/// Finalize of enum results, scatter, claiming the next group) is the
/// worker span's self time.
class TracedPlanner final : public RangeReachMethod {
 public:
  /// `caller` is the lane of the thread that calls RunShared; the
  /// scheduler's lanes are the ones before it.
  TracedPlanner(const PlannedMethod& planner, Tracer& tracer, unsigned caller)
      : planner_(planner),
        tracer_(tracer),
        caller_(caller),
        group_(tracer.Name("core.planner.group")),
        worker_(tracer.Name("exec.scheduler.worker")),
        wait_(tracer.Name("exec.scheduler.run.wait")) {}

  /// Starts batch `request`; lane spans become children of the caller's
  /// span `parent`.
  void BeginBatch(uint64_t request, uint32_t parent) {
    request_ = request;
    parent_ = parent;
  }

  /// Once RunShared has returned (the pool is idle): closes the lanes'
  /// worker spans and records the caller's wait, from the first group
  /// call to the end of the last.
  void EndBatch() {
    int64_t first = INT64_MAX;
    int64_t last = INT64_MIN;
    for (Lane* lane : lanes_) {
      if (lane->worker_span == Tracer::kNone) continue;
      const int64_t start = tracer_.span(lane->id, lane->worker_span).start_ns;
      const int64_t end = tracer_.span(lane->id, lane->last_group).end_ns;
      tracer_.EndAt(lane->id, lane->worker_span, end, lane->groups);
      first = std::min(first, start);
      last = std::max(last, end);
      lane->worker_span = Tracer::kNone;
      lane->groups = 0;
    }
    if (first < last) tracer_.Record(caller_, wait_, request_, first, last);
  }

  std::unique_ptr<QueryScratch> NewScratch() const override {
    auto lane = std::make_unique<Lane>();
    lane->inner = planner_.NewScratch();
    lane->id = static_cast<unsigned>(lanes_.size());
    GSR_CHECK(lane->id < caller_);
    lanes_.push_back(lane.get());
    return lane;
  }

  using RangeReachMethod::Evaluate;
  bool Evaluate(VertexId vertex, const Rect& region,
                QueryScratch& scratch) const override {
    return planner_.Evaluate(vertex, region, Inner(scratch));
  }
  void CollectInto(VertexId vertex, const Rect& region, ResultSink& sink,
                   QueryScratch& scratch) const override {
    planner_.CollectInto(vertex, region, sink, Inner(scratch));
  }
  void EvaluateGroup(VertexId vertex, std::span<const Rect> regions,
                     std::span<bool> out,
                     QueryScratch& scratch) const override {
    Lane& lane = Open(scratch);
    const uint32_t span = tracer_.Begin(lane.id, group_, request_);
    planner_.EvaluateGroup(vertex, regions, out, *lane.inner);
    Close(lane, span, regions.size());
  }
  void CollectGroupInto(VertexId vertex, std::span<const Rect> regions,
                        std::span<ResultSink> sinks,
                        QueryScratch& scratch) const override {
    Lane& lane = Open(scratch);
    const uint32_t span = tracer_.Begin(lane.id, group_, request_);
    planner_.CollectGroupInto(vertex, regions, sinks, *lane.inner);
    Close(lane, span, regions.size());
  }
  void DrainScratchCounters(QueryScratch& scratch) const override {
    planner_.DrainScratchCounters(Inner(scratch));
  }
  std::string name() const override { return planner_.name(); }
  size_t IndexSizeBytes() const override { return planner_.IndexSizeBytes(); }

 private:
  struct Lane : QueryScratch {
    std::unique_ptr<QueryScratch> inner;
    unsigned id = 0;
    uint32_t worker_span = Tracer::kNone;
    uint32_t last_group = Tracer::kNone;
    uint64_t groups = 0;
  };

  static QueryScratch& Inner(QueryScratch& scratch) {
    return *static_cast<Lane&>(scratch).inner;
  }
  Lane& Open(QueryScratch& scratch) const {
    Lane& lane = static_cast<Lane&>(scratch);
    if (lane.worker_span == Tracer::kNone) {
      lane.worker_span =
          tracer_.BeginChildOf(lane.id, worker_, request_, caller_, parent_);
    }
    return lane;
  }
  void Close(Lane& lane, uint32_t span, size_t regions) const {
    tracer_.End(lane.id, span, regions);
    lane.last_group = span;
    ++lane.groups;
  }

  const PlannedMethod& planner_;
  Tracer& tracer_;
  unsigned caller_;
  uint32_t group_, worker_, wait_;
  uint64_t request_ = 0;
  uint32_t parent_ = Tracer::kNone;
  /// The scratches handed to the scheduler, in creation order; only the
  /// calling thread touches the list.
  mutable std::vector<Lane*> lanes_;
};

/// Accumulated time of one stage over the calls it covered.
struct StageClock {
  double ns = 0.0;
  uint64_t calls = 0;

  void Add(int64_t start_ns, uint64_t n) {
    ns += static_cast<double>(NowNs() - start_ns);
    calls += n;
  }
  double NsPerCall() const {
    return calls > 0 ? ns / static_cast<double>(calls) : 0.0;
  }
};

/// The planner's stages one at a time on this thread, over the first
/// kind cycle of batches, in the order its single-query paths run them:
/// DefinitelyEmpty on every query; SettleRange on the non-empty boolean
/// ones (a count or enum query settles only on ReachesAnySpatial, not
/// timed); RouteForTest on the rest; then per member its Evaluate or
/// CollectInto on the queries routed to it, and Finalize on enum
/// results. Each stage is timed as one loop over its queries.
/// RouteForTest recomputes the histogram block sum that the served path
/// shares with the emptiness check. GroupingArena::Build is timed on each
/// batch, the scheduler's window. The stages' answers, put together, are
/// checked like a served batch.
void TimeStages(const PlannedMethod& planner, const CondensedNetwork& cn,
                const std::vector<std::vector<RangeReachQuery>>& batches,
                const std::vector<Expected>& expected, RunResult& result) {
  const size_t members = planner.num_members();
  std::vector<std::unique_ptr<QueryScratch>> scratch;
  for (size_t m = 0; m < members; ++m) {
    scratch.push_back(planner.member(m).NewScratch());
  }
  StageClock build, empty, settle, route, finalize;
  std::vector<StageClock> member(members);
  exec::GroupingArena arena;
  const Observations& observations = planner.network_observations();
  for (size_t b = 0; b < kSliceBatches; ++b) {
    const std::vector<RangeReachQuery>& batch = batches[b];
    const QueryKind kind = KindOfBatch(b);
    const size_t n = batch.size();
    int64_t t0 = NowNs();
    arena.Build(batch, exec::GroupingOptions{});
    build.Add(t0, 1);

    std::vector<uint8_t> is_empty(n);
    t0 = NowNs();
    for (size_t q = 0; q < n; ++q) {
      is_empty[q] = planner.histogram().DefinitelyEmpty(batch[q].region);
    }
    empty.Add(t0, n);

    exec::BatchResult got;
    got.answers.assign(n, 0);
    if (kind != QueryKind::kBool) got.counts.assign(n, 0);
    if (kind == QueryKind::kEnum) got.enums.assign(n, {});
    std::vector<size_t> open;  // Queries stage 1 left unsettled.
    if (kind == QueryKind::kBool) {
      std::vector<size_t> live;
      for (size_t q = 0; q < n; ++q) {
        if (is_empty[q] == 0) live.push_back(q);
      }
      std::vector<Observations::Verdict> verdict(live.size());
      t0 = NowNs();
      for (size_t i = 0; i < live.size(); ++i) {
        const RangeReachQuery& query = batch[live[i]];
        verdict[i] =
            observations.SettleRange(cn.ComponentOf(query.vertex), query.region);
      }
      settle.Add(t0, live.size());
      for (size_t i = 0; i < live.size(); ++i) {
        if (verdict[i] == Observations::Verdict::kYes) got.answers[live[i]] = 1;
        if (verdict[i] == Observations::Verdict::kUnknown) open.push_back(live[i]);
      }
    } else {
      for (size_t q = 0; q < n; ++q) {
        if (is_empty[q] == 0 &&
            observations.ReachesAnySpatial(cn.ComponentOf(batch[q].vertex))) {
          open.push_back(q);
        }
      }
    }

    std::vector<size_t> route_of(open.size());
    t0 = NowNs();
    for (size_t i = 0; i < open.size(); ++i) {
      route_of[i] = planner.RouteForTest(batch[open[i]].vertex,
                                         batch[open[i]].region);
    }
    route.Add(t0, open.size());

    for (size_t m = 0; m < members; ++m) {
      std::vector<size_t> mine;
      for (size_t i = 0; i < open.size(); ++i) {
        if (route_of[i] == m) mine.push_back(open[i]);
      }
      const RangeReachMethod& method = planner.member(m);
      if (kind == QueryKind::kBool) {
        t0 = NowNs();
        for (const size_t q : mine) {
          got.answers[q] =
              method.Evaluate(batch[q].vertex, batch[q].region, *scratch[m]);
        }
        member[m].Add(t0, mine.size());
        continue;
      }
      std::vector<ResultSink> sinks;
      for (const size_t q : mine) {
        sinks.push_back(kind == QueryKind::kCount
                            ? ResultSink::Count()
                            : ResultSink::Enum(&got.enums[q]));
      }
      t0 = NowNs();
      for (size_t i = 0; i < mine.size(); ++i) {
        method.CollectInto(batch[mine[i]].vertex, batch[mine[i]].region,
                           sinks[i], *scratch[m]);
      }
      member[m].Add(t0, mine.size());
      if (kind == QueryKind::kEnum) {
        t0 = NowNs();
        for (ResultSink& sink : sinks) sink.Finalize();
        finalize.Add(t0, sinks.size());
      }
      for (size_t i = 0; i < mine.size(); ++i) {
        got.counts[mine[i]] = sinks[i].count();
        got.answers[mine[i]] = sinks[i].found() ? 1 : 0;
      }
    }
    result.attempted += n;
    result.failed += CountMismatches(expected[b], got);
  }
  result.Set("exec.scheduler.group_build_us", build.NsPerCall() / 1e3);
  result.Set("spatial.histogram.empty_ns", empty.NsPerCall());
  result.Set("labeling.observations.settle_ns", settle.NsPerCall());
  result.Set("core.planner.route_ns", route.NsPerCall());
  result.Set("core.sink.finalize_ns", finalize.NsPerCall());
  for (size_t m = 0; m < members; ++m) {
    result.Set(std::string("core.planner.member_ns.") +
                   MethodKindName(planner.member_kind(m)),
               member[m].NsPerCall());
  }
}

/// Builds the planner as an application would, calibration on, and
/// records its fitted cost models (the per-layer cost metrics) and the
/// share of the workload's unsettled queries each member would get.
void CalibratedDrift(const CondensedNetwork& cn,
                     const std::vector<std::vector<RangeReachQuery>>& batches,
                     RunResult& result, Json& drift) {
  MethodConfig config;
  config.kind = MethodKind::kPlanner;
  const auto built = CreateMethod(&cn, config);
  const auto& planner = static_cast<const PlannedMethod&>(*built);
  std::vector<uint64_t> routed(planner.num_members(), 0);
  uint64_t total = 0;
  for (const auto& batch : batches) {
    for (const RangeReachQuery& q : batch) {
      ++total;
      if (planner.histogram().DefinitelyEmpty(q.region) ||
          planner.network_observations().SettleRange(
              cn.ComponentOf(q.vertex), q.region) !=
              Observations::Verdict::kUnknown) {
        continue;
      }
      ++routed[planner.RouteForTest(q.vertex, q.region)];
    }
  }
  for (size_t m = 0; m < planner.num_members(); ++m) {
    const std::string name = MethodKindName(planner.member_kind(m));
    const PlannedMethod::CostModel& model = planner.cost_model(m);
    result.Set("core.planner.cost_base_ns." + name, model.base_ns);
    result.Set("core.planner.cost_per_unit_ns." + name, model.per_unit_ns);
    drift.Num("calibrated.cost_base_ns." + name, model.base_ns);
    drift.Num("calibrated.cost_per_unit_ns." + name, model.per_unit_ns);
    drift.Num("calibrated.routed_share." + name,
              static_cast<double>(routed[m]) / static_cast<double>(total));
  }
}

}  // namespace

int RunServePlanner(const Options& options, RunResult& result) {
  // The dataset is fixed, like the paper's; the seed draws the workload.
  const GeneratorConfig dataset =
      BenchmarkDatasetConfig("foursquare", options.scale);
  const GeoSocialNetwork network = GenerateGeoSocialNetwork(dataset);
  Json record = RunRecord(options, dataset.name, network);

  std::unique_ptr<Tracer> tracer;
  if (options.trace) {
    tracer = std::make_unique<Tracer>(options.threads + 1, kMaxTraceSpans);
  }
  // The served planner routes by the deterministic default cost models:
  // the build-time calibration is timed, and on a shared machine its fit
  // moves enough between runs to flip routing (and qps with it). A
  // calibrated planner is still built below; its fit is the drift record.
  MethodConfig config;
  config.kind = MethodKind::kPlanner;
  config.planner.calibration_samples = 0;
  const std::string path = options.out_dir + "/serve_planner.snap";
  Served served;
  SetupTimes setup;
  if (!SetUpServed(network, config, path, snapshot::LoadMode::kMmap, 1.0,
                   tracer.get(), options.threads, served, setup)) {
    return 1;
  }
  setup.Report(result);
  result.Set("index_mb", static_cast<double>(served.file_bytes) / 1e6);
  const auto& planner =
      dynamic_cast<const PlannedMethod&>(*served.loaded.method);

  // The query stream. Each batch has its own generator, so hot vertices
  // repeat their pooled regions within a batch and draw new pools in the
  // next; a run then spans many pool draws instead of one.
  QuerySpec spec;
  spec.count = kBatchSize;
  spec.strata = DefaultMixedStrata();
  spec.vertex_zipf = 1.0;
  spec.regions_per_vertex = 4;
  std::vector<std::vector<RangeReachQuery>> batches;
  Fingerprint query_fp;
  for (size_t b = 0; b < kBatches; ++b) {
    WorkloadGenerator generator(&network, MixSeed(0x9A11E5 + b, options.seed));
    batches.push_back(generator.Generate(spec));
    AddQueries(query_fp, batches.back());
    query_fp.U64(static_cast<uint64_t>(KindOfBatch(b)));
  }
  record.Str("query_fingerprint", query_fp.Hex());

  // Reference answers from a resident 3DReach, outside any timing.
  exec::ThreadPool pool(options.threads);
  exec::BatchRunner runner(&pool);
  std::vector<Expected> expected;
  {
    MethodConfig reference_config;
    reference_config.kind = MethodKind::kThreeDReach;
    const auto reference = CreateMethod(served.cn.get(), reference_config);
    for (size_t b = 0; b < kBatches; ++b) {
      exec::BatchOptions batch_options;
      batch_options.kind = KindOfBatch(b);
      expected.push_back(ToExpected(
          batch_options.kind, runner.Run(*reference, batches[b], batch_options)));
    }
  }

  const ThreeDReach* three_d = nullptr;
  for (size_t m = 0; m < planner.num_members(); ++m) {
    if (planner.member_kind(m) == MethodKind::kThreeDReach) {
      three_d = &static_cast<const ThreeDReach&>(planner.member(m));
      three_d->ResetCounters();
    }
  }
  planner.ResetCounters();
  // One batch through RunShared; the traced run passes the wrapper.
  const auto run_shared = [&](const RangeReachMethod& method, size_t b) {
    exec::SchedulerOptions batch_options;
    batch_options.kind = KindOfBatch(b);
    batch_options.record_latencies = true;
    return runner.RunShared(method, batches[b], batch_options);
  };
  const double untraced_seconds =
      options.trace ? 0.3 * options.seconds : options.seconds;
  exec::QueryScheduler::ShareStats share;
  const LoopStats loop = ClosedLoop(
      expected, kSliceBatches, untraced_seconds, [&](size_t b) {
        exec::BatchResult r = run_shared(planner, b);
        const auto& last = runner.scheduler()->last_share_stats();
        share.groups += last.groups;
        share.queries += last.queries;
        share.distinct_regions += last.distinct_regions;
        return r;
      });
  result.attempted += loop.queries;
  result.failed += loop.mismatches;
  result.Set("qps", loop.qps);
  result.Set("query_p50_us", Quantile(loop.latencies.kept(), 0.50));
  result.Set("query_p99_us", Quantile(loop.latencies.kept(), 0.99));

  const auto ratio = [](double a, double b) { return b > 0.0 ? a / b : 0.0; };
  result.Set("exec.scheduler.queries_per_group",
             ratio(share.queries, share.groups));
  result.Set("exec.scheduler.dedup_ratio",
             ratio(share.queries, share.distinct_regions));
  const PlannedMethod::Counters& counters = planner.counters();
  const double planned = static_cast<double>(counters.queries);
  result.Set("core.planner.settled_share",
             ratio(counters.settled_negative + counters.settled_positive,
                   planned));
  Json drift;
  for (size_t m = 0; m < planner.num_members(); ++m) {
    const std::string name = MethodKindName(planner.member_kind(m));
    const double share = ratio(
        counters.routed[static_cast<size_t>(planner.member_kind(m))], planned);
    result.Set("core.planner.routed_share." + name, share);
    drift.Num("routed_share." + name, share);
  }
  CalibratedDrift(*served.cn, batches, result, drift);
  drift.Num("settled_share",
            ratio(counters.settled_negative + counters.settled_positive,
                  planned));
  if (three_d != nullptr) {
    result.Set("core.three_d_reach.range_queries_per_query",
               ratio(three_d->counters().range_queries,
                     three_d->counters().queries));
  }

  Json measured;
  measured.Obj("latency", LatencySummary(loop.latencies));
  measured.Int("batches_per_slice", kSliceBatches);
  measured.NumList("slice_qps", loop.slice_qps);
  measured.NumList("setup_s", setup.total);

  if (tracer != nullptr) {
    const unsigned caller = options.threads;
    const uint32_t request_name = tracer->Name("request");
    const uint32_t run_name = tracer->Name("exec.scheduler.run");
    TracedPlanner traced(planner, *tracer, caller);
    uint64_t request = 0;
    const LoopStats traced_loop = ClosedLoop(
        expected, kSliceBatches, 0.5 * options.seconds,
        [&](size_t b) {
          ScopedSpan root(tracer.get(), caller, request_name, request);
          root.set_items(batches[b].size());
          ScopedSpan span(tracer.get(), caller, run_name, request);
          traced.BeginBatch(request++, span.id());
          exec::BatchResult r = run_shared(traced, b);
          traced.EndBatch();
          return r;
        },
        [&] { return tracer->full(); });
    result.attempted += traced_loop.queries;
    result.failed += traced_loop.mismatches;
    TimeStages(planner, *served.cn, batches, expected, result);
    SetTraceMetrics(*tracer, options, loop.qps, traced_loop.qps, result);
    measured.Num("traced_qps", traced_loop.qps);
    measured.Int("traced_batches", request);
  }

  result.detail.Obj("record", record);
  result.detail.Obj("drift", drift);
  result.detail.Obj("measured", measured);
  served = Served{};
  std::remove(path.c_str());
  return 0;
}

}  // namespace perfbench
