#include "core/query_planner.h"

#include <algorithm>
#include <array>
#include <chrono>
#include <limits>
#include <utility>

#include "common/check.h"
#include "common/rng.h"
#include "labeling/interval_labeling.h"

namespace gsr {

namespace {

constexpr uint32_t kSettledRoute = std::numeric_limits<uint32_t>::max();

}  // namespace

Observations BuildNetworkObservations(const CondensedNetwork& cn,
                                      const Observations::Options& options) {
  const GeoSocialNetwork& network = cn.network();
  const uint32_t n = cn.num_components();
  std::vector<uint8_t> has_spatial(n, 0);
  std::vector<Point2D> rep_point(n);
  for (uint32_t c = 0; c < n; ++c) {
    const auto members = cn.SpatialMembersOf(c);
    if (members.empty()) continue;
    has_spatial[c] = 1;
    rep_point[c] = network.PointOf(members.front());
  }
  return Observations::Build(cn.dag(), has_spatial, rep_point, options);
}

PlannedMethod::PlannedMethod(const CondensedNetwork* cn,
                             const MethodConfig& config)
    : cn_(cn), options_(config.planner) {
  GSR_CHECK(!options_.portfolio.empty());
  for (const MethodKind kind : options_.portfolio) {
    GSR_CHECK(kind != MethodKind::kPlanner && kind != MethodKind::kNaiveBfs);
    MethodConfig member_config = config;
    member_config.kind = kind;
    members_.push_back(CreateMethod(cn, member_config));
    cost_models_.push_back(MethodKindRowOf(kind).default_cost);
  }

  const GeoSocialNetwork& network = cn->network();
  std::vector<Point2D> points;
  points.reserve(network.spatial_vertices().size());
  for (const VertexId v : network.spatial_vertices()) {
    points.push_back(network.PointOf(v));
  }
  histogram_ = GridHistogram(points, options_.histogram_resolution);

  Observations::Options obs_options;
  obs_options.num_intervals = options_.observation_intervals;
  obs_options.num_supportive = options_.observation_supportive;
  observations_ = BuildNetworkObservations(*cn, obs_options);
  FinishSetup();
  Calibrate();
}

PlannedMethod::PlannedMethod(
    const CondensedNetwork* cn, const PlannerOptions& options,
    std::vector<std::unique_ptr<RangeReachMethod>> members,
    Observations observations, GridHistogram histogram,
    std::vector<CostModel> cost_models)
    : cn_(cn),
      options_(options),
      members_(std::move(members)),
      observations_(std::move(observations)),
      histogram_(std::move(histogram)),
      cost_models_(std::move(cost_models)) {
  FinishSetup();
}

void PlannedMethod::FinishSetup() {
  // Routing features, recomputed deterministically from the members'
  // labelings (so snapshots need not persist them). An interval label
  // [l,h] covers h-l+1 descendant post numbers.
  const uint32_t n = cn_->num_components();
  for (size_t m = 0; m < members_.size(); ++m) {
    // Whole-query settles run in the planner only; the spatial-first
    // members take the observations as their per-candidate probe filter.
    members_[m]->AttachObservations(&observations_);
    features_.push_back(MethodKindRowOf(options_.portfolio[m]).feature);
    const bool descendants = features_[m] == RoutingFeature::kDescendants;
    std::vector<uint32_t>& counts = descendants ? desc_count_ : label_count_;
    if ((!descendants && features_[m] != RoutingFeature::kLabels) ||
        !counts.empty()) {
      continue;
    }
    const IntervalLabeling* labeling = members_[m]->interval_labeling();
    GSR_CHECK(labeling != nullptr);
    counts.resize(n);
    for (uint32_t c = 0; c < n; ++c) {
      const LabelView labels = labeling->Labels(c);
      counts[c] = static_cast<uint32_t>(std::min<uint64_t>(
          descendants ? labels.CoveredValues() : labels.size(),
          std::numeric_limits<uint32_t>::max()));
    }
  }
}

double PlannedMethod::Feature(size_t m, ComponentId source, const Rect& region,
                              double& spatial_estimate) const {
  switch (features_[m]) {
    case RoutingFeature::kRegionBlocks:
      // Candidates scale with the points inside the region. BlockCount is
      // the O(1) four-lookup upper bound — cheap enough to pay on every
      // query.
      if (spatial_estimate < 0.0) {
        spatial_estimate = static_cast<double>(histogram_.BlockCount(region));
      }
      return spatial_estimate;
    case RoutingFeature::kDescendants:
      return static_cast<double>(desc_count_[source]);
    case RoutingFeature::kLabels:
      return static_cast<double>(label_count_[source]);
    case RoutingFeature::kConstant:
      break;
  }
  return 1.0;  // One probe, whatever the query.
}

size_t PlannedMethod::Route(ComponentId source, const Rect& region,
                            double spatial_estimate) const {
  size_t best = 0;
  double best_cost = std::numeric_limits<double>::infinity();
  for (size_t m = 0; m < members_.size(); ++m) {
    const double f = Feature(m, source, region, spatial_estimate);
    const double cost =
        cost_models_[m].base_ns + cost_models_[m].per_unit_ns * f;
    if (cost < best_cost) {
      best_cost = cost;
      best = m;
    }
  }
  return best;
}

size_t PlannedMethod::RouteAny(std::span<const VertexId> sources,
                               const Rect& region,
                               double spatial_estimate) const {
  size_t best = 0;
  double best_cost = std::numeric_limits<double>::infinity();
  for (size_t m = 0; m < members_.size(); ++m) {
    double f = 0.0;
    if (features_[m] == RoutingFeature::kRegionBlocks) {
      // The spatial-first AnyReach overrides share one candidate scan
      // across sources, so the region estimate is paid once.
      f = Feature(m, 0, region, spatial_estimate);
    } else {
      for (const VertexId v : sources) {
        f += Feature(m, cn_->ComponentOf(v), region, spatial_estimate);
      }
    }
    const double cost =
        cost_models_[m].base_ns + cost_models_[m].per_unit_ns * f;
    if (cost < best_cost) {
      best_cost = cost;
      best = m;
    }
  }
  return best;
}

void PlannedMethod::Calibrate() {
  if (options_.calibration_samples == 0) return;
  const GeoSocialNetwork& network = cn_->network();
  const std::vector<VertexId>& spatial = network.spatial_vertices();
  if (spatial.empty()) return;

  // Three selectivity strata (side length as a fraction of the space MBR:
  // ~0.01%, 1% and ~20% of the area). Vertices uniform, regions centered
  // on data points so the tiny stratum isn't all-empty.
  struct Sample {
    VertexId vertex;
    Rect region;
  };
  const Rect& space = network.SpaceBounds();
  const double width = std::max(space.Width(), 1e-12);
  const double height = std::max(space.Height(), 1e-12);
  const double side_fraction[3] = {0.01, 0.10, 0.45};
  Rng rng(options_.seed);
  std::array<std::vector<Sample>, 3> strata;
  for (int t = 0; t < 3; ++t) {
    strata[t].reserve(options_.calibration_samples);
    for (uint32_t i = 0; i < options_.calibration_samples; ++i) {
      const VertexId vertex =
          static_cast<VertexId>(rng.NextBounded(network.num_vertices()));
      const Point2D& center =
          network.PointOf(spatial[rng.NextBounded(spatial.size())]);
      const double hw = 0.5 * side_fraction[t] * width;
      const double hh = 0.5 * side_fraction[t] * height;
      strata[t].push_back({vertex, Rect(center.x - hw, center.y - hh,
                                        center.x + hw, center.y + hh)});
    }
  }

  for (size_t m = 0; m < members_.size(); ++m) {
    // Calibration runs on a throwaway scratch that is never drained, so
    // member aggregate counters stay untouched.
    const std::unique_ptr<QueryScratch> scratch = members_[m]->NewScratch();
    double avg_ns[3] = {0, 0, 0};
    double avg_feature[3] = {0, 0, 0};
    for (int t = 0; t < 3; ++t) {
      double feature_sum = 0.0;
      for (const Sample& q : strata[t]) {
        double fresh = -1.0;
        feature_sum += Feature(m, cn_->ComponentOf(q.vertex), q.region, fresh);
      }
      avg_feature[t] = feature_sum / strata[t].size();
      // One warm-up pass (caches, lazy allocations), one timed pass.
      for (const Sample& q : strata[t]) {
        members_[m]->Evaluate(q.vertex, q.region, *scratch);
      }
      const auto start = std::chrono::steady_clock::now();
      for (const Sample& q : strata[t]) {
        members_[m]->Evaluate(q.vertex, q.region, *scratch);
      }
      const auto stop = std::chrono::steady_clock::now();
      avg_ns[t] = std::chrono::duration<double, std::nano>(stop - start)
                      .count() /
                  strata[t].size();
    }
    // Least-squares line through the three strata points (feature,
    // latency). A member whose feature barely varies across the strata —
    // 3DReach's label count and REV's constant don't depend on the
    // region at all — degrades to a flat model at its mean latency: any
    // slope fitted there would divide a region-driven latency difference
    // by feature noise and wildly mis-rank the member. Clamps keep a
    // noisy run from producing a negative slope or base.
    double mean_f = 0.0;
    double mean_ns = 0.0;
    for (int t = 0; t < 3; ++t) {
      mean_f += avg_feature[t] / 3.0;
      mean_ns += avg_ns[t] / 3.0;
    }
    double var_f = 0.0;
    double cov = 0.0;
    for (int t = 0; t < 3; ++t) {
      var_f += (avg_feature[t] - mean_f) * (avg_feature[t] - mean_f);
      cov += (avg_feature[t] - mean_f) * (avg_ns[t] - mean_ns);
    }
    CostModel fitted;
    // The spread threshold is in feature units (points, labels,
    // descendants): a spread under one unit carries no cost signal.
    if (var_f < 1.0) {
      fitted.per_unit_ns = 0.0;
      fitted.base_ns = std::max(mean_ns, 1.0);
    } else {
      fitted.per_unit_ns = std::max(cov / var_f, 0.0);
      fitted.base_ns = std::max(mean_ns - fitted.per_unit_ns * mean_f, 1.0);
    }
    cost_models_[m] = fitted;
  }
}

std::unique_ptr<QueryScratch> PlannedMethod::NewScratch() const {
  auto scratch = std::make_unique<Scratch>();
  scratch->member_scratch.reserve(members_.size());
  for (const auto& member : members_) {
    scratch->member_scratch.push_back(member->NewScratch());
  }
  return scratch;
}

bool PlannedMethod::Evaluate(VertexId vertex, const Rect& region,
                             QueryScratch& scratch) const {
  Scratch& s = static_cast<Scratch&>(scratch);
  ++s.counters.queries;
  // The emptiness proof and the routing feature are the same block sum —
  // pay it once and thread it through Route.
  const uint64_t block = histogram_.BlockCount(region);
  if (block == 0) {
    ++s.counters.settled_negative;
    return false;
  }
  const ComponentId source = cn_->ComponentOf(vertex);
  switch (observations_.SettleRange(source, region)) {
    case Observations::Verdict::kNo:
      ++s.counters.settled_negative;
      return false;
    case Observations::Verdict::kYes:
      ++s.counters.settled_positive;
      return true;
    case Observations::Verdict::kUnknown:
      break;
  }
  const size_t m = Route(source, region, static_cast<double>(block));
  ++s.counters.routed[static_cast<size_t>(options_.portfolio[m])];
  return members_[m]->Evaluate(vertex, region, *s.member_scratch[m]);
}

void PlannedMethod::EvaluateGroup(VertexId vertex,
                                  std::span<const Rect> regions,
                                  std::span<bool> out,
                                  QueryScratch& scratch) const {
  Scratch& s = static_cast<Scratch&>(scratch);
  s.counters.queries += regions.size();
  const ComponentId source = cn_->ComponentOf(vertex);
  // Stage 1 per region; stage 2 routes the survivors (the route depends
  // on the region's selectivity, so one group may split across members).
  s.route_of.assign(regions.size(), kSettledRoute);
  bool any_routed = false;
  for (size_t k = 0; k < regions.size(); ++k) {
    const uint64_t block = histogram_.BlockCount(regions[k]);
    if (block == 0) {
      out[k] = false;
      ++s.counters.settled_negative;
      continue;
    }
    switch (observations_.SettleRange(source, regions[k])) {
      case Observations::Verdict::kNo:
        out[k] = false;
        ++s.counters.settled_negative;
        continue;
      case Observations::Verdict::kYes:
        out[k] = true;
        ++s.counters.settled_positive;
        continue;
      case Observations::Verdict::kUnknown:
        break;
    }
    const size_t m = Route(source, regions[k], static_cast<double>(block));
    s.route_of[k] = static_cast<uint32_t>(m);
    ++s.counters.routed[static_cast<size_t>(options_.portfolio[m])];
    any_routed = true;
  }
  if (!any_routed) return;
  // Each member answers its routed subset through its own grouped hook,
  // keeping the shared-scan wins of the underlying methods.
  for (size_t m = 0; m < members_.size(); ++m) {
    s.gather_regions.clear();
    s.gather_slots.clear();
    for (size_t k = 0; k < regions.size(); ++k) {
      if (s.route_of[k] != static_cast<uint32_t>(m)) continue;
      s.gather_regions.push_back(regions[k]);
      s.gather_slots.push_back(k);
    }
    if (s.gather_regions.empty()) continue;
    if (s.gather_capacity < s.gather_regions.size()) {
      s.gather_capacity = s.gather_regions.size();
      s.gather_out = std::make_unique<bool[]>(s.gather_capacity);
    }
    members_[m]->EvaluateGroup(
        vertex, s.gather_regions,
        std::span<bool>(s.gather_out.get(), s.gather_regions.size()),
        *s.member_scratch[m]);
    for (size_t i = 0; i < s.gather_slots.size(); ++i) {
      out[s.gather_slots[i]] = s.gather_out[i];
    }
  }
}

void PlannedMethod::CollectInto(VertexId vertex, const Rect& region,
                                ResultSink& sink,
                                QueryScratch& scratch) const {
  Scratch& s = static_cast<Scratch&>(scratch);
  ++s.counters.queries;
  const ComponentId source = cn_->ComponentOf(vertex);
  // Collection admits only negative settles (an empty result set); a
  // witness hit still requires the full enumeration.
  const uint64_t block = histogram_.BlockCount(region);
  if (block == 0 || !observations_.ReachesAnySpatial(source)) {
    ++s.counters.settled_negative;
    return;
  }
  const size_t m = Route(source, region, static_cast<double>(block));
  ++s.counters.routed[static_cast<size_t>(options_.portfolio[m])];
  members_[m]->CollectInto(vertex, region, sink, *s.member_scratch[m]);
}

void PlannedMethod::CollectGroupInto(VertexId vertex,
                                     std::span<const Rect> regions,
                                     std::span<ResultSink> sinks,
                                     QueryScratch& scratch) const {
  Scratch& s = static_cast<Scratch&>(scratch);
  s.counters.queries += regions.size();
  const ComponentId source = cn_->ComponentOf(vertex);
  if (!observations_.ReachesAnySpatial(source)) {
    // Every result set is provably empty; untouched sinks read as empty.
    s.counters.settled_negative += regions.size();
    return;
  }
  s.route_of.resize(regions.size());
  bool uniform = true;
  for (size_t k = 0; k < regions.size(); ++k) {
    const uint64_t block = histogram_.BlockCount(regions[k]);
    if (block == 0) {
      s.route_of[k] = kSettledRoute;
      ++s.counters.settled_negative;
      uniform = false;
      continue;
    }
    const size_t m = Route(source, regions[k], static_cast<double>(block));
    s.route_of[k] = static_cast<uint32_t>(m);
    ++s.counters.routed[static_cast<size_t>(options_.portfolio[m])];
    if (s.route_of[k] != s.route_of[0]) uniform = false;
  }
  // Fast path: the whole group routed to one member — forward the spans
  // verbatim so its shared enumerating descent serves every sink.
  if (uniform && !regions.empty() && s.route_of[0] != kSettledRoute) {
    const size_t m = s.route_of[0];
    members_[m]->CollectGroupInto(vertex, regions, sinks,
                                  *s.member_scratch[m]);
    return;
  }
  for (size_t k = 0; k < regions.size(); ++k) {
    if (s.route_of[k] == kSettledRoute) continue;
    const size_t m = s.route_of[k];
    members_[m]->CollectInto(vertex, regions[k], sinks[k],
                             *s.member_scratch[m]);
  }
}

bool PlannedMethod::EvaluateAny(std::span<const VertexId> sources,
                                const Rect& region,
                                QueryScratch& scratch) const {
  Scratch& s = static_cast<Scratch&>(scratch);
  ++s.counters.queries;
  if (sources.empty()) return false;
  const uint64_t block = histogram_.BlockCount(region);
  if (block == 0) {
    ++s.counters.settled_negative;
    return false;
  }
  // Per-source settles: a positive witness answers the disjunction, a
  // negative proof drops the source from the delegated query.
  s.pending_sources.clear();
  for (const VertexId v : sources) {
    switch (observations_.SettleRange(cn_->ComponentOf(v), region)) {
      case Observations::Verdict::kYes:
        ++s.counters.settled_positive;
        return true;
      case Observations::Verdict::kNo:
        break;
      case Observations::Verdict::kUnknown:
        s.pending_sources.push_back(v);
        break;
    }
  }
  if (s.pending_sources.empty()) {
    ++s.counters.settled_negative;
    return false;
  }
  const size_t m = RouteAny(s.pending_sources, region,
                            static_cast<double>(block));
  ++s.counters.routed[static_cast<size_t>(options_.portfolio[m])];
  return members_[m]->EvaluateAny(s.pending_sources, region,
                                  *s.member_scratch[m]);
}

void PlannedMethod::DrainScratchCounters(QueryScratch& scratch) const {
  Scratch& s = static_cast<Scratch&>(scratch);
  // Member counters drain through the members even for the planner's
  // default scratch — its sub-scratches are not the members' defaults.
  for (size_t m = 0; m < members_.size(); ++m) {
    members_[m]->DrainScratchCounters(*s.member_scratch[m]);
  }
  RangeReachMethod::DrainScratchCounters(scratch);
}

size_t PlannedMethod::IndexSizeBytes() const {
  size_t total = observations_.SizeBytes() + histogram_.SizeBytes();
  for (const auto& member : members_) {
    total += member->IndexSizeBytes();
  }
  return total;
}

}  // namespace gsr
