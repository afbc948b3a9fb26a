#include "datagen/workload.h"

#include <algorithm>
#include <cmath>
#include <unordered_set>
#include <utility>

#include "common/check.h"

namespace gsr {

std::vector<DegreeBucket> PaperDegreeBuckets() {
  return {
      {1, 49, "1-49"},
      {50, 99, "50-99"},
      {100, 149, "100-149"},
      {150, 199, "150-199"},
      {200, std::numeric_limits<uint32_t>::max(), "200+"},
  };
}

std::vector<double> PaperExtents() { return {1.0, 2.0, 5.0, 10.0, 20.0}; }

std::vector<double> PaperSelectivities() { return {0.001, 0.01, 0.1, 1.0}; }

std::vector<SelectivityStratum> DefaultMixedStrata() {
  return {
      {0.5, 0.01},  // Tiny: ~point lookups, often empty regions.
      {0.3, 1.0},   // Medium: the paper's low-extent regime.
      {0.2, 20.0},  // Huge: the paper's largest extent.
  };
}

const char* WorkloadKindName(WorkloadKind kind) {
  switch (kind) {
    case WorkloadKind::kBool:
      return "bool";
    case WorkloadKind::kCount:
      return "count";
    case WorkloadKind::kEnum:
      return "enum";
    case WorkloadKind::kAnyOfK:
      return "any_of_k";
  }
  return "unknown";
}

bool ParseWorkloadKind(const std::string& name, WorkloadKind* out) {
  if (name == "bool") {
    *out = WorkloadKind::kBool;
  } else if (name == "count") {
    *out = WorkloadKind::kCount;
  } else if (name == "enum") {
    *out = WorkloadKind::kEnum;
  } else if (name == "any_of_k") {
    *out = WorkloadKind::kAnyOfK;
  } else {
    return false;
  }
  return true;
}

WorkloadGenerator::WorkloadGenerator(const GeoSocialNetwork* network,
                                     uint64_t seed)
    : network_(network), rng_(seed) {
  std::vector<std::pair<Point2D, uint64_t>> entries;
  entries.reserve(network->spatial_vertices().size());
  for (const VertexId v : network->spatial_vertices()) {
    entries.emplace_back(network->PointOf(v), v);
  }
  points_rtree_ = FrozenRTreePoints2D::Build(std::move(entries));
}

std::vector<RangeReachQuery> WorkloadGenerator::Generate(
    const QuerySpec& spec) {
  std::vector<RangeReachQuery> queries;
  queries.reserve(spec.count);
  for (uint32_t i = 0; i < spec.count; ++i) {
    RangeReachQuery query;
    query.vertex =
        spec.vertex_zipf > 0.0
            ? ZipfVertexWithDegree(spec.min_out_degree, spec.max_out_degree,
                                   spec.vertex_zipf)
            : RandomVertexWithDegree(spec.min_out_degree,
                                     spec.max_out_degree);
    query.region = RegionFor(query.vertex, spec);
    queries.push_back(query);
  }
  return queries;
}

std::vector<AnyReachQuery> WorkloadGenerator::GenerateAnyReach(
    const QuerySpec& spec) {
  GSR_CHECK(spec.kind == WorkloadKind::kAnyOfK);
  GSR_CHECK(spec.any_k > 0);
  std::vector<AnyReachQuery> queries;
  queries.reserve(spec.count);
  auto draw = [&]() {
    return spec.vertex_zipf > 0.0
               ? ZipfVertexWithDegree(spec.min_out_degree, spec.max_out_degree,
                                      spec.vertex_zipf)
               : RandomVertexWithDegree(spec.min_out_degree,
                                        spec.max_out_degree);
  };
  for (uint32_t i = 0; i < spec.count; ++i) {
    AnyReachQuery query;
    query.sources.reserve(spec.any_k);
    // Distinct sources (a friend list has no duplicates), with a bounded
    // retry so a bucket smaller than k still terminates — the remaining
    // draws then pad with whatever the bucket can give, duplicates and
    // all, which EvaluateAny tolerates by contract.
    uint32_t attempts = 0;
    const uint32_t max_attempts = spec.any_k * 16;
    while (query.sources.size() < spec.any_k) {
      const VertexId v = draw();
      const bool duplicate =
          std::find(query.sources.begin(), query.sources.end(), v) !=
          query.sources.end();
      if (!duplicate || ++attempts >= max_attempts) {
        query.sources.push_back(v);
      }
    }
    query.region = RegionFor(query.sources.front(), spec);
    queries.push_back(std::move(query));
  }
  return queries;
}

VertexId WorkloadGenerator::ZipfVertexWithDegree(uint32_t lo, uint32_t hi,
                                                 double theta) {
  const std::vector<VertexId>& vertices = BucketVertices(lo, hi);
  const std::pair<size_t, double> key{vertices.size(), theta};
  std::vector<double>* cdf = nullptr;
  for (auto& [cached_key, weights] : zipf_cache_) {
    if (cached_key == key) {
      cdf = &weights;
      break;
    }
  }
  if (cdf == nullptr) {
    // Cumulative weights 1/rank^theta over the bucket; a binary search on
    // a uniform draw then samples the Zipf rank exactly.
    std::vector<double> weights(vertices.size());
    double total = 0.0;
    for (size_t rank = 0; rank < vertices.size(); ++rank) {
      total += 1.0 / std::pow(static_cast<double>(rank + 1), theta);
      weights[rank] = total;
    }
    zipf_cache_.push_back({key, std::move(weights)});
    cdf = &zipf_cache_.back().second;
  }
  const double u = rng_.NextDouble() * cdf->back();
  const size_t rank = static_cast<size_t>(
      std::lower_bound(cdf->begin(), cdf->end(), u) - cdf->begin());
  return vertices[std::min(rank, vertices.size() - 1)];
}

Rect WorkloadGenerator::RegionFor(VertexId vertex, const QuerySpec& spec) {
  auto fresh = [&]() {
    if (!spec.strata.empty()) {
      // Weighted stratum draw (linear scan: strata lists are tiny).
      double total = 0.0;
      for (const SelectivityStratum& st : spec.strata) total += st.weight;
      double u = rng_.NextDouble() * total;
      for (const SelectivityStratum& st : spec.strata) {
        u -= st.weight;
        if (u <= 0.0) return RandomRegionByExtent(st.extent_percent);
      }
      return RandomRegionByExtent(spec.strata.back().extent_percent);
    }
    return spec.selectivity_percent >= 0.0
               ? RandomRegionBySelectivity(spec.selectivity_percent)
               : RandomRegionByExtent(spec.extent_percent);
  };
  if (spec.regions_per_vertex == 0) return fresh();
  std::vector<Rect>& pool = region_pools_[vertex];
  if (pool.size() < spec.regions_per_vertex) {
    pool.push_back(fresh());
    return pool.back();
  }
  return pool[rng_.NextBounded(pool.size())];
}

Rect WorkloadGenerator::RandomRegionByExtent(double extent_percent) {
  const Rect& space = network_->SpaceBounds();
  GSR_CHECK(!space.IsEmpty());
  // A square whose area is extent_percent of the space area.
  const double side =
      std::sqrt(space.Area() * extent_percent / 100.0);
  const double cx = rng_.NextDoubleInRange(space.min_x, space.max_x);
  const double cy = rng_.NextDoubleInRange(space.min_y, space.max_y);
  return Rect(cx - side / 2.0, cy - side / 2.0, cx + side / 2.0,
              cy + side / 2.0);
}

Rect WorkloadGenerator::RandomRegionBySelectivity(double selectivity_percent) {
  const Rect& space = network_->SpaceBounds();
  GSR_CHECK(!space.IsEmpty());
  const double target =
      std::max(1.0, selectivity_percent / 100.0 *
                        static_cast<double>(network_->num_vertices()));

  // Grow a square around a random venue point until the exact R-tree count
  // brackets the target, then binary-search the side length.
  const auto& spatial = network_->spatial_vertices();
  GSR_CHECK(!spatial.empty());
  const Point2D center =
      network_->PointOf(spatial[rng_.NextBounded(spatial.size())]);

  const double max_side =
      2.0 * std::max(space.Width(), space.Height()) + 1e-9;
  auto count_at = [&](double side) {
    const Rect region(center.x - side / 2.0, center.y - side / 2.0,
                      center.x + side / 2.0, center.y + side / 2.0);
    return points_rtree_.CountIntersecting(region);
  };

  double lo = 0.0;
  double hi = max_side / 1024.0;
  while (hi < max_side && static_cast<double>(count_at(hi)) < target) {
    lo = hi;
    hi *= 2.0;
  }
  hi = std::min(hi, max_side);
  for (int iter = 0; iter < 30; ++iter) {
    const double mid = (lo + hi) / 2.0;
    const double count = static_cast<double>(count_at(mid));
    if (count < target) {
      lo = mid;
    } else {
      hi = mid;
    }
    if (count >= 0.8 * target && count <= 1.25 * target) break;
  }
  const double side = hi;
  return Rect(center.x - side / 2.0, center.y - side / 2.0,
              center.x + side / 2.0, center.y + side / 2.0);
}

const std::vector<VertexId>& WorkloadGenerator::BucketVertices(uint32_t lo,
                                                               uint32_t hi) {
  for (const auto& [key, vertices] : bucket_cache_) {
    if (key.first == lo && key.second == hi) return vertices;
  }
  std::vector<VertexId> vertices;
  const DiGraph& graph = network_->graph();
  for (VertexId v = 0; v < graph.num_vertices(); ++v) {
    const uint32_t degree = graph.OutDegree(v);
    if (degree >= lo && degree <= hi) vertices.push_back(v);
  }
  if (vertices.empty()) {
    // Small-network fallback: take the 100 vertices whose out-degree is
    // closest to the bucket.
    std::vector<std::pair<uint64_t, VertexId>> by_distance;
    for (VertexId v = 0; v < graph.num_vertices(); ++v) {
      const uint32_t degree = graph.OutDegree(v);
      if (degree == 0) continue;  // Vertices without out-edges stay out.
      const uint64_t distance =
          degree < lo ? (lo - degree)
                      : (degree > hi ? degree - hi : uint64_t{0});
      by_distance.emplace_back(distance, v);
    }
    GSR_CHECK(!by_distance.empty());
    std::sort(by_distance.begin(), by_distance.end());
    const size_t keep = std::min<size_t>(100, by_distance.size());
    for (size_t i = 0; i < keep; ++i) vertices.push_back(by_distance[i].second);
  }
  bucket_cache_.push_back({{lo, hi}, std::move(vertices)});
  return bucket_cache_.back().second;
}

VertexId WorkloadGenerator::RandomVertexWithDegree(uint32_t lo, uint32_t hi) {
  const std::vector<VertexId>& vertices = BucketVertices(lo, hi);
  return vertices[rng_.NextBounded(vertices.size())];
}

std::vector<Update> GenerateUpdateStream(const GeoSocialNetwork& network,
                                         const UpdateStreamSpec& spec,
                                         uint64_t seed) {
  Rng rng(seed);
  Rect space = network.SpaceBounds();
  if (space.IsEmpty()) space = Rect{0.0, 0.0, 1.0, 1.0};

  const double weights[5] = {
      spec.add_vertex_weight, spec.set_point_weight, spec.clear_point_weight,
      spec.insert_edge_weight, spec.delete_edge_weight};
  double total = 0.0;
  for (const double w : weights) {
    GSR_CHECK(w >= 0.0);
    total += w;
  }
  GSR_CHECK(total > 0.0);

  const DiGraph& graph = network.graph();
  VertexId n = network.num_vertices();
  GSR_CHECK(n >= 2);

  const auto random_point = [&] {
    return Point2D{rng.NextDoubleInRange(space.min_x, space.max_x),
                   rng.NextDoubleInRange(space.min_y, space.max_y)};
  };
  const auto edge_key = [](VertexId a, VertexId b) {
    return (static_cast<uint64_t>(a) << 32) | b;
  };

  std::vector<Update> stream;
  stream.reserve(spec.count);
  // Live edges the stream itself inserted, and base edges it deleted —
  // so deletes target live edges instead of degenerating into no-ops.
  std::vector<std::pair<VertexId, VertexId>> inserted;
  std::unordered_set<uint64_t> deleted_base;

  const auto emit_insert = [&] {
    const VertexId a = static_cast<VertexId>(rng.NextBounded(n));
    VertexId b = static_cast<VertexId>(rng.NextBounded(n - 1));
    if (b >= a) ++b;  // Distinct endpoints, no self-loops.
    stream.push_back(Update::InsertEdge(a, b));
    inserted.emplace_back(a, b);
  };

  while (stream.size() < spec.count) {
    double draw = rng.NextDouble() * total;
    int kind = 0;
    while (kind < 4 && draw >= weights[kind]) {
      draw -= weights[kind];
      ++kind;
    }
    switch (kind) {
      case 0: {  // New vertex, optionally spatial, immediately wired in.
        std::optional<Point2D> point;
        if (rng.NextDouble() < spec.spatial_fraction) point = random_point();
        stream.push_back(Update::AddVertex(point));
        const VertexId id = n++;
        for (uint32_t e = 0;
             e < spec.edges_per_new_vertex && stream.size() < spec.count;
             ++e) {
          VertexId other = static_cast<VertexId>(rng.NextBounded(n - 1));
          if (other >= id) ++other;
          const bool outgoing = rng.NextBounded(2) == 0;
          const VertexId a = outgoing ? id : other;
          const VertexId b = outgoing ? other : id;
          stream.push_back(Update::InsertEdge(a, b));
          inserted.emplace_back(a, b);
        }
        break;
      }
      case 1:  // Check-in.
        stream.push_back(Update::SetPoint(
            static_cast<VertexId>(rng.NextBounded(n)), random_point()));
        break;
      case 2: {  // Check-out: prefer a vertex that actually has a point.
        VertexId v = static_cast<VertexId>(rng.NextBounded(n));
        const auto& spatial = network.spatial_vertices();
        if (v < network.num_vertices() && !network.IsSpatial(v) &&
            !spatial.empty()) {
          v = spatial[rng.NextBounded(spatial.size())];
        }
        stream.push_back(Update::ClearPoint(v));
        break;
      }
      case 3:
        emit_insert();
        break;
      case 4: {  // Delete a live edge: stream-inserted or base.
        if (!inserted.empty() && rng.NextBounded(2) == 0) {
          const size_t i = rng.NextBounded(inserted.size());
          const auto [a, b] = inserted[i];
          inserted[i] = inserted.back();
          inserted.pop_back();
          stream.push_back(Update::DeleteEdge(a, b));
          break;
        }
        bool found = false;
        for (int attempt = 0; attempt < 16 && !found; ++attempt) {
          const VertexId u =
              static_cast<VertexId>(rng.NextBounded(graph.num_vertices()));
          const auto neighbors = graph.OutNeighbors(u);
          if (neighbors.empty()) continue;
          const VertexId w = neighbors[rng.NextBounded(neighbors.size())];
          if (deleted_base.contains(edge_key(u, w))) continue;
          deleted_base.insert(edge_key(u, w));
          stream.push_back(Update::DeleteEdge(u, w));
          found = true;
        }
        if (!found) emit_insert();  // Dense delete history: churn instead.
        break;
      }
    }
  }
  stream.resize(spec.count);
  return stream;
}

}  // namespace gsr
