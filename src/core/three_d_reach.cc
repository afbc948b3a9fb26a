#include "core/three_d_reach.h"

#include <algorithm>
#include <bit>
#include <utility>
#include <vector>

#include "common/simd.h"
#include "exec/parallel.h"

namespace gsr {

namespace {

/// Minimum distinct regions before the grouped paths switch from the
/// serial Evaluate loop to the masked R-tree descent. A near-singleton
/// group gains nothing from mask bookkeeping (chunk transposes, pending
/// masks) while the branchy first-hit descent resolves each probe at its
/// first intersecting entry — the same reasoning as the single-bit
/// fallback inside VisitAnyMasked, one level up. The scheduler's dedup
/// win (one probe per distinct region, however many members) is
/// unaffected: it happens before EvaluateGroup is called.
constexpr size_t kMinMaskedGroup = 8;

}  // namespace

ThreeDReach::ThreeDReach(const CondensedNetwork* cn, const Options& options,
                         exec::ThreadPool* pool)
    : cn_(cn),
      options_(options),
      labeling_(IntervalLabeling::Build(
          cn->dag(),
          IntervalLabeling::Options{.forest_strategy =
                                        options.forest_strategy},
          pool)) {
  const GeoSocialNetwork& network = cn->network();
  if (options.scc_mode == SccSpatialMode::kReplicate) {
    // One genuine 3-D point (u.point, post(u)) per spatial vertex; the
    // entry id is the vertex itself, so every hit is one answer vertex.
    // Each entry is written at its own index, so the fill parallelizes.
    const auto& spatial = network.spatial_vertices();
    std::vector<std::pair<Point3D, uint64_t>> entries(spatial.size());
    exec::ForEachIndex(pool, spatial.size(), 2048, [&](size_t i) {
      const VertexId v = spatial[i];
      const ComponentId c = cn->ComponentOf(v);
      const Point2D& p = network.PointOf(v);
      entries[i] = {Point3D{p.x, p.y, static_cast<double>(labeling_.post(c))},
                    v};
    });
    points_ = FrozenRTreePoints3D::Build(std::move(entries), pool);
  } else {
    // One flat box (MBR(c) x post(c)) per component with spatial members.
    std::vector<std::pair<Box3D, uint64_t>> entries;
    for (ComponentId c = 0; c < cn->num_components(); ++c) {
      if (!cn->HasSpatialMember(c)) continue;
      const double z = static_cast<double>(labeling_.post(c));
      entries.emplace_back(
          Box3D::FromRectAndInterval(cn->MbrOf(c), z, z), c);
    }
    boxes_ = FrozenRTree3D::Build(std::move(entries), pool);
  }
}

bool ThreeDReach::Evaluate(VertexId vertex, const Rect& region,
                           QueryScratch& scratch) const {
  Counters& counters = scratch.counters;
  ++counters.queries;
  const ComponentId source = cn_->ComponentOf(vertex);
  const bool replicate = options_.scc_mode == SccSpatialMode::kReplicate;
  // One 3-D existence query per label of the query vertex. With the
  // replicate variant, any point inside a cuboid answers TRUE immediately;
  // with the MBR variant a partially-overlapping box needs verification
  // (the z-dimension is always exact: boxes are flat in z).
  for (const Interval& label : labeling_.Labels(source).intervals()) {
    ++counters.range_queries;
    const Box3D cuboid = Box3D::FromRectAndInterval(
        region, static_cast<double>(label.lo), static_cast<double>(label.hi));
    if (replicate) {
      if (points_.AnyIntersecting(cuboid)) return true;
      continue;
    }
    bool found = false;
    boxes_.ForEachIntersecting(cuboid, [&](const Box3D& box, uint64_t id) {
      if (cuboid.Contains(box) ||
          cn_->AnyMemberPointIn(static_cast<ComponentId>(id), region)) {
        found = true;
        return false;
      }
      return true;
    });
    if (found) return true;
  }
  return false;
}

void ThreeDReach::EvaluateGroup(VertexId vertex,
                                std::span<const Rect> regions,
                                std::span<bool> out,
                                QueryScratch& scratch) const {
  if (options_.scc_mode != SccSpatialMode::kReplicate ||
      regions.size() < kMinMaskedGroup) {
    RangeReachMethod::EvaluateGroup(vertex, regions, out, scratch);
    return;
  }
  Counters& counters = scratch.counters;
  const ComponentId source = cn_->ComponentOf(vertex);
  const auto labels = labeling_.Labels(source).intervals();
  Box3D cuboids[simd::kMaskWidth];
  for (size_t base = 0; base < regions.size(); base += simd::kMaskWidth) {
    const size_t chunk = std::min(simd::kMaskWidth, regions.size() - base);
    counters.queries += chunk;
    uint64_t pending = chunk == simd::kMaskWidth
                           ? ~uint64_t{0}
                           : (uint64_t{1} << chunk) - 1;
    for (const Interval& label : labels) {
      if (pending == 0) break;
      // All cuboids of this round share the label's z-interval; only the
      // xy rectangle differs per region — the shape the masked descent
      // amortizes.
      const double lo = static_cast<double>(label.lo);
      const double hi = static_cast<double>(label.hi);
      for (uint64_t m = pending; m != 0; m &= m - 1) {
        const size_t k = static_cast<size_t>(std::countr_zero(m));
        cuboids[k] = Box3D::FromRectAndInterval(regions[base + k], lo, hi);
      }
      counters.range_queries +=
          static_cast<uint64_t>(std::popcount(pending));
      const uint64_t hits = points_.AnyIntersectingMasked(cuboids, pending);
      for (uint64_t m = hits; m != 0; m &= m - 1) {
        out[base + static_cast<size_t>(std::countr_zero(m))] = true;
      }
      pending &= ~hits;
    }
    for (uint64_t m = pending; m != 0; m &= m - 1) {
      out[base + static_cast<size_t>(std::countr_zero(m))] = false;
    }
  }
}

void ThreeDReach::CollectInto(VertexId vertex, const Rect& region,
                              ResultSink& sink, QueryScratch& scratch) const {
  Scratch& s = static_cast<Scratch&>(scratch);
  ++s.counters.queries;
  const ComponentId source = cn_->ComponentOf(vertex);
  const bool replicate = options_.scc_mode == SccSpatialMode::kReplicate;
  // The labels are disjoint and every leaf sits at one post number, so
  // each leaf is met at most once. A replicate leaf is one answer vertex;
  // an MBR leaf stands for its whole component, whose member points are
  // verified one by one.
  for (const Interval& label : labeling_.Labels(source).intervals()) {
    ++s.counters.range_queries;
    const Box3D cuboid = Box3D::FromRectAndInterval(
        region, static_cast<double>(label.lo), static_cast<double>(label.hi));
    if (replicate) {
      points_.ForEachIntersecting(cuboid, [&](const Point3D&, uint64_t id) {
        sink.Add(static_cast<VertexId>(id));
        return true;
      });
      continue;
    }
    boxes_.ForEachIntersecting(cuboid, [&](const Box3D&, uint64_t id) {
      cn_->ForEachSpatialMemberIn(static_cast<ComponentId>(id), region,
                                  [&](VertexId v) { sink.Add(v); });
      return true;
    });
  }
}

void ThreeDReach::CollectGroupInto(VertexId vertex,
                                   std::span<const Rect> regions,
                                   std::span<ResultSink> sinks,
                                   QueryScratch& scratch) const {
  if (regions.size() < kMinMaskedGroup) {
    RangeReachMethod::CollectGroupInto(vertex, regions, sinks, scratch);
    return;
  }
  Scratch& s = static_cast<Scratch&>(scratch);
  const ComponentId source = cn_->ComponentOf(vertex);
  const bool replicate = options_.scc_mode == SccSpatialMode::kReplicate;
  const auto labels = labeling_.Labels(source).intervals();
  Box3D cuboids[simd::kMaskWidth];
  for (size_t base = 0; base < regions.size(); base += simd::kMaskWidth) {
    const size_t chunk = std::min(simd::kMaskWidth, regions.size() - base);
    s.counters.queries += chunk;
    const uint64_t live = chunk == simd::kMaskWidth
                              ? ~uint64_t{0}
                              : (uint64_t{1} << chunk) - 1;
    for (const Interval& label : labels) {
      // All cuboids of this round share the label's z-interval; the
      // masked descent amortizes the shared subtree walks across the
      // group's xy rectangles. No pending mask: collection never
      // finishes a region early.
      const double lo = static_cast<double>(label.lo);
      const double hi = static_cast<double>(label.hi);
      for (size_t k = 0; k < chunk; ++k) {
        cuboids[k] = Box3D::FromRectAndInterval(regions[base + k], lo, hi);
      }
      s.counters.range_queries += chunk;
      if (replicate) {
        points_.ForEachIntersectingMasked(
            cuboids, live, [&](size_t k, const Point3D&, uint64_t id) {
              sinks[base + k].Add(static_cast<VertexId>(id));
            });
        continue;
      }
      boxes_.ForEachIntersectingMasked(
          cuboids, live, [&](size_t k, const Box3D&, uint64_t id) {
            cn_->ForEachSpatialMemberIn(
                static_cast<ComponentId>(id), regions[base + k],
                [&](VertexId v) { sinks[base + k].Add(v); });
          });
    }
  }
}

bool ThreeDReach::EvaluateAny(std::span<const VertexId> sources,
                              const Rect& region,
                              QueryScratch& scratch) const {
  if (options_.scc_mode != SccSpatialMode::kReplicate) {
    return RangeReachMethod::EvaluateAny(sources, region, scratch);
  }
  if (sources.empty()) return false;
  Scratch& s = static_cast<Scratch&>(scratch);
  ++s.counters.queries;
  // Friends inside one SCC share their whole label set — dedup source
  // components, then batch every remaining label's cuboid into masked
  // existence descents: one k-way probe instead of k label loops.
  s.seen.BeginPass(cn_->num_components());
  Box3D cuboids[simd::kMaskWidth];
  size_t filled = 0;
  auto flush = [&]() {
    if (filled == 0) return false;
    const uint64_t pending = filled == simd::kMaskWidth
                                 ? ~uint64_t{0}
                                 : (uint64_t{1} << filled) - 1;
    s.counters.range_queries += filled;
    const bool hit = points_.AnyIntersectingMasked(cuboids, pending) != 0;
    filled = 0;
    return hit;
  };
  for (const VertexId vertex : sources) {
    const ComponentId c = cn_->ComponentOf(vertex);
    if (!s.seen.TestAndSet(c)) continue;
    for (const Interval& label : labeling_.Labels(c).intervals()) {
      cuboids[filled++] = Box3D::FromRectAndInterval(
          region, static_cast<double>(label.lo),
          static_cast<double>(label.hi));
      if (filled == simd::kMaskWidth && flush()) return true;
    }
  }
  return flush();
}

Status ThreeDReach::CheckReplicateLeaves(const CondensedNetwork& cn,
                                         const IntervalLabeling& labeling,
                                         std::span<const Point3D> points,
                                         std::span<const uint64_t> ids) {
  // Ids are already below num_vertices (the tree's id limit). Distinct
  // spatial ids, as many as there are spatial vertices, make the leaves
  // a bijection onto them; each leaf must sit at its vertex's point, at
  // the height of its component's post number.
  const GeoSocialNetwork& network = cn.network();
  if (ids.size() != network.num_spatial_vertices()) {
    return Status::InvalidArgument(
        "3DReach snapshot: tree does not hold one point per spatial vertex");
  }
  std::vector<uint8_t> seen(network.num_vertices(), 0);
  for (size_t i = 0; i < ids.size(); ++i) {
    const VertexId v = static_cast<VertexId>(ids[i]);
    if (!network.IsSpatial(v) || seen[v] != 0) {
      return Status::InvalidArgument(
          "3DReach snapshot: leaf ids are not distinct spatial vertices");
    }
    seen[v] = 1;
    const Point2D& p = network.PointOf(v);
    const double z = static_cast<double>(labeling.post(cn.ComponentOf(v)));
    if (points[i] != Point3D{p.x, p.y, z}) {
      return Status::InvalidArgument(
          "3DReach snapshot: leaf point disagrees with its vertex");
    }
  }
  return Status::Ok();
}

Status ThreeDReach::CheckMbrLeaves(const CondensedNetwork& cn,
                                   const IntervalLabeling& labeling,
                                   std::span<const Box3D> boxes,
                                   std::span<const uint64_t> ids) {
  // Ids are already below num_components (the tree's id limit). Distinct
  // ids of components with spatial members, as many as there are such
  // components, make the leaves a bijection onto them; each leaf must be
  // its component's MBR, flat at the component's post number.
  size_t spatial_components = 0;
  for (ComponentId c = 0; c < cn.num_components(); ++c) {
    if (cn.HasSpatialMember(c)) ++spatial_components;
  }
  if (ids.size() != spatial_components) {
    return Status::InvalidArgument(
        "3DReach snapshot: tree does not hold one box per spatial component");
  }
  std::vector<uint8_t> seen(cn.num_components(), 0);
  for (size_t i = 0; i < ids.size(); ++i) {
    const ComponentId c = static_cast<ComponentId>(ids[i]);
    if (!cn.HasSpatialMember(c) || seen[c] != 0) {
      return Status::InvalidArgument(
          "3DReach snapshot: leaf ids are not distinct spatial components");
    }
    seen[c] = 1;
    const double z = static_cast<double>(labeling.post(c));
    if (boxes[i] != Box3D::FromRectAndInterval(cn.MbrOf(c), z, z)) {
      return Status::InvalidArgument(
          "3DReach snapshot: leaf box disagrees with its component");
    }
  }
  return Status::Ok();
}

std::string ThreeDReach::name() const {
  std::string out = "3DReach";
  if (options_.scc_mode == SccSpatialMode::kMbr) out += " (mbr)";
  return out;
}

ThreeDReachRev::ThreeDReachRev(const CondensedNetwork* cn,
                               const Options& options,
                               exec::ThreadPool* pool)
    : cn_(cn),
      options_(options),
      labeling_(IntervalLabeling::Build(ReverseGraph(cn->dag()),
                                        IntervalLabeling::Options{}, pool)) {
  // One vertical segment per (spatial entry, reversed label): the segment
  // of u spans the reversed-post numbers of u's ancestors. The MBR variant
  // stores boxes MBR(c) x [l,h] instead; both shapes occupy a full box.
  std::vector<std::pair<Box3D, uint64_t>> entries;
  const GeoSocialNetwork& network = cn->network();
  if (options.scc_mode == SccSpatialMode::kReplicate) {
    // Label counts vary per vertex, so a prefix sum fixes each spatial
    // vertex's slice of `entries` and the slices fill independently.
    const auto& spatial = network.spatial_vertices();
    std::vector<size_t> offsets(spatial.size() + 1, 0);
    exec::ForEachIndex(pool, spatial.size(), 2048, [&](size_t i) {
      offsets[i + 1] = labeling_.Labels(cn->ComponentOf(spatial[i])).size();
    });
    for (size_t i = 0; i < spatial.size(); ++i) offsets[i + 1] += offsets[i];
    entries.resize(offsets.back());
    exec::ForEachIndex(pool, spatial.size(), 1024, [&](size_t i) {
      const VertexId v = spatial[i];
      const ComponentId c = cn->ComponentOf(v);
      const Point2D& p = network.PointOf(v);
      size_t out = offsets[i];
      for (const Interval& label : labeling_.Labels(c).intervals()) {
        entries[out++] = {
            Box3D::VerticalSegment(p.x, p.y, static_cast<double>(label.lo),
                                   static_cast<double>(label.hi)),
            c};
      }
    });
  } else {
    for (ComponentId c = 0; c < cn->num_components(); ++c) {
      if (!cn->HasSpatialMember(c)) continue;
      const Rect& mbr = cn->MbrOf(c);
      for (const Interval& label : labeling_.Labels(c).intervals()) {
        entries.emplace_back(
            Box3D::FromRectAndInterval(mbr, static_cast<double>(label.lo),
                                       static_cast<double>(label.hi)),
            c);
      }
    }
  }
  rtree_ = FrozenRTree3D::Build(std::move(entries), pool);
}

bool ThreeDReachRev::Evaluate(VertexId vertex, const Rect& region,
                              QueryScratch& scratch) const {
  ++scratch.counters.queries;
  const ComponentId source = cn_->ComponentOf(vertex);
  // A single 3-D query: the plane R x post(v). It cuts the segment of a
  // spatial vertex u iff u.point is in R and v is an ancestor of u.
  const double z = static_cast<double>(labeling_.post(source));
  const Box3D plane = Box3D::FromRectAndInterval(region, z, z);
  if (options_.scc_mode == SccSpatialMode::kReplicate) {
    return rtree_.AnyIntersecting(plane);
  }
  bool found = false;
  rtree_.ForEachIntersecting(plane, [&](const Box3D& box, uint64_t id) {
    // The xy-projection of the entry must lie inside the region, or a
    // member point must verify the hit.
    const bool xy_contained = box.min[0] >= region.min_x &&
                              box.max[0] <= region.max_x &&
                              box.min[1] >= region.min_y &&
                              box.max[1] <= region.max_y;
    if (xy_contained ||
        cn_->AnyMemberPointIn(static_cast<ComponentId>(id), region)) {
      found = true;
      return false;
    }
    return true;
  });
  return found;
}

void ThreeDReachRev::EvaluateGroup(VertexId vertex,
                                   std::span<const Rect> regions,
                                   std::span<bool> out,
                                   QueryScratch& scratch) const {
  if (options_.scc_mode != SccSpatialMode::kReplicate ||
      regions.size() < kMinMaskedGroup) {
    RangeReachMethod::EvaluateGroup(vertex, regions, out, scratch);
    return;
  }
  // Every plane of the group sits at the same height z = post(v); only
  // the xy rectangle varies, so a single masked descent over the segment
  // tree answers the whole group.
  const ComponentId source = cn_->ComponentOf(vertex);
  const double z = static_cast<double>(labeling_.post(source));
  Box3D planes[simd::kMaskWidth];
  for (size_t base = 0; base < regions.size(); base += simd::kMaskWidth) {
    const size_t chunk = std::min(simd::kMaskWidth, regions.size() - base);
    scratch.counters.queries += chunk;
    const uint64_t pending = chunk == simd::kMaskWidth
                                 ? ~uint64_t{0}
                                 : (uint64_t{1} << chunk) - 1;
    for (size_t k = 0; k < chunk; ++k) {
      planes[k] = Box3D::FromRectAndInterval(regions[base + k], z, z);
    }
    const uint64_t hits = rtree_.AnyIntersectingMasked(planes, pending);
    for (size_t k = 0; k < chunk; ++k) {
      out[base + k] = ((hits >> k) & 1) != 0;
    }
  }
}

void ThreeDReachRev::CollectInto(VertexId vertex, const Rect& region,
                                 ResultSink& sink,
                                 QueryScratch& scratch) const {
  Scratch& s = static_cast<Scratch&>(scratch);
  ++s.counters.queries;
  const ComponentId source = cn_->ComponentOf(vertex);
  const double z = static_cast<double>(labeling_.post(source));
  const Box3D plane = Box3D::FromRectAndInterval(region, z, z);
  // One enumerating plane descent serves both SCC variants: a cut
  // segment/box proves its component reachable (the z test is exact),
  // and the member enumeration verifies the xy containment per point.
  // Replicate entries repeat the component once per member, hence dedup.
  s.seen.BeginPass(cn_->num_components());
  rtree_.ForEachIntersecting(plane, [&](const Box3D&, uint64_t id) {
    const ComponentId c = static_cast<ComponentId>(id);
    if (s.seen.TestAndSet(c)) {
      cn_->ForEachSpatialMemberIn(c, region, [&](VertexId v) { sink.Add(v); });
    }
    return true;
  });
}

void ThreeDReachRev::CollectGroupInto(VertexId vertex,
                                      std::span<const Rect> regions,
                                      std::span<ResultSink> sinks,
                                      QueryScratch& scratch) const {
  if (regions.size() < kMinMaskedGroup) {
    RangeReachMethod::CollectGroupInto(vertex, regions, sinks, scratch);
    return;
  }
  Scratch& s = static_cast<Scratch&>(scratch);
  const ComponentId source = cn_->ComponentOf(vertex);
  const double z = static_cast<double>(labeling_.post(source));
  Box3D planes[simd::kMaskWidth];
  for (size_t base = 0; base < regions.size(); base += simd::kMaskWidth) {
    const size_t chunk = std::min(simd::kMaskWidth, regions.size() - base);
    s.counters.queries += chunk;
    const uint64_t live = chunk == simd::kMaskWidth
                              ? ~uint64_t{0}
                              : (uint64_t{1} << chunk) - 1;
    for (size_t k = 0; k < chunk; ++k) {
      planes[k] = Box3D::FromRectAndInterval(regions[base + k], z, z);
    }
    s.group_seen.BeginPass(cn_->num_components());
    rtree_.ForEachIntersectingMasked(
        planes, live, [&](size_t k, const Box3D&, uint64_t id) {
          const ComponentId c = static_cast<ComponentId>(id);
          if (!s.group_seen.TestAndSet(c, static_cast<unsigned>(k))) return;
          cn_->ForEachSpatialMemberIn(
              c, regions[base + k],
              [&](VertexId v) { sinks[base + k].Add(v); });
        });
  }
}

bool ThreeDReachRev::EvaluateAny(std::span<const VertexId> sources,
                                 const Rect& region,
                                 QueryScratch& scratch) const {
  if (options_.scc_mode != SccSpatialMode::kReplicate) {
    return RangeReachMethod::EvaluateAny(sources, region, scratch);
  }
  if (sources.empty()) return false;
  Scratch& s = static_cast<Scratch&>(scratch);
  ++s.counters.queries;
  // One plane per distinct source component, each at its own height
  // z = post(source), batched into masked existence descents.
  s.seen.BeginPass(cn_->num_components());
  Box3D planes[simd::kMaskWidth];
  size_t filled = 0;
  auto flush = [&]() {
    if (filled == 0) return false;
    const uint64_t pending = filled == simd::kMaskWidth
                                 ? ~uint64_t{0}
                                 : (uint64_t{1} << filled) - 1;
    const bool hit = rtree_.AnyIntersectingMasked(planes, pending) != 0;
    filled = 0;
    return hit;
  };
  for (const VertexId vertex : sources) {
    const ComponentId c = cn_->ComponentOf(vertex);
    if (!s.seen.TestAndSet(c)) continue;
    const double z = static_cast<double>(labeling_.post(c));
    planes[filled++] = Box3D::FromRectAndInterval(region, z, z);
    if (filled == simd::kMaskWidth && flush()) return true;
  }
  return flush();
}

std::string ThreeDReachRev::name() const {
  std::string out = "3DReach-REV";
  if (options_.scc_mode == SccSpatialMode::kMbr) out += " (mbr)";
  return out;
}

}  // namespace gsr
