#include "exec/query_group.h"

#include <algorithm>
#include <bit>
#include <utility>

#include "common/simd.h"

namespace gsr::exec {

namespace {

/// Cells per axis of the overlap bucketing grid.
constexpr int kGridCells = 64;

/// Row-major cell id of the region's center on the overlap grid over
/// `bounds`. Centers outside the bounds clamp to the border cells, so
/// arbitrary regions always bucket somewhere.
uint32_t CellOf(const Rect& region, const Rect& bounds) {
  const Point2D center = region.Center();
  const double w = bounds.Width();
  const double h = bounds.Height();
  const double fx = w > 0.0 ? (center.x - bounds.min_x) / w : 0.0;
  const double fy = h > 0.0 ? (center.y - bounds.min_y) / h : 0.0;
  const int max_cell = kGridCells - 1;
  const int ix = std::clamp(static_cast<int>(fx * kGridCells), 0, max_cell);
  const int iy = std::clamp(static_cast<int>(fy * kGridCells), 0, max_cell);
  return static_cast<uint32_t>(iy) * static_cast<uint32_t>(kGridCells) +
         static_cast<uint32_t>(ix);
}

}  // namespace

Rect CenterBounds(std::span<const RangeReachQuery> window) {
  Rect bounds;
  for (const RangeReachQuery& query : window) {
    bounds.Expand(query.region.Center());
  }
  return bounds;
}

QueryGroup& GroupingArena::NewGroup() {
  if (groups_used_ == groups_.size()) groups_.emplace_back();
  QueryGroup& group = groups_[groups_used_++];
  group.regions.clear();
  group.member_query.clear();
  group.member_region.clear();
  return group;
}

std::span<const QueryGroup> GroupingArena::Build(
    std::span<const RangeReachQuery> window, const GroupingOptions& options) {
  for (size_t i = all_.size(); i < window.size(); ++i) {
    all_.push_back(static_cast<uint32_t>(i));
  }
  return Build(window, std::span<const uint32_t>(all_.data(), window.size()),
               CenterBounds(window), options);
}

std::span<const QueryGroup> GroupingArena::Build(
    std::span<const RangeReachQuery> window, std::span<const uint32_t> indices,
    const Rect& bounds, const GroupingOptions& options) {
  groups_used_ = 0;
  buckets_used_ = 0;
  if (indices.empty()) return {};
  const size_t cap =
      std::clamp<size_t>(options.max_group_regions, 1, simd::kMaskWidth);

  // Axis (a): bucket the query indices by query vertex, keeping vertices
  // in first-appearance order so the partition is deterministic. The
  // vertex table is open-addressed at <= 50% load (this pass is the
  // grouping hot spot — a node-based map here costs more than the probes
  // some groups share).
  const size_t min_slots = std::bit_ceil(indices.size() * 2);
  if (slots_.size() < min_slots) {
    slots_.assign(min_slots, VertexSlot{});
    slot_gen_ = 0;
  }
  if (++slot_gen_ == 0) {  // Stamp wrap: one real clear every 2^32 builds.
    std::fill(slots_.begin(), slots_.end(), VertexSlot{});
    slot_gen_ = 1;
  }
  const size_t slot_mask = slots_.size() - 1;
  const int hash_shift =
      64 - std::countr_zero(static_cast<uint64_t>(slots_.size()));
  for (const uint32_t i : indices) {
    const VertexId vertex = window[i].vertex;
    size_t s = (static_cast<uint64_t>(vertex) * 0x9E3779B97F4A7C15ull) >>
               hash_shift;
    uint32_t bucket;
    while (true) {
      VertexSlot& slot = slots_[s];
      if (slot.gen != slot_gen_) {
        bucket = static_cast<uint32_t>(buckets_used_);
        slot = VertexSlot{vertex, bucket, slot_gen_};
        if (buckets_used_ == buckets_.size()) buckets_.emplace_back();
        buckets_[buckets_used_++].clear();
        break;
      }
      if (slot.vertex == vertex) {
        bucket = slot.bucket;
        break;
      }
      s = (s + 1) & slot_mask;
    }
    buckets_[bucket].push_back(i);
  }

  for (size_t b = 0; b < buckets_used_; ++b) {
    const std::vector<uint32_t>& bucket = buckets_[b];
    // Order the vertex's members so spatially close regions are adjacent
    // before the <= cap split; stable sort keeps arrival order within a
    // cell, so the partition stays deterministic.
    ordered_.clear();
    ordered_.reserve(bucket.size());
    for (const uint32_t index : bucket) {
      ordered_.emplace_back(CellOf(window[index].region, bounds), index);
    }
    std::stable_sort(ordered_.begin(), ordered_.end(),
                     [](const auto& a, const auto& b) {
                       return a.first < b.first;
                     });

    QueryGroup* group = nullptr;
    for (const auto& [cell, index] : ordered_) {
      const Rect& region = window[index].region;
      // Exact-duplicate regions collapse onto one slot: the region list
      // is at most `cap` long, so the linear scan is bounded.
      uint32_t slot = 0;
      if (group != nullptr) {
        while (slot < group->regions.size() &&
               !(group->regions[slot] == region)) {
          ++slot;
        }
      }
      if (group == nullptr ||
          (slot == group->regions.size() && group->regions.size() == cap)) {
        group = &NewGroup();
        group->vertex = window[index].vertex;
        slot = 0;
      }
      if (slot == group->regions.size()) group->regions.push_back(region);
      group->member_query.push_back(index);
      group->member_region.push_back(slot);
    }
  }
  return std::span<const QueryGroup>(groups_.data(), groups_used_);
}

}  // namespace gsr::exec
