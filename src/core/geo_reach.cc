#include "core/geo_reach.h"

#include <algorithm>

#include "common/check.h"
#include "exec/parallel.h"

namespace gsr {

namespace {

/// The grid pyramid needs a non-degenerate space; networks without spatial
/// vertices get a dummy unit square (their SPA-graph is all-B-false).
Rect GridSpace(const GeoSocialNetwork& network) {
  Rect space = network.SpaceBounds();
  if (space.IsEmpty() || space.Area() <= 0.0) {
    space = Rect(0.0, 0.0, 1.0, 1.0);
  }
  return space;
}

}  // namespace

GeoReachMethod::GeoReachMethod(const CondensedNetwork* cn,
                               const Options& options,
                               exec::ThreadPool* pool)
    : cn_(cn),
      options_(options),
      grid_(GridSpace(cn->network()), options.grid_depth) {
  const uint32_t n = cn->num_components();
  class_.assign(n, SpaClass::kBFalse);
  rmbr_.assign(n, Rect());
  reach_grid_.assign(n, {});

  const double space_area = grid_.space().Area();
  const double max_rmbr_area = options.max_rmbr_ratio * space_area;

  // Component ids ascend in reverse topological order, so iterating
  // ascending processes all successors of c before c itself.
  if (pool == nullptr || pool->size() <= 1) {
    for (ComponentId c = 0; c < n; ++c) BuildComponent(c, max_rmbr_area);
    return;
  }

  // Parallel variant: components on the same longest-path-to-sink level
  // cannot reach each other, so each wave builds independently from the
  // finished waves below it — the per-component results are identical to
  // the serial ascending pass.
  std::vector<uint32_t> level(n, 0);
  uint32_t max_level = 0;
  for (ComponentId c = 0; c < n; ++c) {
    for (const VertexId raw : cn->dag().OutNeighbors(c)) {
      level[c] = std::max(level[c], level[raw] + 1);
    }
    max_level = std::max(max_level, level[c]);
  }
  std::vector<std::vector<ComponentId>> waves(static_cast<size_t>(max_level) +
                                              1);
  for (ComponentId c = 0; c < n; ++c) waves[level[c]].push_back(c);
  for (const std::vector<ComponentId>& wave : waves) {
    exec::ForEachIndex(pool, wave.size(), 64, [&](size_t i) {
      BuildComponent(wave[i], max_rmbr_area);
    });
  }
}

GeoReachMethod::GeoReachMethod(const CondensedNetwork* cn,
                               const Options& options,
                               std::vector<SpaClass> classes,
                               std::vector<Rect> rmbr,
                               std::vector<std::vector<GridCell>> reach_grid)
    : cn_(cn),
      options_(options),
      grid_(GridSpace(cn->network()), options.grid_depth),
      class_(std::move(classes)),
      rmbr_(std::move(rmbr)),
      reach_grid_(std::move(reach_grid)) {}

void GeoReachMethod::BuildComponent(ComponentId c, double max_rmbr_area) {
  const GeoSocialNetwork& network = cn_->network();
  Rect rmbr;  // Exact MBR of all spatial vertices reachable from c.
  std::vector<GridCell> cells;
  bool reaches_spatial = false;
  bool forced_b = false;  // Some successor is a B-vertex with GeoB=true.
  bool forced_r = false;  // Some successor is an R-vertex (no grid info).

  // Own spatial members (a super-vertex reaches its own points).
  for (const VertexId v : cn_->SpatialMembersOf(c)) {
    const Point2D& p = network.PointOf(v);
    rmbr.Expand(p);
    cells.push_back(grid_.Locate(p, /*level=*/0));
    reaches_spatial = true;
  }

  // Merge successor information.
  for (const VertexId raw : cn_->dag().OutNeighbors(c)) {
    const ComponentId succ = static_cast<ComponentId>(raw);
    switch (class_[succ]) {
      case SpaClass::kBFalse:
        break;
      case SpaClass::kBTrue:
        reaches_spatial = true;
        forced_b = true;
        break;
      case SpaClass::kR:
        reaches_spatial = true;
        forced_r = true;
        rmbr.Expand(rmbr_[succ]);
        break;
      case SpaClass::kG:
        reaches_spatial = true;
        rmbr.Expand(rmbr_[succ]);
        cells.insert(cells.end(), reach_grid_[succ].begin(),
                     reach_grid_[succ].end());
        break;
    }
  }

  if (!reaches_spatial) {
    class_[c] = SpaClass::kBFalse;
    return;
  }
  if (forced_b) {
    class_[c] = SpaClass::kBTrue;
    return;
  }
  // Candidate G-vertex unless a successor already lost its grid.
  if (!forced_r) {
    cells = grid_.MergeCells(std::move(cells), options_.merge_count);
    if (cells.size() <= options_.max_reach_grids) {
      class_[c] = SpaClass::kG;
      rmbr_[c] = rmbr;
      reach_grid_[c] = std::move(cells);
      reach_grid_[c].shrink_to_fit();
      return;
    }
    // Too many cells: downgrade to R (MAX_REACH_GRIDS policy).
  }
  if (rmbr.Area() > max_rmbr_area) {
    class_[c] = SpaClass::kBTrue;  // MAX_RMBR policy.
    return;
  }
  class_[c] = SpaClass::kR;
  rmbr_[c] = rmbr;
}

GeoReachMethod::VisitAction GeoReachMethod::Visit(ComponentId c,
                                                  const Rect& region) const {
  switch (class_[c]) {
    case SpaClass::kBFalse:
      return VisitAction::kPrune;
    case SpaClass::kBTrue:
      // No geometry to prune with; test own points, then keep traversing.
      if (cn_->AnyMemberPointIn(c, region)) return VisitAction::kAnswerTrue;
      return VisitAction::kExpand;
    case SpaClass::kR: {
      const Rect& rmbr = rmbr_[c];
      if (!rmbr.Intersects(region)) return VisitAction::kPrune;
      // RMBR is the exact MBR of a non-empty reachable point set: if it
      // lies fully inside the region, some reachable point does too.
      if (region.Contains(rmbr)) return VisitAction::kAnswerTrue;
      if (cn_->AnyMemberPointIn(c, region)) return VisitAction::kAnswerTrue;
      return VisitAction::kExpand;
    }
    case SpaClass::kG: {
      bool any_overlap = false;
      for (const GridCell& cell : reach_grid_[c]) {
        const Rect cell_rect = grid_.CellRect(cell);
        if (!cell_rect.Intersects(region)) continue;
        // Every ReachGrid cell contains >= 1 reachable spatial point.
        if (region.Contains(cell_rect)) return VisitAction::kAnswerTrue;
        any_overlap = true;
      }
      if (!any_overlap) return VisitAction::kPrune;
      if (cn_->AnyMemberPointIn(c, region)) return VisitAction::kAnswerTrue;
      return VisitAction::kExpand;
    }
  }
  return VisitAction::kPrune;
}

bool GeoReachMethod::Evaluate(VertexId vertex, const Rect& region,
                              QueryScratch& scratch) const {
  Scratch& s = static_cast<Scratch&>(scratch);
  ++s.counters.queries;
  if (++s.epoch == 0) {
    std::fill(s.mark.begin(), s.mark.end(), 0);
    s.epoch = 1;
  }
  s.queue.clear();
  const ComponentId source = cn_->ComponentOf(vertex);
  s.queue.push_back(source);
  s.mark[source] = s.epoch;
  for (size_t head = 0; head < s.queue.size(); ++head) {
    const ComponentId c = s.queue[head];
    ++s.counters.vertices_visited;
    switch (Visit(c, region)) {
      case VisitAction::kAnswerTrue:
        return true;
      case VisitAction::kPrune:
        ++s.counters.pruned;
        break;
      case VisitAction::kExpand:
        for (const VertexId raw : cn_->dag().OutNeighbors(c)) {
          const ComponentId succ = static_cast<ComponentId>(raw);
          if (s.mark[succ] != s.epoch) {
            s.mark[succ] = s.epoch;
            s.queue.push_back(succ);
          }
        }
        break;
    }
  }
  return false;
}

bool GeoReachMethod::PruneForCollect(ComponentId c, const Rect& region) const {
  switch (class_[c]) {
    case SpaClass::kBFalse:
      return true;  // Reaches no spatial vertex at all.
    case SpaClass::kBTrue:
      return false;  // No geometry to prune with.
    case SpaClass::kR:
      // RMBR encloses every reachable point: disjoint => none in region.
      return !rmbr_[c].Intersects(region);
    case SpaClass::kG:
      // Every reachable point lies in some ReachGrid cell.
      for (const GridCell& cell : reach_grid_[c]) {
        if (grid_.CellRect(cell).Intersects(region)) return false;
      }
      return true;
  }
  return true;
}

void GeoReachMethod::CollectInto(VertexId vertex, const Rect& region,
                                 ResultSink& sink,
                                 QueryScratch& scratch) const {
  Scratch& s = static_cast<Scratch&>(scratch);
  ++s.counters.queries;
  if (++s.epoch == 0) {
    std::fill(s.mark.begin(), s.mark.end(), 0);
    s.epoch = 1;
  }
  s.queue.clear();
  const ComponentId source = cn_->ComponentOf(vertex);
  s.queue.push_back(source);
  s.mark[source] = s.epoch;
  for (size_t head = 0; head < s.queue.size(); ++head) {
    const ComponentId c = s.queue[head];
    ++s.counters.vertices_visited;
    if (PruneForCollect(c, region)) {
      ++s.counters.pruned;
      continue;
    }
    cn_->ForEachSpatialMemberIn(c, region, [&](VertexId v) { sink.Add(v); });
    for (const VertexId raw : cn_->dag().OutNeighbors(c)) {
      const ComponentId succ = static_cast<ComponentId>(raw);
      if (s.mark[succ] != s.epoch) {
        s.mark[succ] = s.epoch;
        s.queue.push_back(succ);
      }
    }
  }
}

bool GeoReachMethod::EvaluateAny(std::span<const VertexId> sources,
                                 const Rect& region,
                                 QueryScratch& scratch) const {
  if (sources.empty()) return false;
  Scratch& s = static_cast<Scratch&>(scratch);
  ++s.counters.queries;
  if (++s.epoch == 0) {
    std::fill(s.mark.begin(), s.mark.end(), 0);
    s.epoch = 1;
  }
  // Seed the frontier with every distinct source component; from there
  // the traversal is exactly the single-source BFS over the union of the
  // reachable sets, with each component visited once.
  s.queue.clear();
  for (const VertexId vertex : sources) {
    const ComponentId c = cn_->ComponentOf(vertex);
    if (s.mark[c] != s.epoch) {
      s.mark[c] = s.epoch;
      s.queue.push_back(c);
    }
  }
  for (size_t head = 0; head < s.queue.size(); ++head) {
    const ComponentId c = s.queue[head];
    ++s.counters.vertices_visited;
    switch (Visit(c, region)) {
      case VisitAction::kAnswerTrue:
        return true;
      case VisitAction::kPrune:
        ++s.counters.pruned;
        break;
      case VisitAction::kExpand:
        for (const VertexId raw : cn_->dag().OutNeighbors(c)) {
          const ComponentId succ = static_cast<ComponentId>(raw);
          if (s.mark[succ] != s.epoch) {
            s.mark[succ] = s.epoch;
            s.queue.push_back(succ);
          }
        }
        break;
    }
  }
  return false;
}

size_t GeoReachMethod::IndexSizeBytes() const {
  // The SPA-graph augmentation: one class tag per vertex, an RMBR per
  // R-vertex, a cell list per G-vertex (plus its exact RMBR, which our
  // construction keeps for G-vertices too).
  size_t total = sizeof(*this) + class_.size() * sizeof(SpaClass);
  for (ComponentId c = 0; c < class_.size(); ++c) {
    if (class_[c] == SpaClass::kR || class_[c] == SpaClass::kG) {
      total += sizeof(Rect);
    }
    if (class_[c] == SpaClass::kG) {
      total += sizeof(std::vector<GridCell>) +
               reach_grid_[c].size() * sizeof(GridCell);
    }
  }
  return total;
}

GeoReachMethod::ClassCounts GeoReachMethod::CountClasses() const {
  ClassCounts counts;
  for (const SpaClass cls : class_) {
    switch (cls) {
      case SpaClass::kBFalse:
        ++counts.b_false;
        break;
      case SpaClass::kBTrue:
        ++counts.b_true;
        break;
      case SpaClass::kR:
        ++counts.r;
        break;
      case SpaClass::kG:
        ++counts.g;
        break;
    }
  }
  return counts;
}

}  // namespace gsr
