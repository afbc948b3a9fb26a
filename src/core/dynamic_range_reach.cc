#include "core/dynamic_range_reach.h"

#include <algorithm>
#include <limits>
#include <string>

#include "common/check.h"
#include "graph/digraph.h"

namespace gsr {

namespace {

/// Overlay expansions a risky-delta query may spend before falling back to
/// the optimistic index pass. On the weeplaces churn stream over 99.8% of
/// risky-view queries are decided within 64 expansions, about 91% within
/// one; budgets of 16 and 256 cost the same per query.
constexpr size_t kRiskySearchBudget = 64;
constexpr size_t kUnbounded = std::numeric_limits<size_t>::max();

std::string BadVertexMessage(const char* what, VertexId a, VertexId b,
                             VertexId n) {
  return std::string(what) + " (" + std::to_string(a) + ", " +
         std::to_string(b) + ") references a vertex >= " + std::to_string(n);
}

/// Binary search in a sorted (from, to) edge list.
bool ContainsEdge(const std::vector<std::pair<VertexId, VertexId>>& edges,
                  VertexId from, VertexId to) {
  return std::binary_search(edges.begin(), edges.end(),
                            std::make_pair(from, to));
}

void InsertSortedEdge(std::vector<std::pair<VertexId, VertexId>>& edges,
                      VertexId from, VertexId to) {
  const auto e = std::make_pair(from, to);
  edges.insert(std::lower_bound(edges.begin(), edges.end(), e), e);
}

void EraseSortedEdge(std::vector<std::pair<VertexId, VertexId>>& edges,
                     VertexId from, VertexId to) {
  const auto e = std::make_pair(from, to);
  const auto it = std::lower_bound(edges.begin(), edges.end(), e);
  GSR_DCHECK(it != edges.end() && *it == e);
  edges.erase(it);
}

/// The sorted sub-range of `edges` with the given source vertex.
std::span<const std::pair<VertexId, VertexId>> EdgesFrom(
    const std::vector<std::pair<VertexId, VertexId>>& edges, VertexId from) {
  const auto lo = std::lower_bound(
      edges.begin(), edges.end(), std::make_pair(from, VertexId{0}));
  auto hi = lo;
  while (hi != edges.end() && hi->first == from) ++hi;
  return {edges.data() + (lo - edges.begin()), static_cast<size_t>(hi - lo)};
}

using Base = DynamicRangeReach::Base;
using Delta = DynamicRangeReach::Delta;
using Scratch = DynamicRangeReach::Scratch;

/// Does base vertex `from` reach base vertex `to` over base edges?
bool BaseReach(const Base& base, VertexId from, VertexId to) {
  return base.index->interval_labeling()->CanReach(
      base.cn->ComponentOf(from), base.cn->ComponentOf(to));
}

/// The base-index scratch of `scratch`, (re)created lazily: a hot-swapped
/// base has a fresh method instance, which invalidates scratches of the
/// old one.
QueryScratch& BaseScratch(const Base& base, Scratch& scratch) {
  if (!scratch.base || scratch.base_instance != base.method->instance_id()) {
    scratch.base = base.method->NewScratch();
    scratch.base_instance = base.method->instance_id();
  }
  return *scratch.base;
}

/// Stitch closure: BFS over the stitch points (distinct inserted-edge
/// endpoints) reachable from `vertex`. Edges of this mini-graph are (a)
/// the inserted edges themselves and (b) base reachability between base
/// stitch points. Seeds are the stitch points `vertex` reaches without
/// any inserted edge. Each node is handed to `stop_at` when it is
/// dequeued, before its expansion; the closure returns true as soon as
/// `stop_at` does. On a false return scratch.node_visited marks every
/// reachable stitch point.
template <typename StopAt>
bool StitchClosure(const Base& base, const Delta& delta, VertexId vertex,
                   Scratch& scratch, StopAt&& stop_at) {
  const VertexId nb = base.num_vertices();
  const std::vector<VertexId>& nodes = delta.stitch_nodes;
  const size_t k = nodes.size();
  scratch.node_visited.assign(k, 0);
  std::vector<uint8_t>& node_visited = scratch.node_visited;
  std::vector<uint32_t>& queue = scratch.queue;
  queue.clear();
  queue.reserve(k);

  const auto node_index = [&nodes](VertexId v) {
    const auto it = std::lower_bound(nodes.begin(), nodes.end(), v);
    GSR_DCHECK(it != nodes.end() && *it == v);
    return static_cast<size_t>(it - nodes.begin());
  };
  const auto try_visit = [&](size_t idx) {
    if (!node_visited[idx]) {
      node_visited[idx] = 1;
      queue.push_back(static_cast<uint32_t>(idx));
    }
  };

  for (size_t i = 0; i < k; ++i) {
    const VertexId node = nodes[i];
    if (node == vertex ||
        (vertex < nb && node < nb && BaseReach(base, vertex, node))) {
      try_visit(i);
    }
  }

  for (size_t head = 0; head < queue.size(); ++head) {
    const VertexId a = nodes[queue[head]];
    if (stop_at(a)) return true;
    // Expand through inserted edges leaving a.
    for (const auto& [from, to] : EdgesFrom(delta.inserted_edges, a)) {
      (void)from;
      try_visit(node_index(to));
    }
    // Expand through base segments from a to other base stitch points.
    if (a < nb) {
      for (size_t i = 0; i < k; ++i) {
        if (!node_visited[i] && nodes[i] < nb && BaseReach(base, a, nodes[i])) {
          try_visit(i);
        }
      }
    }
  }
  return false;
}

}  // namespace

// --- Base -----------------------------------------------------------------

std::shared_ptr<const DynamicRangeReach::Base> DynamicRangeReach::Base::Build(
    GeoSocialNetwork network, uint64_t position, exec::ThreadPool* pool) {
  auto base = std::make_shared<Base>();
  auto net = std::make_shared<GeoSocialNetwork>(std::move(network));
  base->network = net;
  base->cn = std::make_shared<CondensedNetwork>(net.get());
  auto index = std::make_unique<ThreeDReach>(base->cn.get(),
                                             ThreeDReach::Options{}, pool);
  base->index = index.get();
  base->method = std::move(index);
  base->position = position;
  return base;
}

Result<std::shared_ptr<const DynamicRangeReach::Base>>
DynamicRangeReach::Base::RoundTripThroughSnapshot(
    const std::shared_ptr<const Base>& built, const std::string& path,
    snapshot::LoadMode mode) {
  MethodConfig config;
  config.kind = MethodKind::kThreeDReach;
  GSR_RETURN_IF_ERROR(
      SaveMethodSnapshot(*built->method, config, *built->cn, path));
  SnapshotLoadOptions options;
  options.mode = mode;
  auto loaded = LoadMethodSnapshot(built->cn.get(), path, options);
  if (!loaded.ok()) return loaded.status();

  auto base = std::make_shared<Base>();
  base->network = built->network;
  base->cn = built->cn;
  base->method = std::move(loaded.value().method);
  base->index = static_cast<const ThreeDReach*>(base->method.get());
  base->position = built->position;
  base->from_snapshot = true;
  return std::shared_ptr<const Base>(std::move(base));
}

// --- Delta ----------------------------------------------------------------

const std::optional<Point2D>* DynamicRangeReach::Delta::OverrideFor(
    VertexId v) const {
  const size_t word = v / 64;
  if (word >= overridden.size() || ((overridden[word] >> (v % 64)) & 1) == 0) {
    return nullptr;
  }
  const auto it = std::lower_bound(
      point_overrides.begin(), point_overrides.end(), v,
      [](const auto& entry, VertexId vertex) { return entry.first < vertex; });
  if (it == point_overrides.end() || it->first != v) return nullptr;
  return &it->second;
}

size_t DynamicRangeReach::Delta::SizeBytes() const {
  return added_points.capacity() * sizeof(std::optional<Point2D>) +
         inserted_edges.capacity() * sizeof(std::pair<VertexId, VertexId>) +
         stitch_nodes.capacity() * sizeof(VertexId) +
         point_overrides.capacity() *
             sizeof(std::pair<VertexId, std::optional<Point2D>>) +
         deleted_edges.capacity() * sizeof(std::pair<VertexId, VertexId>) +
         overridden.capacity() * sizeof(uint64_t);
}

// --- Engine ---------------------------------------------------------------

DynamicRangeReach::DynamicRangeReach(GeoSocialNetwork network,
                                     exec::ThreadPool* pool)
    : pool_(pool) {
  InstallBase(Base::Build(std::move(network), 0, pool));
}

Result<bool> DynamicRangeReach::ApplyToDelta(const Update& update) {
  const VertexId n = num_vertices();
  const VertexId nb = base_->num_vertices();
  switch (update.kind) {
    case Update::Kind::kAddVertex:
      delta_.added_points.push_back(update.point);
      return true;

    case Update::Kind::kSetPoint: {
      if (update.a >= n) {
        return Status::InvalidArgument(
            BadVertexMessage("set_point", update.a, update.a, n));
      }
      if (!update.point.has_value()) {
        return Status::InvalidArgument("set_point carries no point");
      }
      const Point2D& p = *update.point;
      if (update.a >= nb) {
        std::optional<Point2D>& cur = delta_.added_points[update.a - nb];
        if (cur.has_value() && cur->x == p.x && cur->y == p.y) return false;
        cur = p;
        return true;
      }
      const auto it = std::lower_bound(
          delta_.point_overrides.begin(), delta_.point_overrides.end(),
          update.a, [](const auto& entry, VertexId v) {
            return entry.first < v;
          });
      if (it != delta_.point_overrides.end() && it->first == update.a) {
        if (it->second.has_value() && it->second->x == p.x &&
            it->second->y == p.y) {
          return false;
        }
        it->second = p;
        return true;
      }
      const bool was_spatial = base_->network->IsSpatial(update.a);
      if (was_spatial) {
        const Point2D& old = base_->network->PointOf(update.a);
        if (old.x == p.x && old.y == p.y) return false;  // Same point: no-op.
      }
      delta_.point_overrides.insert(
          it, std::make_pair(update.a, std::optional<Point2D>(p)));
      delta_.overridden[update.a / 64] |= uint64_t{1} << (update.a % 64);
      if (was_spatial) ++delta_.stale_base_points;
      return true;
    }

    case Update::Kind::kClearPoint: {
      if (update.a >= n) {
        return Status::InvalidArgument(
            BadVertexMessage("clear_point", update.a, update.a, n));
      }
      if (update.a >= nb) {
        std::optional<Point2D>& cur = delta_.added_points[update.a - nb];
        if (!cur.has_value()) return false;
        cur.reset();
        return true;
      }
      const auto it = std::lower_bound(
          delta_.point_overrides.begin(), delta_.point_overrides.end(),
          update.a, [](const auto& entry, VertexId v) {
            return entry.first < v;
          });
      if (it != delta_.point_overrides.end() && it->first == update.a) {
        if (!it->second.has_value()) return false;
        it->second.reset();
        return true;
      }
      if (!base_->network->IsSpatial(update.a)) return false;  // Already bare.
      delta_.point_overrides.insert(
          it, std::make_pair(update.a, std::optional<Point2D>()));
      delta_.overridden[update.a / 64] |= uint64_t{1} << (update.a % 64);
      ++delta_.stale_base_points;
      return true;
    }

    case Update::Kind::kInsertEdge: {
      if (update.a >= n || update.b >= n) {
        return Status::InvalidArgument(
            BadVertexMessage("insert_edge", update.a, update.b, n));
      }
      if (update.a == update.b) return false;  // Self-loops carry nothing.
      if (ContainsEdge(delta_.inserted_edges, update.a, update.b)) {
        return false;  // Already live via the delta.
      }
      if (update.a < nb && update.b < nb &&
          base_->network->graph().HasEdge(update.a, update.b)) {
        if (ContainsEdge(delta_.deleted_edges, update.a, update.b)) {
          // Reviving a deleted base edge: drop the tombstone.
          EraseSortedEdge(delta_.deleted_edges, update.a, update.b);
          return true;
        }
        return false;  // Already live via the base.
      }
      InsertSortedEdge(delta_.inserted_edges, update.a, update.b);
      for (const VertexId endpoint : {update.a, update.b}) {
        const auto it = std::lower_bound(delta_.stitch_nodes.begin(),
                                         delta_.stitch_nodes.end(), endpoint);
        if (it == delta_.stitch_nodes.end() || *it != endpoint) {
          delta_.stitch_nodes.insert(it, endpoint);
        }
      }
      return true;
    }

    case Update::Kind::kDeleteEdge: {
      if (update.a >= n || update.b >= n) {
        return Status::InvalidArgument(
            BadVertexMessage("delete_edge", update.a, update.b, n));
      }
      if (ContainsEdge(delta_.inserted_edges, update.a, update.b)) {
        EraseSortedEdge(delta_.inserted_edges, update.a, update.b);
        // Stitch nodes are the distinct inserted-edge endpoints; rebuild
        // the (tiny) list rather than reference-count it.
        delta_.stitch_nodes.clear();
        for (const auto& [from, to] : delta_.inserted_edges) {
          for (const VertexId endpoint : {from, to}) {
            const auto it =
                std::lower_bound(delta_.stitch_nodes.begin(),
                                 delta_.stitch_nodes.end(), endpoint);
            if (it == delta_.stitch_nodes.end() || *it != endpoint) {
              delta_.stitch_nodes.insert(it, endpoint);
            }
          }
        }
        return true;
      }
      if (update.a < nb && update.b < nb &&
          base_->network->graph().HasEdge(update.a, update.b) &&
          !ContainsEdge(delta_.deleted_edges, update.a, update.b)) {
        InsertSortedEdge(delta_.deleted_edges, update.a, update.b);
        return true;
      }
      return false;  // Absent edge: no-op.
    }
  }
  return Status::Internal("unknown update kind");
}

Result<VertexId> DynamicRangeReach::Apply(const Update& update) {
  auto changed = ApplyToDelta(update);
  if (!changed.ok()) return changed.status();
  if (*changed) log_.Append(update);
  if (update.kind == Update::Kind::kAddVertex) {
    return base_->num_vertices() +
           static_cast<VertexId>(delta_.added_points.size()) - 1;
  }
  return kInvalidVertex;
}

// --- Evaluation -----------------------------------------------------------

std::optional<Point2D> DynamicRangeReach::CurrentPoint(const Base& base,
                                                       const Delta& delta,
                                                       VertexId v) {
  const VertexId nb = base.num_vertices();
  if (v >= nb) return delta.added_points[v - nb];
  if (const auto* override_point = delta.OverrideFor(v)) {
    return *override_point;
  }
  if (!base.network->IsSpatial(v)) return std::nullopt;
  return base.network->PointOf(v);
}

bool DynamicRangeReach::OptimisticEvaluate(const Base& base, const Delta& delta,
                                           VertexId vertex, const Rect& region,
                                           Scratch& scratch) {
  const VertexId nb = base.num_vertices();
  QueryScratch& base_scratch = BaseScratch(base, scratch);

  // Base vertices whose *current* point lies in the region but whose base
  // point does not witness it (moved-in / newly spatial): the base index
  // cannot see them, so they are probed as explicit reachability targets.
  scratch.extra_targets.clear();
  for (const auto& [v, point] : delta.point_overrides) {
    if (point.has_value() && region.Contains(*point)) {
      scratch.extra_targets.push_back(v);
    }
  }

  // Does `a` reach the region without using any further inserted edge?
  const auto answer_at = [&](VertexId a) {
    const std::optional<Point2D> p = CurrentPoint(base, delta, a);
    if (p.has_value() && region.Contains(*p)) return true;
    if (a < nb) {
      if (base.index->Evaluate(a, region, base_scratch)) return true;
      for (const VertexId target : scratch.extra_targets) {
        if (BaseReach(base, a, target)) return true;
      }
    }
    return false;
  };

  if (answer_at(vertex)) return true;
  if (delta.inserted_edges.empty()) return false;
  return StitchClosure(base, delta, vertex, scratch, answer_at);
}

DynamicRangeReach::SearchOutcome DynamicRangeReach::OverlaySearch(
    const Base& base, const Delta& delta, VertexId vertex, const Rect& region,
    size_t max_expansions, ResultSink* sink, Scratch& scratch) {
  const VertexId nb = base.num_vertices();
  scratch.seen.BeginPass(nb + delta.added_points.size());
  std::vector<VertexId>& queue = scratch.overlay_queue;
  queue.clear();

  // Marks and enqueues `v` if new; true when it is a witness that ends
  // the search (never in collecting mode).
  const auto discover = [&](VertexId v) {
    if (!scratch.seen.TestAndSet(v)) return false;
    queue.push_back(v);
    const std::optional<Point2D> p = CurrentPoint(base, delta, v);
    if (!p.has_value() || !region.Contains(*p)) return false;
    if (sink == nullptr) return true;
    sink->Add(v);
    return false;
  };
  if (discover(vertex)) return SearchOutcome::kFound;

  for (size_t head = 0; head < queue.size(); ++head) {
    if (head == max_expansions) return SearchOutcome::kBudget;
    ++scratch.counters.vertices_visited;
    const VertexId u = queue[head];
    if (u < nb) {
      // Live base edges: the sorted out-list minus this source's sorted
      // deleted span, walked in lockstep.
      const auto deleted = EdgesFrom(delta.deleted_edges, u);
      size_t d = 0;
      for (const VertexId w : base.network->graph().OutNeighbors(u)) {
        while (d < deleted.size() && deleted[d].second < w) ++d;
        if (d < deleted.size() && deleted[d].second == w) continue;
        if (discover(w)) return SearchOutcome::kFound;
      }
    }
    for (const auto& [from, to] : EdgesFrom(delta.inserted_edges, u)) {
      (void)from;
      if (discover(to)) return SearchOutcome::kFound;
    }
  }
  return SearchOutcome::kExhausted;
}

void DynamicRangeReach::CollectImpl(const Base& base, const Delta& delta,
                                    VertexId vertex, const Rect& region,
                                    ResultSink& sink, Scratch& scratch) {
  const VertexId nb = base.num_vertices();
  const VertexId n = nb + static_cast<VertexId>(delta.added_points.size());
  GSR_CHECK(vertex < n);
  GSR_DCHECK(sink.kind() != QueryKind::kBool);

  if (delta.risky()) {
    // The base index may over-approximate once base edges were deleted
    // or base points went stale, so collect with the exact overlay
    // search — its visit marks give exactly-once delivery for free.
    OverlaySearch(base, delta, vertex, region, kUnbounded, &sink, scratch);
    return;
  }

  // Insert-only delta: base reachability is exact, so the result is the
  // union of three sources, deduplicated with epoch marks (the anchors'
  // base collections can overlap):
  //  1. the base index's collection from the query vertex and from every
  //     reachable stitch anchor — base vertices whose base point (still
  //     current; the delta is not risky) lies in the region;
  //  2. point overrides — base vertices that *gained* a point, invisible
  //     to the base index — reachable over base paths from the vertex or
  //     an anchor;
  //  3. added vertices, which have no base edges and so are reachable
  //     only as the query vertex itself or as a stitch anchor.
  QueryScratch& base_scratch = BaseScratch(base, scratch);
  StitchClosure(base, delta, vertex, scratch, [](VertexId) { return false; });
  const std::vector<VertexId>& nodes = delta.stitch_nodes;
  const std::vector<uint8_t>& node_visited = scratch.node_visited;
  const size_t k = nodes.size();

  scratch.seen.BeginPass(n);
  const auto emit = [&](VertexId v) {
    if (scratch.seen.TestAndSet(v)) sink.Add(v);
  };

  // Source 1: base collections.
  const auto collect_from_base = [&](VertexId a) {
    ResultSink base_sink = ResultSink::Enum(&scratch.collect_arena);
    base.index->CollectInto(a, region, base_sink, base_scratch);
    for (const VertexId v : scratch.collect_arena) emit(v);
  };
  if (vertex < nb) collect_from_base(vertex);
  for (size_t i = 0; i < k; ++i) {
    if (node_visited[i] && nodes[i] < nb) collect_from_base(nodes[i]);
  }

  // Source 2: overrides. All are gained points here (a changed or
  // cleared base point would make the delta risky), so they never
  // collide with source 1.
  for (const auto& [v, point] : delta.point_overrides) {
    if (!point.has_value() || !region.Contains(*point)) continue;
    bool reachable = v == vertex || (vertex < nb && BaseReach(base, vertex, v));
    for (size_t i = 0; !reachable && i < k; ++i) {
      reachable =
          node_visited[i] && nodes[i] < nb && BaseReach(base, nodes[i], v);
    }
    if (reachable) emit(v);
  }

  // Source 3: added vertices.
  const auto emit_added_if_inside = [&](VertexId v) {
    const std::optional<Point2D>& p = delta.added_points[v - nb];
    if (p.has_value() && region.Contains(*p)) emit(v);
  };
  if (vertex >= nb) emit_added_if_inside(vertex);
  for (size_t i = 0; i < k; ++i) {
    if (node_visited[i] && nodes[i] >= nb) emit_added_if_inside(nodes[i]);
  }
}

bool DynamicRangeReach::EvaluateImpl(const Base& base, const Delta& delta,
                                     VertexId vertex, const Rect& region,
                                     Scratch& scratch) {
  const VertexId n =
      base.num_vertices() + static_cast<VertexId>(delta.added_points.size());
  GSR_CHECK(vertex < n);
  // Insert-only delta: the base index is exact, so the optimistic pass is.
  if (!delta.risky()) {
    return OptimisticEvaluate(base, delta, vertex, region, scratch);
  }
  // Risky delta: the budgeted exact search decides almost every query.
  const SearchOutcome outcome = OverlaySearch(
      base, delta, vertex, region, kRiskySearchBudget, nullptr, scratch);
  if (outcome != SearchOutcome::kBudget) {
    return outcome == SearchOutcome::kFound;
  }
  // Past the budget: the optimistic pass over-approximates, so its FALSE
  // is exact and its TRUE is settled by the unbounded search.
  if (!OptimisticEvaluate(base, delta, vertex, region, scratch)) return false;
  return OverlaySearch(base, delta, vertex, region, kUnbounded, nullptr,
                       scratch) == SearchOutcome::kFound;
}

// --- Snapshot / rebuild ---------------------------------------------------

std::shared_ptr<const DynamicRangeReach::View> DynamicRangeReach::Snapshot()
    const {
  auto view = std::make_shared<View>();
  view->base = base_;
  view->delta = delta_;
  view->position = log_.size();
  return view;
}

GeoSocialNetwork DynamicRangeReach::MaterializeAt(uint64_t position) const {
  GSR_CHECK(position >= base_->position && position <= log_.size());
  auto merged =
      MaterializeNetwork(*base_->network, log_.Range(base_->position, position));
  GSR_CHECK(merged.ok());
  return std::move(merged).value();
}

void DynamicRangeReach::InstallBase(std::shared_ptr<const Base> base) {
  GSR_CHECK(base != nullptr && base->position <= log_.size());
  base_ = std::move(base);
  delta_ = Delta{};
  delta_.overridden.assign((base_->num_vertices() + 63) / 64, 0);
  // Re-derive the delta from the log suffix the new base does not fold in.
  // Replayed entries were validated when first applied, and replay must
  // not re-log them.
  for (const Update& update : log_.Range(base_->position, log_.size())) {
    auto changed = ApplyToDelta(update);
    GSR_CHECK(changed.ok());
  }
}

void DynamicRangeReach::Rebuild() {
  if (pending_updates() == 0 && log_.size() == base_->position) return;
  const uint64_t cut = log_.size();
  InstallBase(Base::Build(MaterializeAt(cut), cut, pool_));
}

}  // namespace gsr
