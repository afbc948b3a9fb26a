#include "spatial/frozen_rtree.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/check.h"
#include "exec/parallel.h"

namespace gsr {

namespace {

/// STR sort keys: dimensionality, per-dimension centers (of boxes and
/// point leaves) and box extremes.
int BoxDims(const Rect&) { return 2; }
int BoxDims(const Box3D&) { return 3; }

double CenterAlong(const Rect& r, int dim) {
  return dim == 0 ? (r.min_x + r.max_x) / 2.0 : (r.min_y + r.max_y) / 2.0;
}
double CenterAlong(const Box3D& b, int dim) {
  return (b.min[dim] + b.max[dim]) / 2.0;
}
double CenterAlong(const Point2D& p, int dim) {
  return dim == 0 ? p.x : p.y;
}
double CenterAlong(const Point3D& p, int dim) {
  return dim == 0 ? p.x : (dim == 1 ? p.y : p.z);
}

/// Per-dimension box extremes; tie-breaker keys for StrLess.
double BoxMinAlong(const Rect& r, int dim) {
  return dim == 0 ? r.min_x : r.min_y;
}
double BoxMaxAlong(const Rect& r, int dim) {
  return dim == 0 ? r.max_x : r.max_y;
}
double BoxMinAlong(const Box3D& b, int dim) { return b.min[dim]; }
double BoxMaxAlong(const Box3D& b, int dim) { return b.max[dim]; }

/// Node capacity of every STR tile: common main-memory fanout.
constexpr size_t kFanout = 32;

/// One node-sized run of consecutive items produced by STR tiling.
struct Run {
  size_t lo = 0;
  size_t hi = 0;
};

/// Strict total order used for STR tiling along `dim`: center along dim,
/// then the remaining centers, then box extents, then id. Ties only
/// between bitwise-identical entries, which makes the sorted permutation
/// unique — the foundation of the deterministic parallel build.
template <typename ItemT>
bool StrLess(const ItemT& a, const ItemT& b, int dim, int dims) {
  {
    const double ca = CenterAlong(a.first, dim);
    const double cb = CenterAlong(b.first, dim);
    if (ca != cb) return ca < cb;
  }
  for (int d = 0; d < dims; ++d) {
    if (d == dim) continue;
    const double ca = CenterAlong(a.first, d);
    const double cb = CenterAlong(b.first, d);
    if (ca != cb) return ca < cb;
  }
  const auto box_a = GeomToBox(a.first);
  const auto box_b = GeomToBox(b.first);
  for (int d = 0; d < dims; ++d) {
    if (BoxMinAlong(box_a, d) != BoxMinAlong(box_b, d)) {
      return BoxMinAlong(box_a, d) < BoxMinAlong(box_b, d);
    }
    if (BoxMaxAlong(box_a, d) != BoxMaxAlong(box_b, d)) {
      return BoxMaxAlong(box_a, d) < BoxMaxAlong(box_b, d);
    }
  }
  return a.second < b.second;
}

/// STR tiling: sorts and slices `items` level by level along each
/// dimension and returns the node-sized runs in ascending position.
/// Equivalent to the classic recursion, but expressed as per-dimension
/// rounds of independent range sorts so they can run on `pool`.
template <typename ItemT>
std::vector<Run> StrSortIntoRuns(std::vector<ItemT>& items, int dims,
                                 exec::ThreadPool* pool) {
  std::vector<Run> runs;
  std::vector<Run> current{{0, items.size()}};
  for (int dim = 0; dim < dims && !current.empty(); ++dim) {
    // Ranges already small enough become one node, unsorted — exactly as
    // the classic recursion's base case.
    std::vector<Run> to_sort;
    for (const Run& r : current) {
      (r.hi - r.lo <= kFanout ? runs : to_sort).push_back(r);
    }

    auto less = [dim, dims](const ItemT& a, const ItemT& b) {
      return StrLess(a, b, dim, dims);
    };
    if (to_sort.size() == 1) {
      // The dim-0 round is one big range: split it across workers.
      exec::ParallelSort(pool,
                         items.begin() + static_cast<ptrdiff_t>(to_sort[0].lo),
                         items.begin() + static_cast<ptrdiff_t>(to_sort[0].hi),
                         less);
    } else {
      // Deeper rounds have many independent slabs: one sort per worker.
      exec::ForEachIndex(pool, to_sort.size(), 1, [&](size_t i) {
        std::sort(items.begin() + static_cast<ptrdiff_t>(to_sort[i].lo),
                  items.begin() + static_cast<ptrdiff_t>(to_sort[i].hi), less);
      });
    }

    std::vector<Run> next;
    for (const Run& r : to_sort) {
      const size_t n = r.hi - r.lo;
      if (dim >= dims - 1) {
        // Last dimension: chop the run into consecutive full nodes.
        for (size_t start = r.lo; start < r.hi; start += kFanout) {
          runs.push_back(Run{start, std::min(start + kFanout, r.hi)});
        }
        continue;
      }
      const double nodes_needed =
          std::ceil(static_cast<double>(n) / static_cast<double>(kFanout));
      const size_t slices = static_cast<size_t>(std::max(
          1.0, std::ceil(std::pow(nodes_needed,
                                  1.0 / static_cast<double>(dims - dim)))));
      const size_t slab = (n + slices - 1) / slices;
      for (size_t start = r.lo; start < r.hi; start += slab) {
        next.push_back(Run{start, std::min(start + slab, r.hi)});
      }
    }
    current = std::move(next);
  }
  // Emit in ascending item position, matching the serial recursion order.
  std::sort(runs.begin(), runs.end(),
            [](const Run& a, const Run& b) { return a.lo < b.lo; });
  return runs;
}

}  // namespace

template <typename BoxT, typename LeafT>
FrozenRTree<BoxT, LeafT> FrozenRTree<BoxT, LeafT>::Build(
    std::vector<std::pair<LeafT, uint64_t>> entries, exec::ThreadPool* pool) {
  FrozenRTree out;
  out.size_ = entries.size();
  if (entries.empty()) return out;
  const int dims = BoxDims(BoxT());

  // Bottom-up STR. The leaf level tiles the entries; every level above
  // tiles the (MBR, index) items of the level below until one node is
  // left. A level keeps its sorted items and its runs: run i is node i of
  // that level, and its children are the items inside the run.
  struct Level {
    std::vector<std::pair<BoxT, uint64_t>> items;
    std::vector<Run> runs;
  };
  const std::vector<Run> leaf_runs = StrSortIntoRuns(entries, dims, pool);
  std::vector<BoxT> mbrs(leaf_runs.size());
  exec::ForEachIndex(pool, leaf_runs.size(), 8, [&](size_t i) {
    for (size_t k = leaf_runs[i].lo; k < leaf_runs[i].hi; ++k) {
      mbrs[i].Expand(GeomToBox(entries[k].first));
    }
  });
  std::vector<Level> levels;  // Internal levels, bottom-up.
  while (mbrs.size() > 1) {
    Level level;
    level.items.resize(mbrs.size());
    for (size_t i = 0; i < mbrs.size(); ++i) level.items[i] = {mbrs[i], i};
    level.runs = StrSortIntoRuns(level.items, dims, pool);
    mbrs.assign(level.runs.size(), BoxT());
    for (size_t i = 0; i < level.runs.size(); ++i) {
      for (size_t k = level.runs[i].lo; k < level.runs[i].hi; ++k) {
        mbrs[i].Expand(level.items[k].first);
      }
    }
    levels.push_back(std::move(level));
  }
  out.height_ = static_cast<int>(levels.size()) + 1;

  // Top-down breadth-first emission. `order` lists one level's nodes as
  // (MBR, run index) in BFS order; the next level's order is its
  // children concatenated. Every node but the root is exactly one child
  // entry, so child entry e links to node e + 1 — strictly forward, the
  // invariant Deserialize re-validates to reject cyclic (corrupt) links.
  std::vector<std::pair<BoxT, uint64_t>> order{{mbrs[0], 0}};
  for (auto level = levels.rbegin(); level != levels.rend(); ++level) {
    std::vector<std::pair<BoxT, uint64_t>> next;
    for (const auto& [mbr, run_index] : order) {
      const Run run = level->runs[run_index];
      out.owned_nodes_.push_back(
          Node{mbr, static_cast<uint32_t>(out.owned_child_nodes_.size()),
               static_cast<uint32_t>(run.hi - run.lo), /*is_leaf=*/0});
      for (size_t k = run.lo; k < run.hi; ++k) {
        out.owned_child_boxes_.push_back(level->items[k].first);
        out.owned_child_nodes_.push_back(
            static_cast<uint32_t>(out.owned_child_nodes_.size() + 1));
        next.push_back(level->items[k]);
      }
    }
    order = std::move(next);
  }

  // Leaves last, each filled in parallel at its prefix-summed BFS offset.
  std::vector<size_t> offsets(order.size() + 1, 0);
  for (size_t i = 0; i < order.size(); ++i) {
    const Run run = leaf_runs[order[i].second];
    offsets[i + 1] = offsets[i] + (run.hi - run.lo);
  }
  const size_t first_leaf = out.owned_nodes_.size();
  out.owned_nodes_.resize(first_leaf + order.size());
  out.owned_leaf_geoms_.resize(entries.size());
  out.owned_leaf_ids_.resize(entries.size());
  exec::ForEachIndex(pool, order.size(), 8, [&](size_t i) {
    const Run run = leaf_runs[order[i].second];
    out.owned_nodes_[first_leaf + i] =
        Node{order[i].first, static_cast<uint32_t>(offsets[i]),
             static_cast<uint32_t>(run.hi - run.lo), /*is_leaf=*/1};
    for (size_t k = run.lo; k < run.hi; ++k) {
      out.owned_leaf_geoms_[offsets[i] + k - run.lo] = entries[k].first;
      out.owned_leaf_ids_[offsets[i] + k - run.lo] = entries[k].second;
    }
  });

  out.nodes_ = out.owned_nodes_;
  out.child_boxes_ = out.owned_child_boxes_;
  out.child_nodes_ = out.owned_child_nodes_;
  out.leaf_geoms_ = out.owned_leaf_geoms_;
  out.leaf_ids_ = out.owned_leaf_ids_;
  out.root_mbr_ = out.owned_nodes_[0].mbr;
  return out;
}

template <typename BoxT, typename LeafT>
void FrozenRTree<BoxT, LeafT>::SerializeTo(BinaryWriter& w) const {
  GSR_CHECK(!paged_);  // A paged tree's arrays live on disk, not in memory.
  w.WriteU64(size_);
  w.WriteI32(height_);
  w.WriteArray(nodes_);
  w.WriteArray(child_boxes_);
  w.WriteArray(child_nodes_);
  w.WriteArray(leaf_geoms_);
  w.WriteArray(leaf_ids_);
}

template <typename BoxT, typename LeafT>
Result<FrozenRTree<BoxT, LeafT>> FrozenRTree<BoxT, LeafT>::Deserialize(
    BinaryReader& r, const BorrowContext& ctx, uint64_t id_limit,
    const LeafCheck& check_leaves) {
  FrozenRTree out;
  uint64_t size = 0;
  GSR_RETURN_IF_ERROR(r.ReadU64(&size));
  GSR_RETURN_IF_ERROR(r.ReadI32(&out.height_));
  out.size_ = static_cast<size_t>(size);
  GSR_RETURN_IF_ERROR(r.ReadArrayPageable(ctx, &out.owned_nodes_, &out.nodes_,
                                          &out.paged_nodes_));
  GSR_RETURN_IF_ERROR(r.ReadArrayPageable(ctx, &out.owned_child_boxes_,
                                          &out.child_boxes_,
                                          &out.paged_child_boxes_));
  GSR_RETURN_IF_ERROR(r.ReadArrayPageable(ctx, &out.owned_child_nodes_,
                                          &out.child_nodes_,
                                          &out.paged_child_nodes_));
  GSR_RETURN_IF_ERROR(r.ReadArrayPageable(ctx, &out.owned_leaf_geoms_,
                                          &out.leaf_geoms_,
                                          &out.paged_leaf_geoms_));
  GSR_RETURN_IF_ERROR(r.ReadArrayPageable(ctx, &out.owned_leaf_ids_,
                                          &out.leaf_ids_,
                                          &out.paged_leaf_ids_));

  // Structural validation: every index a query descent follows must be in
  // range, child links must point strictly forward (the BFS layout
  // invariant), every node but the root must be linked exactly once, and
  // the leaf ranges must tile the entries without overlap. The nodes then
  // form one tree and a descent reaches each entry at most once, which
  // callers that count hits rely on; corrupt files fail here instead of
  // crashing or double-counting later.
  if (out.child_boxes_.size() != out.child_nodes_.size() ||
      out.leaf_geoms_.size() != out.leaf_ids_.size() ||
      out.leaf_ids_.size() != out.size_ ||
      (out.nodes_.empty() && out.size_ != 0)) {
    return Status::InvalidArgument("frozen rtree: array sizes disagree");
  }
  std::vector<uint8_t> linked(out.nodes_.size(), 0);
  std::vector<uint8_t> covered(out.size_, 0);
  for (size_t idx = 0; idx < out.nodes_.size(); ++idx) {
    const Node& node = out.nodes_[idx];
    const uint64_t end = static_cast<uint64_t>(node.first) + node.count;
    if (node.is_leaf > 1) {
      return Status::InvalidArgument("frozen rtree: bad node tag");
    }
    if (idx > 0 && !linked[idx]) {
      return Status::InvalidArgument("frozen rtree: unlinked node");
    }
    if (node.is_leaf) {
      if (end > out.leaf_ids_.size()) {
        return Status::InvalidArgument("frozen rtree: leaf range out of bounds");
      }
      for (uint64_t i = node.first; i < end; ++i) {
        if (covered[i]++ != 0) {
          return Status::InvalidArgument("frozen rtree: leaf ranges overlap");
        }
      }
      continue;
    }
    if (end > out.child_nodes_.size()) {
      return Status::InvalidArgument("frozen rtree: child range out of bounds");
    }
    for (uint64_t i = node.first; i < end; ++i) {
      const uint32_t child = out.child_nodes_[i];
      if (child <= idx || child >= out.nodes_.size()) {
        return Status::InvalidArgument("frozen rtree: invalid child link");
      }
      if (linked[child]++ != 0) {
        return Status::InvalidArgument("frozen rtree: node linked twice");
      }
    }
  }
  if (std::find(covered.begin(), covered.end(), 0) != covered.end()) {
    return Status::InvalidArgument(
        "frozen rtree: leaf ranges do not cover the entries");
  }
  for (const uint64_t id : out.leaf_ids_) {
    if (id >= id_limit) {
      return Status::InvalidArgument("frozen rtree: leaf id out of range");
    }
  }
  if (check_leaves) {
    GSR_RETURN_IF_ERROR(check_leaves(out.leaf_geoms_, out.leaf_ids_));
  }
  if (!out.nodes_.empty()) out.root_mbr_ = out.nodes_[0].mbr;
  if (ctx.paged != nullptr) {
    // Validation above ran against the reader's transient section buffer;
    // from here on only the on-disk PagedArrays (and the resident prefix
    // copied out of that buffer) are touched. Clear the spans so nothing
    // dangles once the buffer is reused.
    if (ctx.resident_bytes_left != nullptr) {
      *ctx.resident_bytes_left -=
          out.KeepResidentPrefix(*ctx.resident_bytes_left);
    }
    out.paged_ = true;
    out.nodes_ = {};
    out.child_boxes_ = {};
    out.child_nodes_ = {};
    out.leaf_geoms_ = {};
    out.leaf_ids_ = {};
  }
  if (ctx.borrow) out.keepalive_ = ctx.keepalive;
  return out;
}

template <typename BoxT, typename LeafT>
size_t FrozenRTree<BoxT, LeafT>::KeepResidentPrefix(size_t budget) {
  // Cost of the prefix of k nodes: k records plus every child entry an
  // internal node among them owns. BFS order puts the root and the upper
  // levels first, and costs only grow with k, so one forward scan finds
  // the longest prefix that fits.
  constexpr size_t kChildBytes = sizeof(BoxT) + sizeof(uint32_t);
  size_t nodes = 0;
  size_t children = 0;
  size_t bytes = 0;
  for (size_t k = 0; k < nodes_.size(); ++k) {
    const Node& node = nodes_[k];
    const size_t kids =
        node.is_leaf
            ? children
            : std::max<size_t>(children, size_t{node.first} + node.count);
    const size_t next = (k + 1) * sizeof(Node) + kids * kChildBytes;
    if (next > budget) break;
    nodes = k + 1;
    children = kids;
    bytes = next;
  }
  paged_nodes_.resident.assign(nodes_.begin(), nodes_.begin() + nodes);
  paged_child_boxes_.resident.assign(child_boxes_.begin(),
                                     child_boxes_.begin() + children);
  paged_child_nodes_.resident.assign(child_nodes_.begin(),
                                     child_nodes_.begin() + children);
  return bytes;
}

template class FrozenRTree<Rect, Rect>;
template class FrozenRTree<Rect, Point2D>;
template class FrozenRTree<Box3D, Box3D>;
template class FrozenRTree<Box3D, Point3D>;

}  // namespace gsr
