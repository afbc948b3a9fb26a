#ifndef GSR_SPATIAL_FROZEN_RTREE_H_
#define GSR_SPATIAL_FROZEN_RTREE_H_

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>
#include <functional>
#include <memory>
#include <span>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/binary_io.h"
#include "common/paged_array.h"
#include "common/simd.h"
#include "exec/thread_pool.h"
#include "geometry/geometry.h"

namespace gsr {

/// Geometry traits used by FrozenRTree's queries: a leaf geometry needs
/// GeomToBox and GeomIntersects against its box type. The STR sort keys
/// live with the builder in frozen_rtree.cc.

/// Leaf-geometry -> bounding-box conversions.
inline Rect GeomToBox(const Rect& r) { return r; }
inline Box3D GeomToBox(const Box3D& b) { return b; }
inline Rect GeomToBox(const Point2D& p) { return Rect::FromPoint(p); }
inline Box3D GeomToBox(const Point3D& p) {
  return Box3D::FromPoint(p.x, p.y, p.z);
}

/// Query-box vs leaf-geometry intersection tests.
inline bool GeomIntersects(const Rect& query, const Rect& geom) {
  return query.Intersects(geom);
}
inline bool GeomIntersects(const Box3D& query, const Box3D& geom) {
  return query.Intersects(geom);
}
inline bool GeomIntersects(const Rect& query, const Point2D& geom) {
  return query.Contains(geom);
}
inline bool GeomIntersects(const Box3D& query, const Point3D& geom) {
  return geom.x >= query.min[0] && geom.x <= query.max[0] &&
         geom.y >= query.min[1] && geom.y <= query.max[1] &&
         geom.z >= query.min[2] && geom.z <= query.max[2];
}

/// A static, Sort-Tile-Recursive packed R-tree: the structure the paper
/// (and GeoReach before it) uses for the spatial predicate of RangeReach,
/// built once from a bulk load and only ever queried. Every node is packed
/// into one contiguous array in breadth-first order, with all child boxes,
/// child links, leaf geometries and leaf ids pooled into four flat arrays
/// (SoA) — the spatial analogue of FlatLabelStore. Five allocations for
/// the whole tree instead of four vectors per node, so a query descent
/// touches sequential memory and the tree serializes as raw byte ranges.
///
/// `BoxT` is the bounding-box type (Rect or Box3D); `LeafT` is how entries
/// are *stored* in the leaves. Following the Boost behaviour the paper
/// relies on, points are stored as genuine points (2 or 3 doubles) while
/// rectangles, boxes and vertical segments all occupy a full box — this is
/// exactly why the paper's replicate (non-MBR) SCC variant beats the MBR
/// one, and why 3DReach-REV sees no difference between them.
///
/// The five arrays have three possible backings:
///  - owned after Build (and owned-copy Deserialize);
///  - borrowed zero-copy from a memory-mapped snapshot section
///    (Deserialize with BorrowContext::borrow, `keepalive_` pinning the
///    mapping);
///  - PAGED: left on disk (Deserialize with BorrowContext::paged) and
///    read through a PagedSource at query time. Descents then run on a
///    stack-constructed PagedView whose cursors pin one cache page per
///    array; everything else — traversal order, kernels, answers — is
///    identical, which is how kPaged keeps the bit-identical contract.
///    When the context carries a resident budget, Deserialize also copies
///    the longest BFS node prefix that fits — node records plus the child
///    boxes and ids those nodes own — into memory and subtracts its bytes
///    from the budget. The root and upper levels every descent shares are
///    then served without a pin; leaf entries always stay paged.
///    In the page-aligned snapshot format the 64-byte Node<Box3D> records
///    tile 4 KiB pages exactly (a BFS level never straddles a page
///    mid-node); smaller node types occasionally straddle and take the
///    cursor's bounce-buffer path.
///
/// Hit order — and with it every method answer — follows from the packed
/// layout alone, which Build makes identical at any thread count and
/// snapshots carry byte for byte.
template <typename BoxT, typename LeafT = BoxT>
class FrozenRTree {
 public:
  /// One packed node. `first`/`count` index into the child arrays for
  /// internal nodes and into the leaf arrays for leaves. Fixed-size and
  /// padding-free so node arrays serialize/mmap as raw bytes.
  struct Node {
    BoxT mbr;
    uint32_t first = 0;
    uint32_t count = 0;
    uint32_t is_leaf = 1;
    uint32_t reserved = 0;  // Explicit padding, always zero on disk.
  };
  static_assert(std::is_trivially_copyable_v<Node>);
  static_assert(sizeof(Node) == sizeof(BoxT) + 16);

  FrozenRTree() = default;
  FrozenRTree(FrozenRTree&&) = default;
  FrozenRTree& operator=(FrozenRTree&&) = default;
  FrozenRTree(const FrozenRTree&) = delete;
  FrozenRTree& operator=(const FrozenRTree&) = delete;

  /// STR-packs `entries` (fanout 32) straight into the frozen layout:
  /// node 0 is the root and nodes are laid out level by level. When `pool`
  /// is non-null the tile sorts and leaf packing run on its workers; tile
  /// boundaries depend only on entry *counts* and the sort comparator is a
  /// strict total order, so the bytes are identical at any thread count.
  static FrozenRTree Build(std::vector<std::pair<LeafT, uint64_t>> entries,
                           exec::ThreadPool* pool = nullptr);

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  int Height() const { return height_; }
  bool paged() const { return paged_; }

  BoxT Bounds() const { return NumNodes() == 0 ? BoxT() : root_mbr_; }

  /// Calls `fn(geom, id)` for every entry intersecting `query` until `fn`
  /// returns false, in packed order. Returns true when the visit was
  /// stopped early.
  template <typename Fn>
  bool ForEachIntersecting(const BoxT& query, Fn&& fn) const {
    if (NumNodes() == 0) return false;
    if (paged_) {
      PagedView view(*this);
      return VisitIntersecting(view, 0, query, fn);
    }
    ResidentView view(*this);
    return VisitIntersecting(view, 0, query, fn);
  }

  /// True iff at least one entry intersects `query`. Existence probes
  /// take a dedicated branchy descent instead of the SIMD batch pass:
  /// positive probes typically resolve on the first intersecting entry,
  /// and a per-entry test exits there, where the batch kernel would pay
  /// for the whole node before looking at a single bit (3DReach issues
  /// millions of these per second; see EXPERIMENTS.md). The entries are
  /// still read a chunk at a time — one view run per <= kMaskWidth
  /// children, zero-copy out of the pinned page on a paged tree — and
  /// only the tests run one by one.
  bool AnyIntersecting(const BoxT& query) const {
    if (NumNodes() == 0) return false;
    if (paged_) {
      PagedView view(*this);
      return VisitAny(view, 0, query);
    }
    ResidentView view(*this);
    return VisitAny(view, 0, query);
  }

  /// Multi-query existence probe, the work-sharing form of
  /// AnyIntersecting: queries[k] participates iff bit k of `pending` is
  /// set (k < simd::kMaskWidth); the returned mask has bit k set iff at
  /// least one entry intersects queries[k]. One descent answers the whole
  /// mask — a node is entered once for the subset of still-unanswered
  /// queries that overlap it, and a visited leaf tests its entries with
  /// the batch mask kernel once per live query instead of once per
  /// (query, descent). Answers are exactly those of per-query
  /// AnyIntersecting calls. Subtrees down to a single live query drop
  /// into the branchy first-hit descent, which is the faster shape there
  /// (see AnyIntersecting).
  uint64_t AnyIntersectingMasked(const BoxT* queries, uint64_t pending) const {
    if (NumNodes() == 0 || pending == 0) return 0;
    uint64_t found = 0;
    if (paged_) {
      PagedView view(*this);
      VisitAnyMasked(view, 0, queries, pending, pending, found);
    } else {
      ResidentView view(*this);
      VisitAnyMasked(view, 0, queries, pending, pending, found);
    }
    return found;
  }

  std::vector<uint64_t> CollectIntersecting(const BoxT& query) const {
    std::vector<uint64_t> out;
    ForEachIntersecting(query, [&out](const LeafT&, uint64_t id) {
      out.push_back(id);
      return true;
    });
    return out;
  }

  /// Number of entries intersecting `query`.
  size_t CountIntersecting(const BoxT& query) const {
    size_t n = 0;
    ForEachIntersecting(query, [&n](const LeafT&, uint64_t) {
      ++n;
      return true;
    });
    return n;
  }

  /// Multi-query *enumeration*, the collection analogue of
  /// AnyIntersectingMasked: calls `fn(k, geom, id)` for every pair of a
  /// live query k (bit k of `mask` set, k < simd::kMaskWidth) and an
  /// entry intersecting queries[k]. One descent serves the whole mask —
  /// a node is entered once for the subset of queries overlapping it,
  /// and a leaf chunk runs one mask-kernel call per live query instead
  /// of once per (query, descent). Unlike the existence probe there is
  /// no early exit: collection sinks consume every hit, so the whole
  /// intersecting subtree is walked. For any fixed k, hits arrive in
  /// exactly ForEachIntersecting(queries[k]) order (chunks in packed
  /// order, set bits consumed low-to-high); hits of different queries
  /// interleave.
  template <typename Fn>
  void ForEachIntersectingMasked(const BoxT* queries, uint64_t mask,
                                 Fn&& fn) const {
    if (NumNodes() == 0 || mask == 0) return;
    if (paged_) {
      PagedView view(*this);
      VisitIntersectingMasked(view, 0, queries, mask, fn);
    } else {
      ResidentView view(*this);
      VisitIntersectingMasked(view, 0, queries, mask, fn);
    }
  }

  /// Materializing form of ForEachIntersectingMasked for tests and
  /// simple callers: entry ids of query k land in out[k], in the same
  /// order CollectIntersecting(queries[k]) would produce.
  void CollectIntersectingMasked(const BoxT* queries, uint64_t mask,
                                 std::span<std::vector<uint64_t>> out) const {
    for (uint64_t m = mask; m != 0; m &= m - 1) {
      out[static_cast<size_t>(std::countr_zero(m))].clear();
    }
    ForEachIntersectingMasked(
        queries, mask,
        [&out](size_t k, const LeafT&, uint64_t id) { out[k].push_back(id); });
  }

  /// Bytes referenced by the packed arrays — owned heap, borrowed
  /// mapping, or on-disk pages in paged mode.
  size_t SizeBytes() const {
    return NumNodes() * sizeof(Node) +
           NumChildEntries() * (sizeof(BoxT) + sizeof(uint32_t)) +
           NumLeafEntries() * (sizeof(LeafT) + sizeof(uint64_t));
  }

  /// Writes the header and the five packed arrays (snapshot layer).
  /// Paged-loaded trees cannot be re-serialized (their arrays live on
  /// disk); save from a built or resident-loaded instance instead.
  void SerializeTo(BinaryWriter& w) const;

  /// A caller's check of the leaf entries (geometries and ids in packed
  /// order) of a tree being deserialized; a non-ok Status rejects it.
  using LeafCheck = std::function<Status(std::span<const LeafT> geoms,
                                         std::span<const uint64_t> ids)>;

  /// Restores a tree from `r`. With `ctx.borrow` all arrays stay
  /// zero-copy views into the reader's buffer; with `ctx.paged` they stay
  /// on disk behind the page cache. Node ranges, child links and leaf ids
  /// (each must be below `id_limit`, the size of the id space the caller
  /// indexes with them) are validated either way, against the temporarily
  /// materialized section, and so is `check_leaves` when given, so a
  /// corrupt file errors out instead of reading out of bounds at query
  /// time. The nodes must also form one tree (every node but the root
  /// linked exactly once) whose leaf ranges tile the entries, so a
  /// descent meets each entry at most once.
  static Result<FrozenRTree> Deserialize(BinaryReader& r,
                                         const BorrowContext& ctx,
                                         uint64_t id_limit,
                                         const LeafCheck& check_leaves = {});

 private:
  /// Resident data access: direct span indexing plus software prefetch.
  /// The chunk accessors return pointers into the spans; `scratch` is
  /// unused. Compiles down to exactly the pre-paging descent code.
  struct ResidentView {
    explicit ResidentView(const FrozenRTree& tree) : t(tree) {}
    const Node& GetNode(uint32_t i) const { return t.nodes_[i]; }
    const BoxT* ChildBoxes(uint32_t base, uint32_t) const {
      return &t.child_boxes_[base];
    }
    uint32_t ChildNode(uint32_t i) const { return t.child_nodes_[i]; }
    const uint32_t* ChildNodes(uint32_t base, uint32_t, uint32_t*) const {
      return &t.child_nodes_[base];
    }
    const LeafT* LeafGeoms(uint32_t base, uint32_t) const {
      return &t.leaf_geoms_[base];
    }
    const uint64_t* LeafIds(uint32_t base, uint32_t, uint64_t*) const {
      return &t.leaf_ids_[base];
    }
    void PrefetchNode(uint32_t i) const { simd::PrefetchRead(&t.nodes_[i]); }
    const FrozenRTree& t;
  };

  /// Paged data access: one cursor per on-disk array, each pinning at
  /// most one cache page. Every descent reads runs: boxes and geometries
  /// as zero-copy chunk pointers, child and leaf ids copied into caller
  /// `scratch`. A chunk pointer is valid until the next call on the SAME
  /// cursor, and a recursion reuses the cursors, so a descent that keeps
  /// scanning a box run after recursing fetches it again first
  /// (VisitAny). Node records and single child links travel by value.
  /// Hardware prefetch of node records is meaningless here, so
  /// PrefetchNode is a no-op; sequential readahead happens at the page
  /// level instead.
  struct PagedView {
    explicit PagedView(const FrozenRTree& tree)
        : nodes(tree.paged_nodes_),
          child_boxes(tree.paged_child_boxes_),
          child_nodes(tree.paged_child_nodes_),
          leaf_geoms(tree.paged_leaf_geoms_),
          leaf_ids(tree.paged_leaf_ids_) {}
    Node GetNode(uint32_t i) { return nodes.At(i); }
    const BoxT* ChildBoxes(uint32_t base, uint32_t n) {
      return child_boxes.Chunk(base, n);
    }
    uint32_t ChildNode(uint32_t i) { return child_nodes.At(i); }
    const uint32_t* ChildNodes(uint32_t base, uint32_t n, uint32_t* scratch) {
      child_nodes.ReadInto(base, n, scratch);
      return scratch;
    }
    const LeafT* LeafGeoms(uint32_t base, uint32_t n) {
      return leaf_geoms.Chunk(base, n);
    }
    const uint64_t* LeafIds(uint32_t base, uint32_t n, uint64_t* scratch) {
      leaf_ids.ReadInto(base, n, scratch);
      return scratch;
    }
    void PrefetchNode(uint32_t) const {}
    PagedArrayCursor<Node, 1> nodes;
    PagedArrayCursor<BoxT, simd::kMaskWidth> child_boxes;
    PagedArrayCursor<uint32_t, simd::kMaskWidth> child_nodes;
    PagedArrayCursor<LeafT, simd::kMaskWidth> leaf_geoms;
    PagedArrayCursor<uint64_t, 1> leaf_ids;
  };

  /// Copies the longest BFS node prefix whose records plus the child
  /// boxes and ids those nodes own fit in `budget` bytes into the paged
  /// arrays' resident prefixes; returns the bytes kept. Runs in paged
  /// Deserialize while the spans still view the section buffer.
  size_t KeepResidentPrefix(size_t budget);

  size_t NumNodes() const {
    return paged_ ? paged_nodes_.count : nodes_.size();
  }
  size_t NumChildEntries() const {
    return paged_ ? paged_child_nodes_.count : child_nodes_.size();
  }
  size_t NumLeafEntries() const {
    return paged_ ? paged_leaf_ids_.count : leaf_ids_.size();
  }

  /// SIMD descent: tests a whole node's entries in one mask-kernel call
  /// per <= kMaskWidth chunk instead of one predicate per entry. Set bits
  /// are consumed low-to-high, so entries are still visited in exactly
  /// the packed order — the bit-identical-answers
  /// contract. Before recursing, the matched children's node records are
  /// software-prefetched so the next level is (mostly) in cache by the
  /// time the recursion reaches it.
  template <typename View, typename Fn>
  bool VisitIntersecting(View& view, uint32_t node_idx, const BoxT& query,
                         Fn& fn) const {
    const Node& node = view.GetNode(node_idx);
    const uint32_t end = node.first + node.count;
    if (node.is_leaf) {
      for (uint32_t base = node.first; base < end; base += simd::kMaskWidth) {
        const uint32_t chunk =
            std::min<uint32_t>(simd::kMaskWidth, end - base);
        const LeafT* geoms = view.LeafGeoms(base, chunk);
        uint64_t mask = simd::IntersectMask(query, geoms, chunk);
        if (mask == 0) continue;
        uint64_t scratch[simd::kMaskWidth];
        const uint64_t* ids = view.LeafIds(base, chunk, scratch);
        while (mask != 0) {
          const uint32_t i = static_cast<uint32_t>(std::countr_zero(mask));
          mask &= mask - 1;
          if (!fn(geoms[i], ids[i])) return true;
        }
      }
      return false;
    }
    for (uint32_t base = node.first; base < end; base += simd::kMaskWidth) {
      const uint32_t chunk = std::min<uint32_t>(simd::kMaskWidth, end - base);
      uint64_t mask =
          simd::IntersectMask(query, view.ChildBoxes(base, chunk), chunk);
      if (mask == 0) continue;
      uint32_t scratch[simd::kMaskWidth];
      const uint32_t* kids = view.ChildNodes(base, chunk, scratch);
      for (uint64_t m = mask; m != 0; m &= m - 1) {
        view.PrefetchNode(kids[std::countr_zero(m)]);
      }
      while (mask != 0) {
        const uint32_t c = static_cast<uint32_t>(std::countr_zero(mask));
        mask &= mask - 1;
        if (VisitIntersecting(view, kids[c], query, fn)) return true;
      }
    }
    return false;
  }

  /// Shared descent behind ForEachIntersectingMasked. `mask` is the set
  /// of queries whose box intersects this node (an overestimate is fine:
  /// the root starts with all live queries). Leaves run the batch
  /// intersect kernel once per live query per chunk and hand every set
  /// bit to `fn`; internal nodes transpose per-query child masks exactly
  /// like VisitAnyMasked, then enter children in packed order with the
  /// matched node records prefetched.
  template <typename View, typename Fn>
  void VisitIntersectingMasked(View& view, uint32_t node_idx,
                               const BoxT* queries, uint64_t mask,
                               Fn& fn) const {
    const Node& node = view.GetNode(node_idx);
    const uint32_t end = node.first + node.count;
    if (node.is_leaf) {
      for (uint32_t base = node.first; base < end; base += simd::kMaskWidth) {
        const uint32_t chunk = std::min<uint32_t>(simd::kMaskWidth, end - base);
        const LeafT* geoms = view.LeafGeoms(base, chunk);
        uint64_t scratch[simd::kMaskWidth];
        const uint64_t* ids = nullptr;  // Read on the chunk's first hit.
        for (uint64_t m = mask; m != 0; m &= m - 1) {
          const size_t k = static_cast<size_t>(std::countr_zero(m));
          uint64_t hits = simd::IntersectMask(queries[k], geoms, chunk);
          if (hits != 0 && ids == nullptr) {
            ids = view.LeafIds(base, chunk, scratch);
          }
          while (hits != 0) {
            const uint32_t i = static_cast<uint32_t>(std::countr_zero(hits));
            hits &= hits - 1;
            fn(k, geoms[i], ids[i]);
          }
        }
      }
      return;
    }
    for (uint32_t base = node.first; base < end; base += simd::kMaskWidth) {
      const uint32_t chunk = std::min<uint32_t>(simd::kMaskWidth, end - base);
      uint64_t child_masks[simd::kMaskWidth] = {};
      const BoxT* boxes = view.ChildBoxes(base, chunk);
      for (uint64_t m = mask; m != 0; m &= m - 1) {
        const int k = std::countr_zero(m);
        uint64_t hits = simd::IntersectMask(queries[k], boxes, chunk);
        while (hits != 0) {
          child_masks[std::countr_zero(hits)] |= uint64_t{1} << k;
          hits &= hits - 1;
        }
      }
      uint32_t scratch[simd::kMaskWidth];
      const uint32_t* kids = view.ChildNodes(base, chunk, scratch);
      for (uint32_t c = 0; c < chunk; ++c) {
        if (child_masks[c] == 0) continue;
        view.PrefetchNode(kids[c]);
      }
      for (uint32_t c = 0; c < chunk; ++c) {
        if (child_masks[c] == 0) continue;
        VisitIntersectingMasked(view, kids[c], queries, child_masks[c], fn);
      }
    }
  }

  /// First-hit existence descent (see AnyIntersecting). Each chunk of a
  /// node's children is one view run, tested entry by entry in packed
  /// order so the early exit stays exact. The recursion reuses the same
  /// cursors and invalidates the run, so it is fetched again before the
  /// next child is tested; on ResidentView that is pointer arithmetic.
  template <typename View>
  bool VisitAny(View& view, uint32_t node_idx, const BoxT& query) const {
    const Node& node = view.GetNode(node_idx);
    const uint32_t end = node.first + node.count;
    if (node.is_leaf) {
      for (uint32_t base = node.first; base < end; base += simd::kMaskWidth) {
        const uint32_t chunk = std::min<uint32_t>(simd::kMaskWidth, end - base);
        const LeafT* geoms = view.LeafGeoms(base, chunk);
        for (uint32_t i = 0; i < chunk; ++i) {
          if (GeomIntersects(query, geoms[i])) return true;
        }
      }
      return false;
    }
    for (uint32_t base = node.first; base < end; base += simd::kMaskWidth) {
      const uint32_t chunk = std::min<uint32_t>(simd::kMaskWidth, end - base);
      for (uint32_t i = 0; i < chunk; ++i) {
        const BoxT* boxes = view.ChildBoxes(base, chunk);
        while (i < chunk && !boxes[i].Intersects(query)) ++i;
        if (i == chunk) break;
        if (VisitAny(view, view.ChildNode(base + i), query)) return true;
      }
    }
    return false;
  }

  /// Shared descent behind AnyIntersectingMasked. `mask` is the set of
  /// queries whose box intersects this node (an overestimate is fine:
  /// the root starts with all of them); `pending`/`found` are the global
  /// not-yet-answered and answered sets, updated as hits come in.
  template <typename View>
  void VisitAnyMasked(View& view, uint32_t node_idx, const BoxT* queries,
                      uint64_t mask, uint64_t& pending,
                      uint64_t& found) const {
    mask &= pending;
    if (mask == 0) return;
    if (std::has_single_bit(mask)) {
      // One live query left in this subtree: the branchy first-hit
      // descent beats the batch kernels (positive probes resolve on the
      // first intersecting entry).
      if (VisitAny(view, node_idx, queries[std::countr_zero(mask)])) {
        found |= mask;
        pending &= ~mask;
      }
      return;
    }
    const Node& node = view.GetNode(node_idx);
    const uint32_t end = node.first + node.count;
    if (node.is_leaf) {
      for (uint32_t base = node.first; base < end; base += simd::kMaskWidth) {
        const uint32_t chunk = std::min<uint32_t>(simd::kMaskWidth, end - base);
        const LeafT* geoms = view.LeafGeoms(base, chunk);
        for (uint64_t m = mask & pending; m != 0; m &= m - 1) {
          const uint64_t bit = m & (~m + 1);
          const int k = std::countr_zero(m);
          if (simd::IntersectMask(queries[k], geoms, chunk) != 0) {
            found |= bit;
            pending &= ~bit;
          }
        }
        if ((mask & pending) == 0) return;
      }
      return;
    }
    // Internal node: one batch-kernel call per (live query, child chunk)
    // yields that query's intersecting children; transposing the results
    // gives each child its query mask. Children are then entered in
    // packed order, so the visit order (and with it every answer) is
    // identical to the scalar double loop.
    for (uint32_t base = node.first; base < end; base += simd::kMaskWidth) {
      const uint32_t chunk = std::min<uint32_t>(simd::kMaskWidth, end - base);
      uint64_t child_masks[simd::kMaskWidth] = {};
      const BoxT* boxes = view.ChildBoxes(base, chunk);
      for (uint64_t m = mask & pending; m != 0; m &= m - 1) {
        const int k = std::countr_zero(m);
        uint64_t hits = simd::IntersectMask(queries[k], boxes, chunk);
        while (hits != 0) {
          child_masks[std::countr_zero(hits)] |= uint64_t{1} << k;
          hits &= hits - 1;
        }
      }
      uint32_t scratch[simd::kMaskWidth];
      const uint32_t* kids = view.ChildNodes(base, chunk, scratch);
      for (uint32_t c = 0; c < chunk; ++c) {
        if (child_masks[c] == 0) continue;
        VisitAnyMasked(view, kids[c], queries, child_masks[c], pending,
                       found);
        if ((mask & pending) == 0) return;
      }
    }
  }

  std::span<const Node> nodes_;
  std::span<const BoxT> child_boxes_;
  std::span<const uint32_t> child_nodes_;
  std::span<const LeafT> leaf_geoms_;
  std::span<const uint64_t> leaf_ids_;
  size_t size_ = 0;
  int height_ = 0;
  BoxT root_mbr_ = BoxT();

  // Backing storage when the tree owns its memory (empty when borrowed).
  std::vector<Node> owned_nodes_;
  std::vector<BoxT> owned_child_boxes_;
  std::vector<uint32_t> owned_child_nodes_;
  std::vector<LeafT> owned_leaf_geoms_;
  std::vector<uint64_t> owned_leaf_ids_;
  std::shared_ptr<const void> keepalive_;

  // On-disk backing in paged mode (the spans above stay empty then).
  bool paged_ = false;
  PagedArray<Node> paged_nodes_;
  PagedArray<BoxT> paged_child_boxes_;
  PagedArray<uint32_t> paged_child_nodes_;
  PagedArray<LeafT> paged_leaf_geoms_;
  PagedArray<uint64_t> paged_leaf_ids_;
};

/// 2-D tree over rectangles (the MBR SCC variant).
using FrozenRTree2D = FrozenRTree<Rect, Rect>;
/// 2-D tree over points (the replicate SCC variant).
using FrozenRTreePoints2D = FrozenRTree<Rect, Point2D>;
/// 3-D tree over boxes/segments (3DReach-REV, and 3DReach's MBR variant).
using FrozenRTree3D = FrozenRTree<Box3D, Box3D>;
/// 3-D tree over points (3DReach's replicate variant).
using FrozenRTreePoints3D = FrozenRTree<Box3D, Point3D>;

extern template class FrozenRTree<Rect, Rect>;
extern template class FrozenRTree<Rect, Point2D>;
extern template class FrozenRTree<Box3D, Box3D>;
extern template class FrozenRTree<Box3D, Point3D>;

}  // namespace gsr

#endif  // GSR_SPATIAL_FROZEN_RTREE_H_
