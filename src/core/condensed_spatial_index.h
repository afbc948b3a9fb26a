#ifndef GSR_CORE_CONDENSED_SPATIAL_INDEX_H_
#define GSR_CORE_CONDENSED_SPATIAL_INDEX_H_

#include <utility>
#include <vector>

#include "common/binary_io.h"
#include "core/condensed_network.h"
#include "spatial/frozen_rtree.h"

namespace gsr {

/// The 2-D R-tree over the spatial information of a condensed geosocial
/// network, shared by the spatial-first methods. Supports both Section-5
/// variants:
///
///  - kReplicate: one *point* entry per spatial vertex, tagged with its
///    component. An entry intersecting the query region is already a
///    *verified* hit, and the R-tree stores genuine points (2 doubles).
///  - kMbr: one *rectangle* entry per component that has spatial members.
///    An intersecting entry is verified only when the whole MBR lies in
///    the region; otherwise the caller must test member points. Entries
///    occupy full rectangles, which is why this variant's index is larger
///    and slower (Section 6.2).
///
/// The tree is STR-packed straight into the FrozenRTree layout, which is
/// what queries run on and what snapshots persist/mmap. Move-only, like
/// every span-backed structure.
class CondensedSpatialIndex {
 public:
  /// Builds the R-tree for `cn`. A non-null `pool` runs the STR bulk load
  /// on its workers; the tree is identical at any thread count.
  CondensedSpatialIndex(const CondensedNetwork* cn, SccSpatialMode mode,
                        exec::ThreadPool* pool = nullptr)
      : mode_(mode) {
    if (mode == SccSpatialMode::kReplicate) {
      const GeoSocialNetwork& network = cn->network();
      std::vector<std::pair<Point2D, uint64_t>> entries;
      entries.reserve(network.spatial_vertices().size());
      for (const VertexId v : network.spatial_vertices()) {
        entries.emplace_back(network.PointOf(v), cn->ComponentOf(v));
      }
      points_ = FrozenRTreePoints2D::Build(std::move(entries), pool);
    } else {
      std::vector<std::pair<Rect, uint64_t>> entries;
      for (ComponentId c = 0; c < cn->num_components(); ++c) {
        if (cn->HasSpatialMember(c)) entries.emplace_back(cn->MbrOf(c), c);
      }
      boxes_ = FrozenRTree2D::Build(std::move(entries), pool);
    }
  }

  CondensedSpatialIndex(CondensedSpatialIndex&&) = default;
  CondensedSpatialIndex& operator=(CondensedSpatialIndex&&) = default;

  SccSpatialMode mode() const { return mode_; }

  /// Calls `fn(component, verified)` for every candidate component whose
  /// spatial entry intersects `region`, until `fn` returns false. When
  /// `verified` is true, the component certainly has a point in `region`;
  /// otherwise the caller must run CondensedNetwork::AnyMemberPointIn.
  /// Returns true when stopped early.
  template <typename Fn>
  bool ForEachCandidate(const Rect& region, Fn&& fn) const {
    if (mode_ == SccSpatialMode::kReplicate) {
      return points_.ForEachIntersecting(
          region, [&fn](const Point2D&, uint64_t id) {
            return fn(static_cast<ComponentId>(id), /*verified=*/true);
          });
    }
    return boxes_.ForEachIntersecting(
        region, [&fn, &region](const Rect& box, uint64_t id) {
          return fn(static_cast<ComponentId>(id), region.Contains(box));
        });
  }

  /// Materializes every candidate into `out` (cleared first) — the SRange
  /// step of the SpaReach algorithm, which computes the full spatial range
  /// result *before* any reachability test (Section 2.2.1). Each candidate
  /// carries the `verified` flag described at ForEachCandidate.
  void CollectCandidates(
      const Rect& region,
      std::vector<std::pair<ComponentId, bool>>& out) const {
    out.clear();
    ForEachCandidate(region, [&out](ComponentId c, bool verified) {
      out.emplace_back(c, verified);
      return true;
    });
  }

  size_t SizeBytes() const {
    return mode_ == SccSpatialMode::kReplicate ? points_.SizeBytes()
                                               : boxes_.SizeBytes();
  }

  /// Writes the mode tag and the active frozen tree (snapshot layer).
  void SerializeTo(BinaryWriter& w) const {
    w.WriteU8(mode_ == SccSpatialMode::kReplicate ? 0 : 1);
    if (mode_ == SccSpatialMode::kReplicate) {
      points_.SerializeTo(w);
    } else {
      boxes_.SerializeTo(w);
    }
  }

  /// Restores an index from `r`; with `ctx.borrow` the tree arrays stay
  /// zero-copy views into the reader's buffer. Every leaf id must be a
  /// component id, below `num_components`.
  static Result<CondensedSpatialIndex> Deserialize(BinaryReader& r,
                                                   const BorrowContext& ctx,
                                                   size_t num_components) {
    uint8_t mode_tag = 0;
    GSR_RETURN_IF_ERROR(r.ReadU8(&mode_tag));
    if (mode_tag > 1) {
      return Status::InvalidArgument("spatial index: bad SCC mode tag");
    }
    if (mode_tag == 0) {
      auto points = FrozenRTreePoints2D::Deserialize(r, ctx, num_components);
      if (!points.ok()) return points.status();
      return CondensedSpatialIndex(SccSpatialMode::kReplicate,
                                   std::move(*points), FrozenRTree2D());
    }
    auto boxes = FrozenRTree2D::Deserialize(r, ctx, num_components);
    if (!boxes.ok()) return boxes.status();
    return CondensedSpatialIndex(SccSpatialMode::kMbr, FrozenRTreePoints2D(),
                                 std::move(*boxes));
  }

 private:
  CondensedSpatialIndex(SccSpatialMode mode, FrozenRTreePoints2D points,
                        FrozenRTree2D boxes)
      : mode_(mode), points_(std::move(points)), boxes_(std::move(boxes)) {}

  SccSpatialMode mode_;
  FrozenRTreePoints2D points_;  // kReplicate
  FrozenRTree2D boxes_;         // kMbr
};

}  // namespace gsr

#endif  // GSR_CORE_CONDENSED_SPATIAL_INDEX_H_
