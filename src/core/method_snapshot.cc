#include "core/method_snapshot.h"

#include <utility>
#include <vector>

#include "core/geo_reach.h"
#include "core/query_planner.h"
#include "core/soc_reach.h"
#include "core/spa_reach.h"
#include "core/three_d_reach.h"
#include "snapshot/format.h"

namespace gsr {

using snapshot::SectionId;
using snapshot::SnapshotReader;
using snapshot::SnapshotWriter;

namespace {

/// Meta section: the MethodConfig the index was built as, plus a dataset
/// fingerprint. The condensation is not persisted (it is cheap to rebuild
/// and the methods only hold a pointer to it), so the fingerprint is what
/// ties a snapshot to its dataset.
void WriteMeta(BinaryWriter& w, const MethodConfig& config,
               const CondensedNetwork& cn) {
  w.WriteU32(static_cast<uint32_t>(config.kind));
  w.WriteU8(config.scc_mode == SccSpatialMode::kReplicate ? 0 : 1);
  w.WriteU8(config.forest_strategy == ForestStrategy::kDfs ? 0 : 1);
  w.WriteU8(0);  // Reserved: a removed SocReach flag, 0 or 1, ignored.
  w.WriteU32(config.bfl.filter_words);
  w.WriteI32(config.geo_reach.grid_depth);
  w.WriteF64(config.geo_reach.max_rmbr_ratio);
  w.WriteU32(config.geo_reach.max_reach_grids);
  w.WriteI32(config.geo_reach.merge_count);
  w.WriteU32(static_cast<uint32_t>(config.planner.portfolio.size()));
  for (const MethodKind member : config.planner.portfolio) {
    w.WriteU32(static_cast<uint32_t>(member));
  }
  w.WriteI32(config.planner.histogram_resolution);
  w.WriteU32(config.planner.calibration_samples);
  w.WriteU64(config.planner.seed);
  w.WriteU32(config.planner.observation_intervals);
  w.WriteU32(config.planner.observation_supportive);
  const GeoSocialNetwork& network = cn.network();
  w.WriteU64(network.num_vertices());
  w.WriteU64(network.num_edges());
  w.WriteU64(cn.num_components());
  w.WriteU64(network.num_spatial_vertices());
}

Result<MethodConfig> ReadMeta(BinaryReader& r, const CondensedNetwork& cn) {
  MethodConfig config;
  uint32_t kind = 0;
  uint8_t scc_tag = 0;
  uint8_t forest_tag = 0;
  uint8_t reserved = 0;
  GSR_RETURN_IF_ERROR(r.ReadU32(&kind));
  GSR_RETURN_IF_ERROR(r.ReadU8(&scc_tag));
  GSR_RETURN_IF_ERROR(r.ReadU8(&forest_tag));
  GSR_RETURN_IF_ERROR(r.ReadU8(&reserved));
  GSR_RETURN_IF_ERROR(r.ReadU32(&config.bfl.filter_words));
  GSR_RETURN_IF_ERROR(r.ReadI32(&config.geo_reach.grid_depth));
  GSR_RETURN_IF_ERROR(r.ReadF64(&config.geo_reach.max_rmbr_ratio));
  GSR_RETURN_IF_ERROR(r.ReadU32(&config.geo_reach.max_reach_grids));
  GSR_RETURN_IF_ERROR(r.ReadI32(&config.geo_reach.merge_count));
  uint32_t portfolio_size = 0;
  GSR_RETURN_IF_ERROR(r.ReadU32(&portfolio_size));
  if (portfolio_size > 16) {
    return Status::InvalidArgument("snapshot meta: oversized planner portfolio");
  }
  config.planner.portfolio.clear();
  for (uint32_t i = 0; i < portfolio_size; ++i) {
    uint32_t member = 0;
    GSR_RETURN_IF_ERROR(r.ReadU32(&member));
    if (member == static_cast<uint32_t>(MethodKind::kNaiveBfs) ||
        member >= static_cast<uint32_t>(MethodKind::kPlanner)) {
      return Status::InvalidArgument("snapshot meta: bad portfolio member");
    }
    config.planner.portfolio.push_back(static_cast<MethodKind>(member));
  }
  GSR_RETURN_IF_ERROR(r.ReadI32(&config.planner.histogram_resolution));
  GSR_RETURN_IF_ERROR(r.ReadU32(&config.planner.calibration_samples));
  GSR_RETURN_IF_ERROR(r.ReadU64(&config.planner.seed));
  GSR_RETURN_IF_ERROR(r.ReadU32(&config.planner.observation_intervals));
  GSR_RETURN_IF_ERROR(r.ReadU32(&config.planner.observation_supportive));
  uint64_t num_vertices = 0;
  uint64_t num_edges = 0;
  uint64_t num_components = 0;
  uint64_t num_spatial = 0;
  GSR_RETURN_IF_ERROR(r.ReadU64(&num_vertices));
  GSR_RETURN_IF_ERROR(r.ReadU64(&num_edges));
  GSR_RETURN_IF_ERROR(r.ReadU64(&num_components));
  GSR_RETURN_IF_ERROR(r.ReadU64(&num_spatial));

  if (kind == static_cast<uint32_t>(MethodKind::kNaiveBfs) ||
      kind > static_cast<uint32_t>(MethodKind::kPlanner) ||
      scc_tag > 1 || forest_tag > 1 || reserved > 1) {
    return Status::InvalidArgument("snapshot meta: bad method tag");
  }
  // Config values that feed GSR_CHECKed constructors must be validated
  // here so a corrupt meta section errors instead of aborting.
  if (config.bfl.filter_words == 0 || config.geo_reach.grid_depth < 0 ||
      config.geo_reach.grid_depth > 27) {
    return Status::InvalidArgument("snapshot meta: bad method options");
  }
  if (kind == static_cast<uint32_t>(MethodKind::kPlanner) &&
      (config.planner.portfolio.empty() ||
       config.planner.histogram_resolution < 1 ||
       config.planner.histogram_resolution > 4096 ||
       config.planner.observation_intervals > 8 ||
       config.planner.observation_supportive > 32)) {
    return Status::InvalidArgument("snapshot meta: bad planner options");
  }
  config.kind = static_cast<MethodKind>(kind);
  config.scc_mode = scc_tag == 0 ? SccSpatialMode::kReplicate
                                 : SccSpatialMode::kMbr;
  config.forest_strategy =
      forest_tag == 0 ? ForestStrategy::kDfs : ForestStrategy::kBfs;

  const GeoSocialNetwork& network = cn.network();
  if (num_vertices != network.num_vertices() ||
      num_edges != network.num_edges() ||
      num_components != cn.num_components() ||
      num_spatial != network.num_spatial_vertices()) {
    return Status::FailedPrecondition(
        "snapshot was built on a different dataset (fingerprint mismatch)");
  }
  return config;
}

/// Where SaveStructures writes a method's structures: one section each
/// (a top-level snapshot) or, in order, the planner's single stream (a
/// portfolio member — section ids name structures, and a planner may own
/// several labelings / spatial indexes, so per-structure sections would
/// collide).
class StructureOut {
 public:
  explicit StructureOut(SnapshotWriter& writer) : writer_(&writer) {}
  explicit StructureOut(BinaryWriter& stream) : stream_(&stream) {}

  /// The writer for the next structure, which `id` names.
  BinaryWriter& Next(SectionId id) {
    return writer_ != nullptr ? writer_->BeginSection(id) : *stream_;
  }

 private:
  SnapshotWriter* writer_ = nullptr;
  BinaryWriter* stream_ = nullptr;
};

/// Where LoadStructures reads them back: `id`'s own section under that
/// section's context (in kPaged mode it carries the section's file offset,
/// so pageable structures can record on-disk addresses, and the resident
/// prefix budget), or the planner's stream under the kPlanner context.
class StructureIn {
 public:
  explicit StructureIn(const SnapshotReader& reader) : reader_(&reader) {}
  StructureIn(BinaryReader& stream, const BorrowContext& ctx)
      : stream_(&stream), ctx_(ctx) {}

  /// Moves to the next structure, which `id` names; stream() and ctx()
  /// then read it. Fetching a section invalidates the previous one's
  /// reader (kPaged keeps one section resident at a time).
  Status Next(SectionId id) {
    if (reader_ == nullptr) return Status::Ok();
    auto section = reader_->Section(id);
    if (!section.ok()) return section.status();
    section_ = std::move(*section);
    ctx_ = reader_->borrow_context(id);
    stream_ = &section_;
    return Status::Ok();
  }
  BinaryReader& stream() { return *stream_; }
  const BorrowContext& ctx() const { return ctx_; }

 private:
  const SnapshotReader* reader_ = nullptr;
  BinaryReader section_{{}};
  BinaryReader* stream_ = nullptr;
  BorrowContext ctx_;
};

/// A labeling loaded for a method over `cn` must label exactly the
/// condensation's components.
Result<IntervalLabeling> LoadLabeling(StructureIn& in,
                                      const CondensedNetwork& cn) {
  GSR_RETURN_IF_ERROR(in.Next(SectionId::kLabeling));
  auto labeling = IntervalLabeling::Deserialize(in.stream(), in.ctx());
  if (!labeling.ok()) return labeling.status();
  if (labeling->num_vertices() != cn.num_components()) {
    return Status::InvalidArgument(
        "snapshot labeling does not match the condensation size");
  }
  return labeling;
}

Result<CondensedSpatialIndex> LoadSpatialIndex(StructureIn& in,
                                               const CondensedNetwork& cn,
                                               SccSpatialMode expected_mode) {
  GSR_RETURN_IF_ERROR(in.Next(SectionId::kSpatialIndex));
  auto index = CondensedSpatialIndex::Deserialize(in.stream(), in.ctx(),
                                                  cn.num_components());
  if (!index.ok()) return index.status();
  if (index->mode() != expected_mode) {
    return Status::InvalidArgument(
        "snapshot spatial index disagrees with the meta SCC mode");
  }
  return index;
}

}  // namespace

/// Friend of every method class: reads private index members for saving
/// and invokes the private from-parts constructors for loading.
struct MethodSnapshotAccess {
  static Status Save(const RangeReachMethod& method,
                     const MethodConfig& config, const CondensedNetwork& cn,
                     const std::string& path) {
    SnapshotWriter writer;
    WriteMeta(writer.BeginSection(SectionId::kMeta), config, cn);
    if (config.kind != MethodKind::kPlanner) {
      StructureOut out(writer);
      GSR_RETURN_IF_ERROR(
          SaveStructures(method, config.kind, config.scc_mode, out));
      return writer.WriteFile(path);
    }
    // One section holds the whole portfolio inline, each member in its
    // kind's structure order.
    const auto& m = static_cast<const PlannedMethod&>(method);
    BinaryWriter& s = writer.BeginSection(SectionId::kPlanner);
    StructureOut out(s);
    s.WriteU32(static_cast<uint32_t>(m.members_.size()));
    for (size_t i = 0; i < m.members_.size(); ++i) {
      s.WriteU32(static_cast<uint32_t>(m.member_kinds_[i]));
      GSR_RETURN_IF_ERROR(SaveStructures(*m.members_[i], m.member_kinds_[i],
                                         config.scc_mode, out));
    }
    m.observations_.SerializeTo(s);
    m.histogram_.SerializeTo(s);
    for (const PlannedMethod::CostModel& cm : m.cost_models_) {
      s.WriteF64(cm.base_ns);
      s.WriteF64(cm.per_unit_ns);
    }
    return writer.WriteFile(path);
  }

  static Result<LoadedMethod> Load(const CondensedNetwork* cn,
                                   const std::string& path,
                                   const SnapshotLoadOptions& options) {
    auto reader = SnapshotReader::Open(path, options);
    if (!reader.ok()) return reader.status();
    auto meta_reader = reader->Section(SectionId::kMeta);
    if (!meta_reader.ok()) return meta_reader.status();
    auto config = ReadMeta(*meta_reader, *cn);
    if (!config.ok()) return config.status();

    LoadedMethod out;
    out.config = *config;
    out.page_cache = reader->page_cache();
    if (config->kind != MethodKind::kPlanner) {
      StructureIn in(*reader);
      auto method = LoadStructures(in, cn, *config, config->kind);
      if (!method.ok()) return method.status();
      out.method = std::move(*method);
      out.resident_bytes = reader->resident_bytes();
      return out;
    }

    auto section = reader->Section(SectionId::kPlanner);
    if (!section.ok()) return section.status();
    BinaryReader& s = *section;
    StructureIn in(s, reader->borrow_context(SectionId::kPlanner));
    uint32_t member_count = 0;
    GSR_RETURN_IF_ERROR(s.ReadU32(&member_count));
    if (member_count != config->planner.portfolio.size()) {
      return Status::InvalidArgument(
          "planner snapshot: member count disagrees with meta portfolio");
    }
    std::vector<std::unique_ptr<RangeReachMethod>> members;
    std::vector<MethodKind> kinds;
    for (uint32_t i = 0; i < member_count; ++i) {
      uint32_t kind_tag = 0;
      GSR_RETURN_IF_ERROR(s.ReadU32(&kind_tag));
      if (kind_tag != static_cast<uint32_t>(config->planner.portfolio[i])) {
        return Status::InvalidArgument(
            "planner snapshot: member kind disagrees with meta portfolio");
      }
      const MethodKind member_kind = static_cast<MethodKind>(kind_tag);
      auto member = LoadStructures(in, cn, *config, member_kind);
      if (!member.ok()) return member.status();
      members.push_back(std::move(*member));
      kinds.push_back(member_kind);
    }
    auto observations = Observations::Deserialize(s);
    if (!observations.ok()) return observations.status();
    if (observations->num_components() != cn->num_components()) {
      return Status::InvalidArgument(
          "planner snapshot: observations do not match the condensation");
    }
    auto histogram = GridHistogram::Deserialize(s);
    if (!histogram.ok()) return histogram.status();
    std::vector<PlannedMethod::CostModel> cost_models(member_count);
    for (PlannedMethod::CostModel& cm : cost_models) {
      GSR_RETURN_IF_ERROR(s.ReadF64(&cm.base_ns));
      GSR_RETURN_IF_ERROR(s.ReadF64(&cm.per_unit_ns));
    }
    out.method.reset(new PlannedMethod(
        cn, config->planner, std::move(members), std::move(kinds),
        std::move(*observations), std::move(*histogram),
        std::move(cost_models)));
    out.resident_bytes = reader->resident_bytes();
    return out;
  }

 private:
  /// The one per-kind codec: which structures a method of `kind`
  /// persists, and in what order. LoadStructures mirrors it.
  static Status SaveStructures(const RangeReachMethod& method,
                               MethodKind kind, SccSpatialMode scc_mode,
                               StructureOut& out) {
    switch (kind) {
      case MethodKind::kNaiveBfs:
        return Status::InvalidArgument(
            "NaiveBFS is index-free and has no snapshot representation");
      case MethodKind::kPlanner:
        return Status::InvalidArgument(
            "a planner cannot be a planner portfolio member");
      case MethodKind::kSocReach:
        static_cast<const SocReach&>(method).labeling_.SerializeTo(
            out.Next(SectionId::kLabeling));
        break;
      case MethodKind::kSpaReachBfl: {
        const auto& m = static_cast<const SpaReachBfl&>(method);
        m.spatial_index_.SerializeTo(out.Next(SectionId::kSpatialIndex));
        m.bfl_.SerializeTo(out.Next(SectionId::kBfl));
        break;
      }
      case MethodKind::kSpaReachInt: {
        const auto& m = static_cast<const SpaReachInt&>(method);
        m.spatial_index_.SerializeTo(out.Next(SectionId::kSpatialIndex));
        m.labeling_.SerializeTo(out.Next(SectionId::kLabeling));
        break;
      }
      case MethodKind::kSpaReachPll: {
        const auto& m = static_cast<const SpaReachPll&>(method);
        m.spatial_index_.SerializeTo(out.Next(SectionId::kSpatialIndex));
        m.pll_.SerializeTo(out.Next(SectionId::kPll));
        break;
      }
      case MethodKind::kSpaReachFeline: {
        const auto& m = static_cast<const SpaReachFeline&>(method);
        m.spatial_index_.SerializeTo(out.Next(SectionId::kSpatialIndex));
        m.feline_.SerializeTo(out.Next(SectionId::kFeline));
        break;
      }
      case MethodKind::kGeoReach:
        SaveGeoReach(static_cast<const GeoReachMethod&>(method),
                     out.Next(SectionId::kGeoReach));
        break;
      case MethodKind::kThreeDReach: {
        const auto& m = static_cast<const ThreeDReach&>(method);
        m.labeling_.SerializeTo(out.Next(SectionId::kLabeling));
        BinaryWriter& s = out.Next(SectionId::kRTree);
        if (scc_mode == SccSpatialMode::kReplicate) {
          m.points_.SerializeTo(s);
        } else {
          m.boxes_.SerializeTo(s);
        }
        break;
      }
      case MethodKind::kThreeDReachRev: {
        const auto& m = static_cast<const ThreeDReachRev&>(method);
        m.labeling_.SerializeTo(out.Next(SectionId::kLabeling));
        m.rtree_.SerializeTo(out.Next(SectionId::kRTree));
        break;
      }
    }
    return Status::Ok();
  }

  static Result<std::unique_ptr<RangeReachMethod>> LoadStructures(
      StructureIn& in, const CondensedNetwork* cn, const MethodConfig& config,
      MethodKind kind) {
    std::unique_ptr<RangeReachMethod> method;
    switch (kind) {
      case MethodKind::kNaiveBfs:
      case MethodKind::kPlanner:
        // Meta validation rejects both, as a snapshot and as a member.
        return Status::Internal("unreachable: no structures for this kind");
      case MethodKind::kSocReach: {
        auto labeling = LoadLabeling(in, *cn);
        if (!labeling.ok()) return labeling.status();
        method.reset(new SocReach(cn, std::move(*labeling)));
        break;
      }
      case MethodKind::kSpaReachBfl: {
        auto index = LoadSpatialIndex(in, *cn, config.scc_mode);
        if (!index.ok()) return index.status();
        GSR_RETURN_IF_ERROR(in.Next(SectionId::kBfl));
        auto bfl = BflIndex::Deserialize(in.stream(), &cn->dag());
        if (!bfl.ok()) return bfl.status();
        method.reset(new SpaReachBfl(cn, std::move(*index), std::move(*bfl)));
        break;
      }
      case MethodKind::kSpaReachInt: {
        auto index = LoadSpatialIndex(in, *cn, config.scc_mode);
        if (!index.ok()) return index.status();
        auto labeling = LoadLabeling(in, *cn);
        if (!labeling.ok()) return labeling.status();
        method.reset(
            new SpaReachInt(cn, std::move(*index), std::move(*labeling)));
        break;
      }
      case MethodKind::kSpaReachPll: {
        auto index = LoadSpatialIndex(in, *cn, config.scc_mode);
        if (!index.ok()) return index.status();
        GSR_RETURN_IF_ERROR(in.Next(SectionId::kPll));
        auto pll = PllIndex::Deserialize(in.stream());
        if (!pll.ok()) return pll.status();
        if (pll->num_vertices() != cn->num_components()) {
          return Status::InvalidArgument(
              "snapshot PLL index does not match the condensation size");
        }
        method.reset(new SpaReachPll(cn, std::move(*index), std::move(*pll)));
        break;
      }
      case MethodKind::kSpaReachFeline: {
        auto index = LoadSpatialIndex(in, *cn, config.scc_mode);
        if (!index.ok()) return index.status();
        GSR_RETURN_IF_ERROR(in.Next(SectionId::kFeline));
        auto feline = FelineIndex::Deserialize(in.stream(), &cn->dag());
        if (!feline.ok()) return feline.status();
        method.reset(
            new SpaReachFeline(cn, std::move(*index), std::move(*feline)));
        break;
      }
      case MethodKind::kGeoReach: {
        GSR_RETURN_IF_ERROR(in.Next(SectionId::kGeoReach));
        auto loaded = LoadGeoReach(in.stream(), cn, config);
        if (!loaded.ok()) return loaded.status();
        method = std::move(*loaded);
        break;
      }
      case MethodKind::kThreeDReach: {
        auto labeling = LoadLabeling(in, *cn);
        if (!labeling.ok()) return labeling.status();
        GSR_RETURN_IF_ERROR(in.Next(SectionId::kRTree));
        const ThreeDReach::Options method_options{
            .scc_mode = config.scc_mode,
            .forest_strategy = config.forest_strategy};
        if (config.scc_mode == SccSpatialMode::kReplicate) {
          // Leaf ids are vertex ids, and the tree must be exactly the one
          // this network and labeling build (see CheckReplicateLeaves).
          auto points = FrozenRTreePoints3D::Deserialize(
              in.stream(), in.ctx(), cn->network().num_vertices(),
              [&](std::span<const Point3D> geoms,
                  std::span<const uint64_t> ids) {
                return ThreeDReach::CheckReplicateLeaves(*cn, *labeling,
                                                         geoms, ids);
              });
          if (!points.ok()) return points.status();
          method.reset(new ThreeDReach(cn, method_options,
                                       std::move(*labeling),
                                       std::move(*points), FrozenRTree3D()));
        } else {
          auto boxes = FrozenRTree3D::Deserialize(
              in.stream(), in.ctx(), cn->num_components(),
              [&](std::span<const Box3D> geoms,
                  std::span<const uint64_t> ids) {
                return ThreeDReach::CheckMbrLeaves(*cn, *labeling, geoms,
                                                   ids);
              });
          if (!boxes.ok()) return boxes.status();
          method.reset(new ThreeDReach(cn, method_options,
                                       std::move(*labeling),
                                       FrozenRTreePoints3D(),
                                       std::move(*boxes)));
        }
        break;
      }
      case MethodKind::kThreeDReachRev: {
        auto labeling = LoadLabeling(in, *cn);
        if (!labeling.ok()) return labeling.status();
        GSR_RETURN_IF_ERROR(in.Next(SectionId::kRTree));
        auto rtree = FrozenRTree3D::Deserialize(in.stream(), in.ctx(),
                                                cn->num_components());
        if (!rtree.ok()) return rtree.status();
        method.reset(new ThreeDReachRev(
            cn, ThreeDReachRev::Options{.scc_mode = config.scc_mode},
            std::move(*labeling), std::move(*rtree)));
        break;
      }
    }
    return method;
  }

  /// GeoReach section: class tags, RMBRs, and the ReachGrids as a CSR of
  /// cells. GridCell has internal padding, so cells are stored as three
  /// parallel arrays (level/ix/iy) rather than raw structs.
  static void SaveGeoReach(const GeoReachMethod& m, BinaryWriter& s) {
    const size_t n = m.class_.size();
    std::vector<uint8_t> classes(n);
    for (size_t i = 0; i < n; ++i) {
      classes[i] = static_cast<uint8_t>(m.class_[i]);
    }
    s.WriteVector(classes);
    s.WriteVector(m.rmbr_);
    std::vector<uint64_t> offsets;
    offsets.reserve(n + 1);
    offsets.push_back(0);
    std::vector<uint8_t> levels;
    std::vector<uint32_t> ixs;
    std::vector<uint32_t> iys;
    for (const std::vector<GridCell>& cells : m.reach_grid_) {
      for (const GridCell& cell : cells) {
        levels.push_back(cell.level);
        ixs.push_back(cell.ix);
        iys.push_back(cell.iy);
      }
      offsets.push_back(levels.size());
    }
    s.WriteVector(offsets);
    s.WriteVector(levels);
    s.WriteVector(ixs);
    s.WriteVector(iys);
  }

  static Result<std::unique_ptr<RangeReachMethod>> LoadGeoReach(
      BinaryReader& s, const CondensedNetwork* cn,
      const MethodConfig& config) {
    std::vector<uint8_t> classes;
    std::vector<Rect> rmbr;
    std::vector<uint64_t> offsets;
    std::vector<uint8_t> levels;
    std::vector<uint32_t> ixs;
    std::vector<uint32_t> iys;
    GSR_RETURN_IF_ERROR(s.ReadVector(&classes));
    GSR_RETURN_IF_ERROR(s.ReadVector(&rmbr));
    GSR_RETURN_IF_ERROR(s.ReadVector(&offsets));
    GSR_RETURN_IF_ERROR(s.ReadVector(&levels));
    GSR_RETURN_IF_ERROR(s.ReadVector(&ixs));
    GSR_RETURN_IF_ERROR(s.ReadVector(&iys));

    const size_t n = cn->num_components();
    const int depth = config.geo_reach.grid_depth;
    if (classes.size() != n || rmbr.size() != n || offsets.size() != n + 1 ||
        offsets.front() != 0 || offsets.back() != levels.size() ||
        ixs.size() != levels.size() || iys.size() != levels.size()) {
      return Status::InvalidArgument("GeoReach snapshot: array sizes disagree");
    }
    std::vector<GeoReachMethod::SpaClass> spa_classes(n);
    for (size_t i = 0; i < n; ++i) {
      if (classes[i] > static_cast<uint8_t>(GeoReachMethod::SpaClass::kG)) {
        return Status::InvalidArgument("GeoReach snapshot: bad class tag");
      }
      spa_classes[i] = static_cast<GeoReachMethod::SpaClass>(classes[i]);
    }
    std::vector<std::vector<GridCell>> reach_grid(n);
    for (size_t c = 0; c < n; ++c) {
      if (offsets[c] > offsets[c + 1]) {
        return Status::InvalidArgument(
            "GeoReach snapshot: non-monotonic grid offsets");
      }
      reach_grid[c].reserve(offsets[c + 1] - offsets[c]);
      for (uint64_t i = offsets[c]; i < offsets[c + 1]; ++i) {
        if (levels[i] > depth ||
            ixs[i] >= (1u << (depth - levels[i])) ||
            iys[i] >= (1u << (depth - levels[i]))) {
          return Status::InvalidArgument(
              "GeoReach snapshot: grid cell out of range");
        }
        reach_grid[c].push_back(GridCell{levels[i], ixs[i], iys[i]});
      }
    }
    return std::unique_ptr<RangeReachMethod>(
        new GeoReachMethod(cn, config.geo_reach, std::move(spa_classes),
                           std::move(rmbr), std::move(reach_grid)));
  }
};

Status SaveMethodSnapshot(const RangeReachMethod& method,
                          const MethodConfig& config,
                          const CondensedNetwork& cn,
                          const std::string& path) {
  return MethodSnapshotAccess::Save(method, config, cn, path);
}

Result<LoadedMethod> LoadMethodSnapshot(const CondensedNetwork* cn,
                                        const std::string& path,
                                        const SnapshotLoadOptions& options) {
  return MethodSnapshotAccess::Load(cn, path, options);
}

}  // namespace gsr
