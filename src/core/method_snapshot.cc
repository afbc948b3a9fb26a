#include "core/method_snapshot.h"

#include <algorithm>
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

/// Where a Load reads them back: `id`'s own section under that section's
/// context (in kPaged mode it carries the section's file offset, so
/// pageable structures can record on-disk addresses, and the resident
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

using Loaded = Result<std::unique_ptr<RangeReachMethod>>;

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

// Each kind's codec: SaveStructures writes its structures, one
// out.Next(id) each, and its Load reads them back in the same order.

Status RangeReachMethod::SaveStructures(StructureOut& /*out*/) const {
  return Status::InvalidArgument(
      name() + " is index-free and has no snapshot representation");
}

Status SocReach::SaveStructures(StructureOut& out) const {
  labeling_.SerializeTo(out.Next(SectionId::kLabeling));
  return Status::Ok();
}

Loaded SocReach::Load(StructureIn& in, const CondensedNetwork* cn,
                      const MethodConfig& /*config*/) {
  auto labeling = LoadLabeling(in, *cn);
  if (!labeling.ok()) return labeling.status();
  return std::unique_ptr<RangeReachMethod>(
      new SocReach(cn, std::move(*labeling)));
}

Status SpaReachBfl::SaveStructures(StructureOut& out) const {
  spatial_index_.SerializeTo(out.Next(SectionId::kSpatialIndex));
  bfl_.SerializeTo(out.Next(SectionId::kBfl));
  return Status::Ok();
}

Loaded SpaReachBfl::Load(StructureIn& in, const CondensedNetwork* cn,
                         const MethodConfig& config) {
  auto index = LoadSpatialIndex(in, *cn, config.scc_mode);
  if (!index.ok()) return index.status();
  GSR_RETURN_IF_ERROR(in.Next(SectionId::kBfl));
  auto bfl = BflIndex::Deserialize(in.stream(), &cn->dag());
  if (!bfl.ok()) return bfl.status();
  return std::unique_ptr<RangeReachMethod>(
      new SpaReachBfl(cn, std::move(*index), std::move(*bfl)));
}

Status SpaReachInt::SaveStructures(StructureOut& out) const {
  spatial_index_.SerializeTo(out.Next(SectionId::kSpatialIndex));
  labeling_.SerializeTo(out.Next(SectionId::kLabeling));
  return Status::Ok();
}

Loaded SpaReachInt::Load(StructureIn& in, const CondensedNetwork* cn,
                         const MethodConfig& config) {
  auto index = LoadSpatialIndex(in, *cn, config.scc_mode);
  if (!index.ok()) return index.status();
  auto labeling = LoadLabeling(in, *cn);
  if (!labeling.ok()) return labeling.status();
  return std::unique_ptr<RangeReachMethod>(
      new SpaReachInt(cn, std::move(*index), std::move(*labeling)));
}

Status SpaReachPll::SaveStructures(StructureOut& out) const {
  spatial_index_.SerializeTo(out.Next(SectionId::kSpatialIndex));
  pll_.SerializeTo(out.Next(SectionId::kPll));
  return Status::Ok();
}

Loaded SpaReachPll::Load(StructureIn& in, const CondensedNetwork* cn,
                         const MethodConfig& config) {
  auto index = LoadSpatialIndex(in, *cn, config.scc_mode);
  if (!index.ok()) return index.status();
  GSR_RETURN_IF_ERROR(in.Next(SectionId::kPll));
  auto pll = PllIndex::Deserialize(in.stream());
  if (!pll.ok()) return pll.status();
  if (pll->num_vertices() != cn->num_components()) {
    return Status::InvalidArgument(
        "snapshot PLL index does not match the condensation size");
  }
  return std::unique_ptr<RangeReachMethod>(
      new SpaReachPll(cn, std::move(*index), std::move(*pll)));
}

Status SpaReachFeline::SaveStructures(StructureOut& out) const {
  spatial_index_.SerializeTo(out.Next(SectionId::kSpatialIndex));
  feline_.SerializeTo(out.Next(SectionId::kFeline));
  return Status::Ok();
}

Loaded SpaReachFeline::Load(StructureIn& in, const CondensedNetwork* cn,
                            const MethodConfig& config) {
  auto index = LoadSpatialIndex(in, *cn, config.scc_mode);
  if (!index.ok()) return index.status();
  GSR_RETURN_IF_ERROR(in.Next(SectionId::kFeline));
  auto feline = FelineIndex::Deserialize(in.stream(), &cn->dag());
  if (!feline.ok()) return feline.status();
  return std::unique_ptr<RangeReachMethod>(
      new SpaReachFeline(cn, std::move(*index), std::move(*feline)));
}

Status ThreeDReach::SaveStructures(StructureOut& out) const {
  labeling_.SerializeTo(out.Next(SectionId::kLabeling));
  BinaryWriter& s = out.Next(SectionId::kRTree);
  if (options_.scc_mode == SccSpatialMode::kReplicate) {
    points_.SerializeTo(s);
  } else {
    boxes_.SerializeTo(s);
  }
  return Status::Ok();
}

Loaded ThreeDReach::Load(StructureIn& in, const CondensedNetwork* cn,
                         const MethodConfig& config) {
  auto labeling = LoadLabeling(in, *cn);
  if (!labeling.ok()) return labeling.status();
  GSR_RETURN_IF_ERROR(in.Next(SectionId::kRTree));
  const Options options{.scc_mode = config.scc_mode,
                        .forest_strategy = config.forest_strategy};
  if (config.scc_mode == SccSpatialMode::kReplicate) {
    // Leaf ids are vertex ids, and the tree must be exactly the one this
    // network and labeling build (see CheckReplicateLeaves).
    auto points = FrozenRTreePoints3D::Deserialize(
        in.stream(), in.ctx(), cn->network().num_vertices(),
        [&](std::span<const Point3D> geoms, std::span<const uint64_t> ids) {
          return CheckReplicateLeaves(*cn, *labeling, geoms, ids);
        });
    if (!points.ok()) return points.status();
    return std::unique_ptr<RangeReachMethod>(
        new ThreeDReach(cn, options, std::move(*labeling), std::move(*points),
                        FrozenRTree3D()));
  }
  auto boxes = FrozenRTree3D::Deserialize(
      in.stream(), in.ctx(), cn->num_components(),
      [&](std::span<const Box3D> geoms, std::span<const uint64_t> ids) {
        return CheckMbrLeaves(*cn, *labeling, geoms, ids);
      });
  if (!boxes.ok()) return boxes.status();
  return std::unique_ptr<RangeReachMethod>(
      new ThreeDReach(cn, options, std::move(*labeling),
                      FrozenRTreePoints3D(), std::move(*boxes)));
}

Status ThreeDReachRev::SaveStructures(StructureOut& out) const {
  labeling_.SerializeTo(out.Next(SectionId::kLabeling));
  rtree_.SerializeTo(out.Next(SectionId::kRTree));
  return Status::Ok();
}

Loaded ThreeDReachRev::Load(StructureIn& in, const CondensedNetwork* cn,
                            const MethodConfig& config) {
  auto labeling = LoadLabeling(in, *cn);
  if (!labeling.ok()) return labeling.status();
  GSR_RETURN_IF_ERROR(in.Next(SectionId::kRTree));
  auto rtree =
      FrozenRTree3D::Deserialize(in.stream(), in.ctx(), cn->num_components());
  if (!rtree.ok()) return rtree.status();
  return std::unique_ptr<RangeReachMethod>(new ThreeDReachRev(
      cn, Options{.scc_mode = config.scc_mode}, std::move(*labeling),
      std::move(*rtree)));
}

/// GeoReach section: class tags, RMBRs, and the ReachGrids as a CSR of
/// cells. GridCell has internal padding, so cells are stored as three
/// parallel arrays (level/ix/iy) rather than raw structs.
Status GeoReachMethod::SaveStructures(StructureOut& out) const {
  BinaryWriter& s = out.Next(SectionId::kGeoReach);
  const size_t n = class_.size();
  std::vector<uint8_t> classes(n);
  for (size_t i = 0; i < n; ++i) {
    classes[i] = static_cast<uint8_t>(class_[i]);
  }
  s.WriteVector(classes);
  s.WriteVector(rmbr_);
  std::vector<uint64_t> offsets;
  offsets.reserve(n + 1);
  offsets.push_back(0);
  std::vector<uint8_t> levels;
  std::vector<uint32_t> ixs;
  std::vector<uint32_t> iys;
  for (const std::vector<GridCell>& cells : reach_grid_) {
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
  return Status::Ok();
}

Loaded GeoReachMethod::Load(StructureIn& in, const CondensedNetwork* cn,
                            const MethodConfig& config) {
  GSR_RETURN_IF_ERROR(in.Next(SectionId::kGeoReach));
  BinaryReader& s = in.stream();
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
  // Monotonic offsets from 0 to levels.size() bound every cell range, so
  // no reserve below can ask for more than the cells there are.
  if (!std::is_sorted(offsets.begin(), offsets.end())) {
    return Status::InvalidArgument(
        "GeoReach snapshot: non-monotonic grid offsets");
  }
  std::vector<SpaClass> spa_classes(n);
  for (size_t i = 0; i < n; ++i) {
    if (classes[i] > static_cast<uint8_t>(SpaClass::kG)) {
      return Status::InvalidArgument("GeoReach snapshot: bad class tag");
    }
    spa_classes[i] = static_cast<SpaClass>(classes[i]);
  }
  std::vector<std::vector<GridCell>> reach_grid(n);
  for (size_t c = 0; c < n; ++c) {
    reach_grid[c].reserve(offsets[c + 1] - offsets[c]);
    for (uint64_t i = offsets[c]; i < offsets[c + 1]; ++i) {
      if (levels[i] > depth || ixs[i] >= (1u << (depth - levels[i])) ||
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

/// Planner section: the member count, then each member's kind tag and
/// structures inline, then the observations, histogram and cost models.
Status PlannedMethod::SaveStructures(StructureOut& out) const {
  BinaryWriter& s = out.Next(SectionId::kPlanner);
  StructureOut inline_out(s);
  s.WriteU32(static_cast<uint32_t>(members_.size()));
  for (size_t i = 0; i < members_.size(); ++i) {
    s.WriteU32(static_cast<uint32_t>(options_.portfolio[i]));
    GSR_RETURN_IF_ERROR(members_[i]->SaveStructures(inline_out));
  }
  observations_.SerializeTo(s);
  histogram_.SerializeTo(s);
  for (const CostModel& cm : cost_models_) {
    s.WriteF64(cm.base_ns);
    s.WriteF64(cm.per_unit_ns);
  }
  return Status::Ok();
}

Loaded PlannedMethod::Load(StructureIn& in, const CondensedNetwork* cn,
                           const MethodConfig& config) {
  GSR_RETURN_IF_ERROR(in.Next(SectionId::kPlanner));
  BinaryReader& s = in.stream();
  StructureIn inline_in(s, in.ctx());
  uint32_t member_count = 0;
  GSR_RETURN_IF_ERROR(s.ReadU32(&member_count));
  if (member_count != config.planner.portfolio.size()) {
    return Status::InvalidArgument(
        "planner snapshot: member count disagrees with meta portfolio");
  }
  std::vector<std::unique_ptr<RangeReachMethod>> members;
  for (const MethodKind kind : config.planner.portfolio) {
    uint32_t kind_tag = 0;
    GSR_RETURN_IF_ERROR(s.ReadU32(&kind_tag));
    if (kind_tag != static_cast<uint32_t>(kind)) {
      return Status::InvalidArgument(
          "planner snapshot: member kind disagrees with meta portfolio");
    }
    auto member = MethodKindRowOf(kind).load(inline_in, cn, config);
    if (!member.ok()) return member.status();
    members.push_back(std::move(*member));
  }
  auto observations = Observations::Deserialize(s);
  if (!observations.ok()) return observations.status();
  if (observations->num_components() != cn->num_components()) {
    return Status::InvalidArgument(
        "planner snapshot: observations do not match the condensation");
  }
  auto histogram = GridHistogram::Deserialize(s);
  if (!histogram.ok()) return histogram.status();
  std::vector<CostModel> cost_models(member_count);
  for (CostModel& cm : cost_models) {
    GSR_RETURN_IF_ERROR(s.ReadF64(&cm.base_ns));
    GSR_RETURN_IF_ERROR(s.ReadF64(&cm.per_unit_ns));
  }
  return std::unique_ptr<RangeReachMethod>(new PlannedMethod(
      cn, config.planner, std::move(members), std::move(*observations),
      std::move(*histogram), std::move(cost_models)));
}

Status SaveMethodSnapshot(const RangeReachMethod& method,
                          const MethodConfig& config,
                          const CondensedNetwork& cn,
                          const std::string& path) {
  SnapshotWriter writer;
  WriteMeta(writer.BeginSection(SectionId::kMeta), config, cn);
  StructureOut out(writer);
  GSR_RETURN_IF_ERROR(method.SaveStructures(out));
  return writer.WriteFile(path);
}

Result<LoadedMethod> LoadMethodSnapshot(const CondensedNetwork* cn,
                                        const std::string& path,
                                        const SnapshotLoadOptions& options) {
  auto reader = SnapshotReader::Open(path, options);
  if (!reader.ok()) return reader.status();
  auto meta_reader = reader->Section(SectionId::kMeta);
  if (!meta_reader.ok()) return meta_reader.status();
  auto config = ReadMeta(*meta_reader, *cn);
  if (!config.ok()) return config.status();

  // ReadMeta admits only kinds with a loader (not NaiveBFS).
  StructureIn in(*reader);
  auto method = MethodKindRowOf(config->kind).load(in, cn, *config);
  if (!method.ok()) return method.status();
  return LoadedMethod{std::move(*method), *config, reader->page_cache(),
                      reader->resident_bytes()};
}

}  // namespace gsr
