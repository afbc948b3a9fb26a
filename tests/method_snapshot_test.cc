#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/checksum.h"
#include "common/rng.h"
#include "core/condensed_network.h"
#include "core/method_factory.h"
#include "core/method_snapshot.h"
#include "core/naive_bfs.h"
#include "exec/thread_pool.h"
#include "labeling/interval_labeling.h"
#include "snapshot/format.h"
#include "snapshot/page_cache.h"
#include "spatial/frozen_rtree.h"
#include "tests/snapshot_test_util.h"
#include "tests/test_util.h"

namespace gsr {
namespace {

using testing::AllSections;
using testing::GoldenConfigs;
using testing::SectionPayload;
using testing::TempPath;
using testing::WriteSections;

/// Save/load round trips for every snapshot-able method. The loaded
/// instance must answer every query exactly like the built one — in
/// zero-copy mmap mode and in explicitly-cached paged mode.

std::vector<MethodConfig> SnapshotableConfigs() {
  std::vector<MethodConfig> configs;
  for (const MethodKind kind :
       {MethodKind::kSpaReachBfl, MethodKind::kSpaReachInt,
        MethodKind::kSpaReachPll, MethodKind::kSpaReachFeline,
        MethodKind::kGeoReach, MethodKind::kSocReach, MethodKind::kThreeDReach,
        MethodKind::kThreeDReachRev}) {
    for (const SccSpatialMode mode :
         {SccSpatialMode::kReplicate, SccSpatialMode::kMbr}) {
      MethodConfig config;
      config.kind = kind;
      config.scc_mode = mode;
      configs.push_back(config);
      if (kind == MethodKind::kSocReach || kind == MethodKind::kGeoReach) {
        break;
      }
    }
  }
  return configs;
}

void ExpectIdenticalAnswers(const RangeReachMethod& built,
                            const RangeReachMethod& loaded,
                            const GeoSocialNetwork& network, uint64_t seed) {
  Rng rng(seed);
  for (int q = 0; q < 200; ++q) {
    const VertexId v =
        static_cast<VertexId>(rng.NextBounded(network.num_vertices()));
    const double x = rng.NextDoubleInRange(-10, 100);
    const double y = rng.NextDoubleInRange(-10, 100);
    const Rect region(x, y, x + rng.NextDoubleInRange(0, 60),
                      y + rng.NextDoubleInRange(0, 60));
    ASSERT_EQ(loaded.Evaluate(v, region), built.Evaluate(v, region))
        << loaded.name() << " diverges on vertex " << v << " region "
        << region.ToString();
  }
}

TEST(MethodSnapshotTest, AllMethodsRoundTripEveryLoadMode) {
  const GeoSocialNetwork network =
      testing::RandomGeoSocialNetwork(250, 2.5, 0.4, 101);
  const CondensedNetwork cn(&network);

  int config_index = 0;
  for (const MethodConfig& config : SnapshotableConfigs()) {
    const auto built = CreateMethod(&cn, config);
    const std::string path =
        TempPath("method_" + std::to_string(config_index++) + ".snap");
    ASSERT_TRUE(SaveMethodSnapshot(*built, config, cn, path).ok())
        << built->name();

    for (const snapshot::LoadMode mode :
         {snapshot::LoadMode::kMmap, snapshot::LoadMode::kPaged}) {
      auto loaded = LoadMethodSnapshot(&cn, path, {.mode = mode});
      ASSERT_TRUE(loaded.ok())
          << built->name() << ": " << loaded.status().ToString();
      EXPECT_EQ(loaded->method->name(), built->name());
      EXPECT_EQ(loaded->config.kind, config.kind);
      EXPECT_EQ(loaded->config.scc_mode, config.scc_mode);
      EXPECT_GT(loaded->method->IndexSizeBytes(), 0u);
      EXPECT_EQ(loaded->page_cache != nullptr,
                mode == snapshot::LoadMode::kPaged);
      ExpectIdenticalAnswers(*built, *loaded->method, network, 202);
    }
  }
}

TEST(MethodSnapshotTest, LoadedMethodOutlivesTheFile) {
  const GeoSocialNetwork network =
      testing::RandomGeoSocialNetwork(150, 2.0, 0.5, 105);
  const CondensedNetwork cn(&network);

  MethodConfig config;
  config.kind = MethodKind::kSpaReachInt;
  const auto built = CreateMethod(&cn, config);

  for (const snapshot::LoadMode mode :
       {snapshot::LoadMode::kMmap, snapshot::LoadMode::kPaged}) {
    const std::string path = TempPath("method_unlink.snap");
    ASSERT_TRUE(SaveMethodSnapshot(*built, config, cn, path).ok());
    auto loaded = LoadMethodSnapshot(&cn, path, {.mode = mode});
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    // POSIX keeps the mapping (kMmap) / the open descriptor (kPaged)
    // alive after the unlink; the loaded method pins it, so queries must
    // keep working — including cache misses that pread the unlinked file.
    ASSERT_EQ(std::remove(path.c_str()), 0);
    if (loaded->page_cache != nullptr) loaded->page_cache->Drop();
    ExpectIdenticalAnswers(*built, *loaded->method, network, 206);
  }
}

TEST(MethodSnapshotTest, LoadedMethodSurvivesAnOverwriteOfItsFile) {
  // Saving over a live snapshot replaces the file by rename: the method
  // loaded first keeps its mapping (kMmap) or descriptor (kPaged) on the
  // old file. Rewritten in place, the much smaller second file would cut
  // the first's pages off under it (SIGBUS in kMmap, a failed page read
  // in kPaged).
  const GeoSocialNetwork network =
      testing::RandomGeoSocialNetwork(20000, 2.0, 0.5, 107);
  const CondensedNetwork cn(&network);
  const GeoSocialNetwork small_network =
      testing::RandomGeoSocialNetwork(50, 2.0, 0.5, 108);
  const CondensedNetwork small_cn(&small_network);
  MethodConfig config;
  config.kind = MethodKind::kThreeDReach;
  const auto built = CreateMethod(&cn, config);
  const auto small_built = CreateMethod(&small_cn, config);

  for (const snapshot::LoadMode mode :
       {snapshot::LoadMode::kMmap, snapshot::LoadMode::kPaged}) {
    const std::string path = TempPath("method_overwrite.snap");
    ASSERT_TRUE(SaveMethodSnapshot(*built, config, cn, path).ok());
    auto loaded = LoadMethodSnapshot(&cn, path, {.mode = mode});
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    ASSERT_TRUE(
        SaveMethodSnapshot(*small_built, config, small_cn, path).ok());
    if (loaded->page_cache != nullptr) loaded->page_cache->Drop();
    ExpectIdenticalAnswers(*built, *loaded->method, network, 208);

    auto reloaded = LoadMethodSnapshot(&small_cn, path, {.mode = mode});
    ASSERT_TRUE(reloaded.ok()) << reloaded.status().ToString();
    ExpectIdenticalAnswers(*small_built, *reloaded->method, small_network,
                           209);
  }
}

TEST(MethodSnapshotTest, FailedRenameLeavesNoTempFile) {
  const GeoSocialNetwork network =
      testing::RandomGeoSocialNetwork(50, 2.0, 0.5, 110);
  const CondensedNetwork cn(&network);
  MethodConfig config;
  config.kind = MethodKind::kSocReach;
  const auto built = CreateMethod(&cn, config);

  // The target is an existing directory, so the temp file is written but
  // cannot be renamed over it.
  const std::filesystem::path dir = TempPath("method_rename_fails");
  std::filesystem::remove_all(dir);
  const std::filesystem::path target = dir / "method.snap";
  ASSERT_TRUE(std::filesystem::create_directories(target));
  const Status status = SaveMethodSnapshot(*built, config, cn, target);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kIoError) << status.ToString();
  std::vector<std::string> entries;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    entries.push_back(entry.path().filename().string());
  }
  EXPECT_EQ(entries, std::vector<std::string>{"method.snap"});
  EXPECT_TRUE(std::filesystem::is_directory(target));
  std::filesystem::remove_all(dir);
}

TEST(MethodSnapshotTest, PagedConcurrentQueriesShareOneTinyCache) {
  // Many reader threads descending the same paged index through one
  // 4-frame cache: constant eviction churn under contention, answers must
  // stay exact. This is the TSan target for the paged read path (clock
  // sweep, pin/unpin, load hand-off between threads).
  const GeoSocialNetwork network =
      testing::RandomGeoSocialNetwork(250, 2.5, 0.4, 113);
  const CondensedNetwork cn(&network);

  for (const MethodKind kind :
       {MethodKind::kThreeDReach, MethodKind::kSpaReachInt}) {
    MethodConfig config;
    config.kind = kind;
    const auto built = CreateMethod(&cn, config);
    const std::string path = TempPath("method_paged_mt.snap");
    ASSERT_TRUE(SaveMethodSnapshot(*built, config, cn, path).ok());
    auto loaded = LoadMethodSnapshot(
        &cn, path,
        {.mode = snapshot::LoadMode::kPaged, .page_cache_bytes = 1});
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();

    Rng rng(114);
    std::vector<RangeReachQuery> queries;
    std::vector<uint8_t> expected;
    for (int q = 0; q < 400; ++q) {
      const VertexId v =
          static_cast<VertexId>(rng.NextBounded(network.num_vertices()));
      const double x = rng.NextDoubleInRange(-10, 100);
      const double y = rng.NextDoubleInRange(-10, 100);
      const Rect region(x, y, x + rng.NextDoubleInRange(0, 60),
                        y + rng.NextDoubleInRange(0, 60));
      queries.push_back({v, region});
      expected.push_back(built->Evaluate(v, region) ? 1 : 0);
    }

    exec::ThreadPool pool(exec::ThreadPool::DefaultThreads());
    const RangeReachMethod& method = *loaded->method;
    // The scratch-less overload shares the method's DefaultScratch, which
    // is single-threaded; each worker brings its own.
    std::vector<std::unique_ptr<QueryScratch>> scratch;
    for (unsigned w = 0; w < pool.size(); ++w) {
      scratch.push_back(method.NewScratch());
    }
    pool.ParallelFor(queries.size(), 8, [&](size_t i, unsigned worker) {
      GSR_CHECK(method.EvaluateQuery(queries[i], *scratch[worker]) ==
                (expected[i] != 0));
    });

    const snapshot::PageCache::Stats stats = loaded->page_cache->GetStats();
    EXPECT_GT(stats.misses, 0u) << built->name();
    EXPECT_GT(stats.evictions, 0u) << built->name();
  }
}

TEST(MethodSnapshotTest, ResidentPrefixStaysInsideThePageCacheBudget) {
  // kPaged splits page_cache_bytes between cache frames and the resident
  // R-tree prefixes; together they never exceed it above the frame
  // floor, and at the floor (4 frames = 16 KiB) nothing is kept resident.
  const GeoSocialNetwork network =
      testing::RandomGeoSocialNetwork(600, 2.5, 0.5, 115);
  const CondensedNetwork cn(&network);
  for (const MethodKind kind :
       {MethodKind::kThreeDReach, MethodKind::kThreeDReachRev,
        MethodKind::kSpaReachBfl}) {
    MethodConfig config;
    config.kind = kind;
    const auto built = CreateMethod(&cn, config);
    const std::string path = TempPath("method_resident.snap");
    ASSERT_TRUE(SaveMethodSnapshot(*built, config, cn, path).ok());
    for (const size_t budget :
         {size_t{32} << 10, size_t{64} << 10, size_t{1} << 20}) {
      auto loaded = LoadMethodSnapshot(
          &cn, path,
          {.mode = snapshot::LoadMode::kPaged, .page_cache_bytes = budget});
      ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
      EXPECT_GT(loaded->resident_bytes, 0u) << built->name();
      EXPECT_LE(loaded->resident_bytes + loaded->page_cache->budget_bytes(),
                budget)
          << built->name() << " budget " << budget;
      ExpectIdenticalAnswers(*built, *loaded->method, network, 208);
    }
    auto floor = LoadMethodSnapshot(
        &cn, path,
        {.mode = snapshot::LoadMode::kPaged, .page_cache_bytes = 16 << 10});
    ASSERT_TRUE(floor.ok()) << floor.status().ToString();
    EXPECT_EQ(floor->resident_bytes, 0u) << built->name();
    EXPECT_EQ(floor->page_cache->num_frames(),
              snapshot::PageCache::kMinFrames);
    auto mapped =
        LoadMethodSnapshot(&cn, path, {.mode = snapshot::LoadMode::kMmap});
    ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
    EXPECT_EQ(mapped->resident_bytes, 0u) << built->name();
  }
}

TEST(MethodSnapshotTest, PagedConcurrentDescentsCrossThePrefixBoundary) {
  // Four workers, each with its own scratch, descend one paged 3DReach
  // whose tree prefix is only partly resident (a one-page slice of an
  // 8-page budget), so descents run from resident node records into
  // pinned frames of a 7-frame cache. The TSan target for the boundary.
  const GeoSocialNetwork network =
      testing::RandomGeoSocialNetwork(3000, 2.5, 0.5, 116);
  const CondensedNetwork cn(&network);
  MethodConfig config;
  config.kind = MethodKind::kThreeDReach;
  const auto built = CreateMethod(&cn, config);
  const std::string path = TempPath("method_paged_prefix_mt.snap");
  ASSERT_TRUE(SaveMethodSnapshot(*built, config, cn, path).ok());
  auto full = LoadMethodSnapshot(&cn, path,
                                 {.mode = snapshot::LoadMode::kPaged});
  ASSERT_TRUE(full.ok()) << full.status().ToString();
  const size_t budget = 8 * snapshot::kPageAlignment;
  auto loaded = LoadMethodSnapshot(
      &cn, path,
      {.mode = snapshot::LoadMode::kPaged, .page_cache_bytes = budget});
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_GT(loaded->resident_bytes, 0u);
  ASSERT_LT(loaded->resident_bytes, full->resident_bytes);

  Rng rng(117);
  std::vector<RangeReachQuery> queries;
  std::vector<uint8_t> expected;
  for (int q = 0; q < 400; ++q) {
    const VertexId v =
        static_cast<VertexId>(rng.NextBounded(network.num_vertices()));
    const double x = rng.NextDoubleInRange(-10, 100);
    const double y = rng.NextDoubleInRange(-10, 100);
    const Rect region(x, y, x + rng.NextDoubleInRange(0, 60),
                      y + rng.NextDoubleInRange(0, 60));
    queries.push_back({v, region});
    expected.push_back(built->Evaluate(v, region) ? 1 : 0);
  }

  exec::ThreadPool pool(4);
  const RangeReachMethod& method = *loaded->method;
  std::vector<std::unique_ptr<QueryScratch>> scratch;
  for (unsigned w = 0; w < pool.size(); ++w) {
    scratch.push_back(method.NewScratch());
  }
  pool.ParallelFor(queries.size(), 4, [&](size_t i, unsigned worker) {
    GSR_CHECK(method.EvaluateQuery(queries[i], *scratch[worker]) ==
              (expected[i] != 0));
  });
  const snapshot::PageCache::Stats stats = loaded->page_cache->GetStats();
  EXPECT_GT(stats.hits, 0u);
  EXPECT_GT(stats.misses, 0u);
}

uint64_t FileDigest(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  const std::string bytes((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
  return XxHash64(bytes.data(), bytes.size());
}

TEST(MethodSnapshotTest, GoldenSnapshotBytes) {
  // XXH64 of every file SaveMethodSnapshot writes for GoldenConfigs() on
  // the fixed 250-vertex network. They pin the file format and, per
  // method kind, which structures are persisted in which order — both
  // as top-level sections and inline in the planner's stream. A change
  // here means existing snapshot files no longer load the same way.
  constexpr uint64_t kDigests[] = {
      0xfee0316ebc1c908bull, 0x7762ebfc384b00fbull,
      0x66d877194579fc9bull, 0xe2a643c9bd51333full,
      0x1d09e2f999c33a1aull, 0xf545b5d9827c7be8ull,
      0x911cac1dcff1c1f1ull, 0x460508e9ddc21a99ull,
      0x2ef7a7838dd3d8ebull, 0xe4ac7312a0a2da8bull,
      0x16e99a8b2e812e89ull, 0xcddb7c1551ccd343ull,
      0x1e8385039f911715ull, 0xb0002ac3c7ef0dbbull,
      0x47fa4de0a3171f3eull, 0x69a2a0083be877e3ull,
      0x2d3d4726a5282c63ull, 0x25dd95bc7a85433aull};
  const GeoSocialNetwork network =
      testing::RandomGeoSocialNetwork(250, 2.5, 0.4, 101);
  const CondensedNetwork cn(&network);
  const std::vector<MethodConfig> configs = GoldenConfigs();
  ASSERT_EQ(configs.size(), std::size(kDigests));
  for (size_t i = 0; i < configs.size(); ++i) {
    const auto built = CreateMethod(&cn, configs[i]);
    const std::string path = TempPath("method_golden.snap");
    ASSERT_TRUE(SaveMethodSnapshot(*built, configs[i], cn, path).ok());
    EXPECT_EQ(FileDigest(path), kDigests[i])
        << "config " << i << ": " << built->name() << " scc_mode "
        << static_cast<int>(configs[i].scc_mode);
  }
}

constexpr snapshot::LoadMode kAllLoadModes[] = {snapshot::LoadMode::kMmap,
                                                 snapshot::LoadMode::kPaged};

TEST(MethodSnapshotTest, MissingStructureSectionIsNotFound) {
  const GeoSocialNetwork network =
      testing::RandomGeoSocialNetwork(250, 2.5, 0.4, 101);
  const CondensedNetwork cn(&network);
  MethodConfig config;
  config.kind = MethodKind::kSpaReachBfl;
  const auto built = CreateMethod(&cn, config);
  const std::string path = TempPath("method_no_bfl.snap");
  ASSERT_TRUE(SaveMethodSnapshot(*built, config, cn, path).ok());
  WriteSections(path,
                {{snapshot::SectionId::kMeta,
                  SectionPayload(path, snapshot::SectionId::kMeta)},
                 {snapshot::SectionId::kSpatialIndex,
                  SectionPayload(path, snapshot::SectionId::kSpatialIndex)}});

  for (const snapshot::LoadMode mode : kAllLoadModes) {
    auto loaded = LoadMethodSnapshot(&cn, path, {.mode = mode});
    ASSERT_FALSE(loaded.ok()) << static_cast<int>(mode);
    EXPECT_EQ(loaded.status().code(), StatusCode::kNotFound)
        << loaded.status().ToString();
  }
}

TEST(MethodSnapshotTest, TruncatedPlannerStreamFails) {
  // The planner's stream cut short at points spread over its whole
  // length — through every member's structures and the trailing
  // observations, histogram and cost models — must fail with an error
  // Status in every load mode, never crash.
  const GeoSocialNetwork network =
      testing::RandomGeoSocialNetwork(250, 2.5, 0.4, 101);
  const CondensedNetwork cn(&network);
  MethodConfig config;
  config.kind = MethodKind::kPlanner;
  config.planner.calibration_samples = 0;
  const auto built = CreateMethod(&cn, config);
  const std::string path = TempPath("method_planner_cut.snap");
  ASSERT_TRUE(SaveMethodSnapshot(*built, config, cn, path).ok());
  const std::vector<std::byte> meta =
      SectionPayload(path, snapshot::SectionId::kMeta);
  const std::vector<std::byte> planner =
      SectionPayload(path, snapshot::SectionId::kPlanner);
  // Members begin after the member count and the first kind tag.
  ASSERT_GT(planner.size(), 8u);

  for (size_t cut = 9; cut < planner.size(); cut += 1021) {
    const std::vector<std::byte> prefix(
        planner.begin(), planner.begin() + static_cast<std::ptrdiff_t>(cut));
    WriteSections(path, {{snapshot::SectionId::kMeta, meta},
                         {snapshot::SectionId::kPlanner, prefix}});
    for (const snapshot::LoadMode mode : kAllLoadModes) {
      auto loaded = LoadMethodSnapshot(&cn, path, {.mode = mode});
      EXPECT_FALSE(loaded.ok())
          << "cut at " << cut << " of " << planner.size() << " bytes, mode "
          << static_cast<int>(mode);
    }
  }
}

/// The leaf ids of the tree that ends `payload` (a kRTree or
/// kSpatialIndex section): the tree's entry count is the u64 at
/// `header`, and its leaf ids are its last array, so they are the
/// payload's last 8 * count bytes. Returns their offset.
size_t TailLeafIdsOffset(const std::vector<std::byte>& payload, size_t header,
                         size_t* count) {
  uint64_t entries = 0;
  std::memcpy(&entries, payload.data() + header, sizeof(entries));
  GSR_CHECK(entries * sizeof(uint64_t) <= payload.size() - header);
  *count = static_cast<size_t>(entries);
  return payload.size() - *count * sizeof(uint64_t);
}

std::vector<uint64_t> ReadIds(const std::vector<std::byte>& payload,
                              size_t at, size_t count) {
  std::vector<uint64_t> ids(count);
  std::memcpy(ids.data(), payload.data() + at, count * sizeof(uint64_t));
  return ids;
}

void WriteIds(std::vector<std::byte>& payload, size_t at,
              const std::vector<uint64_t>& ids) {
  std::memcpy(payload.data() + at, ids.data(), ids.size() * sizeof(uint64_t));
}

/// Expects every load mode to reject the snapshot at `path` with
/// InvalidArgument.
void ExpectRejectedEveryMode(const CondensedNetwork& cn,
                             const std::string& path,
                             const std::string& what) {
  for (const snapshot::LoadMode mode : kAllLoadModes) {
    auto loaded = LoadMethodSnapshot(&cn, path, {.mode = mode});
    ASSERT_FALSE(loaded.ok()) << what << ", mode " << static_cast<int>(mode);
    EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument)
        << what << ": " << loaded.status().ToString();
  }
}

TEST(MethodSnapshotTest, OutOfRangeTreeLeafIdIsRejected) {
  // Every tree-bearing kind in both SCC modes: rewriting one leaf id of
  // its tree section to 2^30 (checksums stay valid) must fail the load,
  // not crash the first count or enum query. The unmodified rewrite
  // loads, so the damage is what fails.
  const GeoSocialNetwork network =
      testing::RandomGeoSocialNetwork(250, 2.5, 0.4, 101);
  const CondensedNetwork cn(&network);
  for (const MethodKind kind :
       {MethodKind::kSpaReachBfl, MethodKind::kSpaReachInt,
        MethodKind::kSpaReachPll, MethodKind::kSpaReachFeline,
        MethodKind::kThreeDReach, MethodKind::kThreeDReachRev}) {
    for (const SccSpatialMode scc_mode :
         {SccSpatialMode::kReplicate, SccSpatialMode::kMbr}) {
      MethodConfig config;
      config.kind = kind;
      config.scc_mode = scc_mode;
      const auto built = CreateMethod(&cn, config);
      const std::string what =
          built->name() + " scc_mode " + std::to_string(static_cast<int>(scc_mode));
      const std::string path = TempPath("method_bad_leaf.snap");
      ASSERT_TRUE(SaveMethodSnapshot(*built, config, cn, path).ok());
      auto sections = AllSections(path);
      const bool spatial_index = kind != MethodKind::kThreeDReach &&
                                 kind != MethodKind::kThreeDReachRev;
      const snapshot::SectionId tree_section =
          spatial_index ? snapshot::SectionId::kSpatialIndex
                        : snapshot::SectionId::kRTree;
      for (auto& [id, payload] : sections) {
        if (id != tree_section) continue;
        size_t count = 0;
        const size_t at =
            TailLeafIdsOffset(payload, spatial_index ? 1 : 0, &count);
        ASSERT_GT(count, 0u) << what;
        WriteSections(path, sections);
        auto control = LoadMethodSnapshot(&cn, path, {});
        ASSERT_TRUE(control.ok()) << what << ": "
                                  << control.status().ToString();
        std::vector<uint64_t> ids = ReadIds(payload, at, count);
        ids[count / 2] = uint64_t{1} << 30;
        WriteIds(payload, at, ids);
      }
      WriteSections(path, sections);
      ExpectRejectedEveryMode(cn, path, what);
    }
  }
}

TEST(MethodSnapshotTest, ReplicateThreeDReachTreeMustMapOntoItsVertices) {
  // A replicate 3DReach tree is accepted only when its leaves are this
  // network's spatial vertices, each once, at its own point: a tree with
  // component ids in its leaves (the earlier layout), two leaves' ids
  // swapped, or one id repeated must all fail the load — top level and
  // inline in a planner's stream.
  const GeoSocialNetwork network =
      testing::RandomGeoSocialNetwork(250, 2.5, 0.4, 101);
  const CondensedNetwork cn(&network);
  MethodConfig config;
  config.kind = MethodKind::kThreeDReach;
  const std::string path = TempPath("method_forged_3d.snap");
  ASSERT_TRUE(
      SaveMethodSnapshot(*CreateMethod(&cn, config), config, cn, path).ok());
  const std::vector<std::byte> tree =
      SectionPayload(path, snapshot::SectionId::kRTree);
  size_t count = 0;
  const size_t tail = TailLeafIdsOffset(tree, 0, &count);
  const std::vector<uint64_t> ids = ReadIds(tree, tail, count);
  ASSERT_EQ(count, network.num_spatial_vertices());

  std::vector<std::pair<std::string, std::vector<uint64_t>>> forgeries;
  std::vector<uint64_t> components = ids;
  for (uint64_t& id : components) {
    id = cn.ComponentOf(static_cast<VertexId>(id));
  }
  ASSERT_NE(components, ids);
  forgeries.emplace_back("component ids", components);
  std::vector<uint64_t> swapped = ids;
  ASSERT_NE(network.PointOf(static_cast<VertexId>(ids[0])),
            network.PointOf(static_cast<VertexId>(ids[1])));
  std::swap(swapped[0], swapped[1]);
  forgeries.emplace_back("swapped ids", swapped);
  std::vector<uint64_t> repeated = ids;
  repeated[1] = repeated[0];
  forgeries.emplace_back("repeated id", repeated);

  MethodConfig planner;
  planner.kind = MethodKind::kPlanner;
  planner.planner.calibration_samples = 0;
  const std::string planner_path = TempPath("method_forged_planner.snap");
  ASSERT_TRUE(SaveMethodSnapshot(*CreateMethod(&cn, planner), planner, cn,
                                 planner_path)
                  .ok());
  // The planner's 3DReach member is the same tree, inline in its stream.
  const std::vector<std::byte> stream =
      SectionPayload(planner_path, snapshot::SectionId::kPlanner);
  const auto* needle = reinterpret_cast<const std::byte*>(ids.data());
  const auto found = std::search(stream.begin(), stream.end(), needle,
                                 needle + count * sizeof(uint64_t));
  ASSERT_NE(found, stream.end());
  const size_t inline_at = static_cast<size_t>(found - stream.begin());

  for (const auto& [what, forged] : forgeries) {
    auto sections = AllSections(path);
    for (auto& [id, payload] : sections) {
      if (id == snapshot::SectionId::kRTree) WriteIds(payload, tail, forged);
    }
    WriteSections(path, sections);
    ExpectRejectedEveryMode(cn, path, "3DReach, " + what);

    auto planner_sections = AllSections(planner_path);
    for (auto& [id, payload] : planner_sections) {
      if (id == snapshot::SectionId::kPlanner) {
        WriteIds(payload, inline_at, forged);
      }
    }
    WriteSections(planner_path, planner_sections);
    ExpectRejectedEveryMode(cn, planner_path, "planner, " + what);
  }
}

TEST(MethodSnapshotTest, ReplicateThreeDReachTreeMustBeOneTree) {
  // Replicate 3DReach counts tree hits without deduplicating them, so a
  // tree whose leaves pass the bijection check but that a descent can
  // reach twice — here the root lists its first child twice — must fail
  // the load, not return a vertex twice.
  const GeoSocialNetwork network =
      testing::RandomGeoSocialNetwork(250, 2.5, 0.4, 101);
  const CondensedNetwork cn(&network);
  MethodConfig config;
  config.kind = MethodKind::kThreeDReach;
  const std::string path = TempPath("method_forged_links.snap");
  ASSERT_TRUE(
      SaveMethodSnapshot(*CreateMethod(&cn, config), config, cn, path).ok());
  auto sections = AllSections(path);
  bool forged = false;
  for (auto& [id, payload] : sections) {
    if (id != snapshot::SectionId::kRTree) continue;
    BinaryReader scan(payload);
    scan.set_array_alignment(snapshot::kPageAlignment);
    uint64_t size = 0;
    int32_t height = 0;
    std::span<const FrozenRTreePoints3D::Node> nodes;
    std::span<const Box3D> child_boxes;
    std::span<const uint32_t> child_nodes;
    ASSERT_TRUE(scan.ReadU64(&size).ok());
    ASSERT_TRUE(scan.ReadI32(&height).ok());
    ASSERT_TRUE(scan.ReadArrayView(&nodes).ok());
    ASSERT_TRUE(scan.ReadArrayView(&child_boxes).ok());
    ASSERT_TRUE(scan.ReadArrayView(&child_nodes).ok());
    ASSERT_GE(child_nodes.size(), 2u);
    const size_t links_at =
        scan.offset() - child_nodes.size() * sizeof(uint32_t);
    const uint32_t first_child = child_nodes[0];
    std::memcpy(payload.data() + links_at + sizeof(uint32_t), &first_child,
                sizeof(first_child));
    forged = true;
  }
  ASSERT_TRUE(forged);
  WriteSections(path, sections);
  ExpectRejectedEveryMode(cn, path, "3DReach, child linked twice");
}

TEST(MethodSnapshotTest, MbrThreeDReachTreeMustMapOntoItsComponents) {
  // MBR 3DReach collects each hit component's members without dedup
  // marks, so its tree is accepted only when the leaves are this
  // network's spatial components, each once, at (MBR, post): a repeated
  // id, two ids swapped, or one box shrunk must all fail the load.
  const GeoSocialNetwork network =
      testing::RandomGeoSocialNetwork(250, 2.5, 0.4, 101);
  const CondensedNetwork cn(&network);
  MethodConfig config;
  config.kind = MethodKind::kThreeDReach;
  config.scc_mode = SccSpatialMode::kMbr;
  const std::string path = TempPath("method_forged_mbr.snap");
  ASSERT_TRUE(
      SaveMethodSnapshot(*CreateMethod(&cn, config), config, cn, path).ok());
  const std::vector<std::byte> tree =
      SectionPayload(path, snapshot::SectionId::kRTree);
  size_t count = 0;
  const size_t tail = TailLeafIdsOffset(tree, 0, &count);
  const std::vector<uint64_t> ids = ReadIds(tree, tail, count);
  ASSERT_GE(count, 2u);

  // The leaf boxes are the array before the ids.
  BinaryReader scan(tree);
  scan.set_array_alignment(snapshot::kPageAlignment);
  uint64_t size = 0;
  int32_t height = 0;
  std::span<const FrozenRTree3D::Node> nodes;
  std::span<const Box3D> child_boxes;
  std::span<const uint32_t> child_nodes;
  std::span<const Box3D> leaf_boxes;
  ASSERT_TRUE(scan.ReadU64(&size).ok());
  ASSERT_TRUE(scan.ReadI32(&height).ok());
  ASSERT_TRUE(scan.ReadArrayView(&nodes).ok());
  ASSERT_TRUE(scan.ReadArrayView(&child_boxes).ok());
  ASSERT_TRUE(scan.ReadArrayView(&child_nodes).ok());
  ASSERT_TRUE(scan.ReadArrayView(&leaf_boxes).ok());
  ASSERT_EQ(leaf_boxes.size(), count);
  const size_t boxes_at = scan.offset() - count * sizeof(Box3D);
  size_t wide = count;  // A leaf with x extent, which shrinking changes.
  for (size_t i = 0; i < count; ++i) {
    if (leaf_boxes[i].min[0] < leaf_boxes[i].max[0]) {
      wide = i;
      break;
    }
  }
  ASSERT_LT(wide, count);

  std::vector<std::pair<std::string, std::vector<std::byte>>> forgeries;
  std::vector<uint64_t> forged = ids;
  forged[1] = forged[0];
  forgeries.emplace_back("repeated id", tree);
  WriteIds(forgeries.back().second, tail, forged);
  forged = ids;
  std::swap(forged[0], forged[1]);
  forgeries.emplace_back("swapped ids", tree);
  WriteIds(forgeries.back().second, tail, forged);
  Box3D shrunk = leaf_boxes[wide];
  shrunk.max[0] = shrunk.min[0];
  forgeries.emplace_back("shrunk box", tree);
  std::memcpy(forgeries.back().second.data() + boxes_at + wide * sizeof(Box3D),
              &shrunk, sizeof(shrunk));

  for (const auto& [what, payload] : forgeries) {
    auto sections = AllSections(path);
    for (auto& [id, section] : sections) {
      if (id == snapshot::SectionId::kRTree) section = payload;
    }
    WriteSections(path, sections);
    ExpectRejectedEveryMode(cn, path, "3DReach (mbr), " + what);
  }
}

TEST(MethodSnapshotTest, LabelThatIsNotSortedAndDisjointIsRejected) {
  // A replicate 3DReach hit is one answer vertex only because a
  // component's label intervals are disjoint: a label repeating one
  // interval must fail the load rather than count its hits twice.
  const GeoSocialNetwork network =
      testing::RandomGeoSocialNetwork(250, 2.5, 0.4, 101);
  const CondensedNetwork cn(&network);
  MethodConfig config;
  config.kind = MethodKind::kThreeDReach;
  const std::string path = TempPath("method_forged_label.snap");
  ASSERT_TRUE(
      SaveMethodSnapshot(*CreateMethod(&cn, config), config, cn, path).ok());
  auto sections = AllSections(path);
  bool forged = false;
  for (auto& [id, payload] : sections) {
    if (id != snapshot::SectionId::kLabeling) continue;
    BinaryReader scan(payload);
    scan.set_array_alignment(snapshot::kPageAlignment);
    auto labeling = IntervalLabeling::Deserialize(scan, BorrowContext{});
    ASSERT_TRUE(labeling.ok()) << labeling.status().ToString();
    // The interval array ends the labeling; find a two-interval label.
    size_t before = 0;
    VertexId c = 0;
    while (c < labeling->num_vertices() && labeling->Labels(c).size() < 2) {
      before += labeling->Labels(c).size();
      ++c;
    }
    ASSERT_LT(c, labeling->num_vertices());
    const size_t at =
        scan.offset() -
        (labeling->flat_store().total_intervals() - before) * sizeof(Interval);
    const Interval first = labeling->Labels(c).intervals()[0];
    std::memcpy(payload.data() + at + sizeof(Interval), &first, sizeof(first));
    forged = true;
  }
  ASSERT_TRUE(forged);
  WriteSections(path, sections);
  ExpectRejectedEveryMode(cn, path, "3DReach, repeated label interval");
}

TEST(MethodSnapshotTest, FingerprintMismatchIsRejected) {
  const GeoSocialNetwork network_a =
      testing::RandomGeoSocialNetwork(150, 2.0, 0.5, 107);
  const GeoSocialNetwork network_b =
      testing::RandomGeoSocialNetwork(151, 2.0, 0.5, 108);
  const CondensedNetwork cn_a(&network_a);
  const CondensedNetwork cn_b(&network_b);

  MethodConfig config;
  config.kind = MethodKind::kSocReach;
  const auto built = CreateMethod(&cn_a, config);
  const std::string path = TempPath("method_fingerprint.snap");
  ASSERT_TRUE(SaveMethodSnapshot(*built, config, cn_a, path).ok());

  auto loaded = LoadMethodSnapshot(&cn_b, path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(loaded.status().message().find("fingerprint"), std::string::npos)
      << loaded.status().ToString();
}

TEST(MethodSnapshotTest, NaiveBfsCannotBeSnapshotted) {
  const GeoSocialNetwork network =
      testing::RandomGeoSocialNetwork(50, 2.0, 0.5, 109);
  const CondensedNetwork cn(&network);
  const NaiveBfsMethod method(&network);
  MethodConfig config;
  config.kind = MethodKind::kNaiveBfs;
  const Status status = SaveMethodSnapshot(
      method, config, cn, TempPath("method_naive.snap"));
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
}

TEST(MethodSnapshotTest, MissingFileFails) {
  const GeoSocialNetwork network =
      testing::RandomGeoSocialNetwork(50, 2.0, 0.5, 110);
  const CondensedNetwork cn(&network);
  auto loaded = LoadMethodSnapshot(&cn, TempPath("no_such_method.snap"));
  EXPECT_FALSE(loaded.ok());
}

TEST(MethodSnapshotTest, SaveToUnwritablePathFails) {
  const GeoSocialNetwork network =
      testing::RandomGeoSocialNetwork(50, 2.0, 0.5, 111);
  const CondensedNetwork cn(&network);
  MethodConfig config;
  config.kind = MethodKind::kSocReach;
  const auto built = CreateMethod(&cn, config);
  const Status status = SaveMethodSnapshot(
      *built, config, cn, TempPath("missing_dir/method.snap"));
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kIoError);
}

}  // namespace
}  // namespace gsr
