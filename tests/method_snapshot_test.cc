#include <gtest/gtest.h>

#include <cstddef>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <memory>
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
#include "snapshot/page_cache.h"
#include "tests/test_util.h"

namespace gsr {
namespace {

/// Save/load round trips for every snapshot-able method. The loaded
/// instance must answer every query exactly like the built one — in
/// owned-copy mode, in zero-copy mmap mode, and in explicitly-cached
/// paged mode.

std::string TempPath(const std::string& name) {
  std::string dir = ::testing::TempDir();
  if (!dir.empty() && dir.back() != '/') dir += '/';
  return dir + name;
}

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
         {snapshot::LoadMode::kOwnedCopy, snapshot::LoadMode::kMmap,
          snapshot::LoadMode::kPaged}) {
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

TEST(MethodSnapshotTest, RoundTripWithThreadPool) {
  const GeoSocialNetwork network =
      testing::RandomGeoSocialNetwork(150, 2.0, 0.5, 103);
  const CondensedNetwork cn(&network);
  exec::ThreadPool pool(2);

  MethodConfig config;
  config.kind = MethodKind::kThreeDReach;
  const auto built = CreateMethod(&cn, config);
  const std::string path = TempPath("method_pool.snap");
  ASSERT_TRUE(SaveMethodSnapshot(*built, config, cn, path, &pool).ok());
  auto loaded = LoadMethodSnapshot(
      &cn, path, {.mode = snapshot::LoadMode::kOwnedCopy, .pool = &pool});
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ExpectIdenticalAnswers(*built, *loaded->method, network, 204);
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

/// Every snapshot-able kind in both SCC modes, then a planner over all
/// eight kinds in each mode (no calibration, so its cost models are the
/// deterministic defaults).
std::vector<MethodConfig> GoldenConfigs() {
  std::vector<MethodConfig> configs;
  const std::vector<MethodKind> kinds = {
      MethodKind::kSpaReachBfl,    MethodKind::kSpaReachInt,
      MethodKind::kSpaReachPll,    MethodKind::kSpaReachFeline,
      MethodKind::kGeoReach,       MethodKind::kSocReach,
      MethodKind::kThreeDReach,    MethodKind::kThreeDReachRev};
  for (const SccSpatialMode mode :
       {SccSpatialMode::kReplicate, SccSpatialMode::kMbr}) {
    for (const MethodKind kind : kinds) {
      MethodConfig config;
      config.kind = kind;
      config.scc_mode = mode;
      configs.push_back(config);
    }
  }
  for (const SccSpatialMode mode :
       {SccSpatialMode::kReplicate, SccSpatialMode::kMbr}) {
    MethodConfig config;
    config.kind = MethodKind::kPlanner;
    config.scc_mode = mode;
    config.planner.portfolio = kinds;
    config.planner.calibration_samples = 0;
    configs.push_back(config);
  }
  return configs;
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
      0xa44651333d73a8b9ull, 0x460508e9ddc21a99ull,
      0x2ef7a7838dd3d8ebull, 0xe4ac7312a0a2da8bull,
      0x16e99a8b2e812e89ull, 0xcddb7c1551ccd343ull,
      0x1e8385039f911715ull, 0xb0002ac3c7ef0dbbull,
      0x47fa4de0a3171f3eull, 0x69a2a0083be877e3ull,
      0xd415ea8e1ca2943dull, 0x25dd95bc7a85433aull};
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

/// Raw payload of section `id` of the snapshot file at `path`.
std::vector<std::byte> SectionPayload(const std::string& path,
                                      snapshot::SectionId id) {
  auto reader = snapshot::SnapshotReader::Open(path);
  GSR_CHECK(reader.ok());
  auto section = reader->Section(id);
  GSR_CHECK(section.ok());
  std::vector<std::byte> bytes(section->remaining());
  for (std::byte& b : bytes) GSR_CHECK(section->ReadPod(&b).ok());
  return bytes;
}

/// Writes a well-formed snapshot file (valid header, table and checksums)
/// holding exactly `sections`, so the method loader, not the container,
/// is what meets the damage.
void WriteSections(
    const std::string& path,
    const std::vector<std::pair<snapshot::SectionId, std::vector<std::byte>>>&
        sections) {
  snapshot::SnapshotWriter writer;
  for (const auto& [id, bytes] : sections) {
    writer.BeginSection(id).WriteBytes(bytes.data(), bytes.size());
  }
  GSR_CHECK(writer.WriteFile(path).ok());
}

constexpr snapshot::LoadMode kAllLoadModes[] = {
    snapshot::LoadMode::kOwnedCopy, snapshot::LoadMode::kMmap,
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
