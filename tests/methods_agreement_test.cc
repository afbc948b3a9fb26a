#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/check.h"
#include "common/rng.h"
#include "common/simd.h"
#include "core/condensed_network.h"
#include "core/method_factory.h"
#include "core/method_snapshot.h"
#include "core/naive_bfs.h"
#include "datagen/generator.h"
#include "datagen/workload.h"
#include "exec/batch_runner.h"
#include "exec/thread_pool.h"
#include "snapshot/page_cache.h"
#include "tests/test_util.h"

namespace gsr {
namespace {

/// The central correctness property of the whole library: every evaluation
/// method, under both SCC spatial modes, must answer exactly like the
/// index-free BFS ground truth on arbitrary (cyclic) geosocial networks.

struct AgreementCase {
  uint32_t n;
  double density;
  double spatial_fraction;
  uint64_t seed;
};

std::vector<MethodConfig> AllConfigs() {
  std::vector<MethodConfig> configs;
  for (const MethodKind kind :
       {MethodKind::kSpaReachBfl, MethodKind::kSpaReachInt,
        MethodKind::kSpaReachPll, MethodKind::kSpaReachFeline,
        MethodKind::kGeoReach, MethodKind::kSocReach, MethodKind::kThreeDReach,
        MethodKind::kThreeDReachRev, MethodKind::kPlanner}) {
    for (const SccSpatialMode mode :
         {SccSpatialMode::kReplicate, SccSpatialMode::kMbr}) {
      MethodConfig config;
      config.kind = kind;
      config.scc_mode = mode;
      configs.push_back(config);
      // SocReach/GeoReach ignore the mode; keep one instance each.
      if (kind == MethodKind::kSocReach || kind == MethodKind::kGeoReach) {
        break;
      }
    }
  }
  // A second planner portfolio covering the member kinds the default
  // ({BFL, SocReach, 3DReach}) leaves out, so agreement and the snapshot
  // round-trip exercise every inline member representation.
  MethodConfig wide;
  wide.kind = MethodKind::kPlanner;
  wide.planner.portfolio = {
      MethodKind::kSpaReachInt, MethodKind::kSpaReachPll,
      MethodKind::kSpaReachFeline, MethodKind::kGeoReach,
      MethodKind::kThreeDReachRev};
  wide.planner.calibration_samples = 8;  // Keep test builds quick.
  configs.push_back(wide);
  return configs;
}

class MethodsAgreementTest : public ::testing::TestWithParam<AgreementCase> {};

TEST_P(MethodsAgreementTest, AllMethodsMatchNaiveBfs) {
  const AgreementCase& param = GetParam();
  const GeoSocialNetwork network = testing::RandomGeoSocialNetwork(
      param.n, param.density, param.spatial_fraction, param.seed);
  const CondensedNetwork cn(&network);
  const NaiveBfsMethod oracle(&network);

  std::vector<std::unique_ptr<RangeReachMethod>> methods;
  for (const MethodConfig& config : AllConfigs()) {
    methods.push_back(CreateMethod(&cn, config));
  }

  Rng rng(param.seed ^ 0xABCDEF);
  for (int q = 0; q < 150; ++q) {
    const VertexId v =
        static_cast<VertexId>(rng.NextBounded(network.num_vertices()));
    const double x = rng.NextDoubleInRange(-10, 100);
    const double y = rng.NextDoubleInRange(-10, 100);
    const Rect region(x, y, x + rng.NextDoubleInRange(0, 60),
                      y + rng.NextDoubleInRange(0, 60));
    const bool expected = oracle.Evaluate(v, region);
    for (const auto& method : methods) {
      ASSERT_EQ(method->Evaluate(v, region), expected)
          << method->name() << " disagrees on vertex " << v << " region "
          << region.ToString();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    RandomNetworks, MethodsAgreementTest,
    ::testing::Values(
        AgreementCase{30, 1.5, 0.5, 1}, AgreementCase{60, 2.0, 0.3, 2},
        AgreementCase{100, 3.0, 0.4, 3}, AgreementCase{100, 1.0, 0.2, 4},
        AgreementCase{200, 2.5, 0.5, 5}, AgreementCase{200, 4.0, 0.1, 6},
        AgreementCase{400, 2.0, 0.3, 7}, AgreementCase{50, 5.0, 0.8, 8},
        AgreementCase{150, 0.5, 0.6, 9}, AgreementCase{300, 3.5, 0.25, 10}));

TEST(MethodsAgreementTest, SyntheticDatasetsBothRegimes) {
  // Exercise the generator's two regimes end to end, smaller scale.
  for (const double core_fraction : {1.0, 0.5}) {
    GeneratorConfig config;
    config.num_users = 300;
    config.num_venues = 500;
    config.num_friendships = 1500;
    config.num_checkins = 2500;
    config.core_fraction = core_fraction;
    config.seed = 777;
    const GeoSocialNetwork network = GenerateGeoSocialNetwork(config);
    const CondensedNetwork cn(&network);
    const NaiveBfsMethod oracle(&network);

    std::vector<std::unique_ptr<RangeReachMethod>> methods;
    for (const MethodConfig& method_config : AllConfigs()) {
      methods.push_back(CreateMethod(&cn, method_config));
    }

    WorkloadGenerator workload(&network, 99);
    QuerySpec spec;
    spec.count = 100;
    spec.min_out_degree = 1;
    spec.max_out_degree = 1u << 30;
    for (const RangeReachQuery& query : workload.Generate(spec)) {
      const bool expected = oracle.EvaluateQuery(query);
      for (const auto& method : methods) {
        ASSERT_EQ(method->EvaluateQuery(query), expected)
            << method->name() << " core_fraction=" << core_fraction;
      }
    }
  }
}

TEST(MethodsAgreementTest, EmptyRegionIsAlwaysFalse) {
  const GeoSocialNetwork network =
      testing::RandomGeoSocialNetwork(50, 2.0, 0.5, 42);
  const CondensedNetwork cn(&network);
  for (const MethodConfig& config : AllConfigs()) {
    const auto method = CreateMethod(&cn, config);
    for (VertexId v = 0; v < network.num_vertices(); v += 5) {
      EXPECT_FALSE(method->Evaluate(v, Rect())) << method->name();
    }
  }
}

TEST(MethodsAgreementTest, QueryVertexItselfSpatial) {
  // A spatial query vertex inside R must yield TRUE (paths of length 0).
  GraphBuilder builder;
  builder.ReserveVertices(2);
  builder.AddEdge(0, 1);
  auto graph = builder.Build();
  ASSERT_TRUE(graph.ok());
  std::vector<std::optional<Point2D>> points(2);
  points[0] = Point2D{5, 5};
  auto network = GeoSocialNetwork::Create(std::move(graph).value(), points);
  ASSERT_TRUE(network.ok());
  const CondensedNetwork cn(&*network);
  for (const MethodConfig& config : AllConfigs()) {
    const auto method = CreateMethod(&cn, config);
    EXPECT_TRUE(method->Evaluate(0, Rect(0, 0, 10, 10))) << method->name();
    EXPECT_FALSE(method->Evaluate(1, Rect(0, 0, 10, 10))) << method->name();
  }
}

TEST(MethodsAgreementTest, SnapshotLoadedMethodsMatchNaiveBfs) {
  // The snapshot guarantee: a method loaded from disk — zero-copy mmap
  // or the explicitly-cached paged path — answers exactly like the ground
  // truth, i.e. exactly like the instance it was saved from. The paged
  // instances here also prove the lifetime contract: the LoadedMethod's
  // page_cache handle is dropped immediately, and the method keeps
  // answering through the shared_ptr its paged arrays hold.
  const GeoSocialNetwork network =
      testing::RandomGeoSocialNetwork(200, 2.5, 0.4, 77);
  const CondensedNetwork cn(&network);
  const NaiveBfsMethod oracle(&network);

  std::string dir = ::testing::TempDir();
  if (!dir.empty() && dir.back() != '/') dir += '/';

  std::vector<std::unique_ptr<RangeReachMethod>> methods;
  int config_index = 0;
  for (const MethodConfig& config : AllConfigs()) {
    const auto built = CreateMethod(&cn, config);
    const std::string path =
        dir + "agreement_" + std::to_string(config_index++) + ".snap";
    ASSERT_TRUE(SaveMethodSnapshot(*built, config, cn, path).ok())
        << built->name();
    for (const snapshot::LoadMode mode :
         {snapshot::LoadMode::kMmap, snapshot::LoadMode::kPaged}) {
      auto loaded = LoadMethodSnapshot(&cn, path, {.mode = mode});
      ASSERT_TRUE(loaded.ok())
          << built->name() << ": " << loaded.status().ToString();
      methods.push_back(std::move(loaded->method));
    }
  }

  Rng rng(0xFEED);
  for (int q = 0; q < 150; ++q) {
    const VertexId v =
        static_cast<VertexId>(rng.NextBounded(network.num_vertices()));
    const double x = rng.NextDoubleInRange(-10, 100);
    const double y = rng.NextDoubleInRange(-10, 100);
    const Rect region(x, y, x + rng.NextDoubleInRange(0, 60),
                      y + rng.NextDoubleInRange(0, 60));
    const bool expected = oracle.Evaluate(v, region);
    for (const auto& method : methods) {
      ASSERT_EQ(method->Evaluate(v, region), expected)
          << "snapshot-loaded " << method->name() << " disagrees on vertex "
          << v << " region " << region.ToString();
    }
  }
}

/// 40 random queries of every kind against the BFS ground truth, for a
/// kPaged-loaded method under `budget`.
void ExpectPagedAnswersExact(const RangeReachMethod& method,
                             const NaiveBfsMethod& oracle,
                             const GeoSocialNetwork& network, uint64_t seed,
                             size_t budget) {
  Rng rng(seed);
  for (int q = 0; q < 40; ++q) {
    const VertexId v =
        static_cast<VertexId>(rng.NextBounded(network.num_vertices()));
    const double x = rng.NextDoubleInRange(-10, 100);
    const double y = rng.NextDoubleInRange(-10, 100);
    const Rect region(x, y, x + rng.NextDoubleInRange(0, 60),
                      y + rng.NextDoubleInRange(0, 60));
    ASSERT_EQ(method.Evaluate(v, region), oracle.Evaluate(v, region))
        << method.name() << " budget " << budget << " vertex " << v
        << " region " << region.ToString();
    ASSERT_EQ(method.EvaluateCount(v, region),
              oracle.EvaluateCount(v, region))
        << method.name() << " budget " << budget;
    ASSERT_EQ(method.EvaluateEnum(v, region), oracle.EvaluateEnum(v, region))
        << method.name() << " budget " << budget;
  }
}

TEST(MethodsAgreementTest, PagedTinyCacheBudgetsStayExactUnderEviction) {
  // The out-of-core guarantee: kPaged answers bit-identically to the
  // ground truth even when the cache budget is far below the index size,
  // so every descent and label probe churns through real evictions. Also
  // covers the collection kinds — count/enum force full traversals, which
  // is where a paging bug (stale frame, bad bounce copy) would surface.
  const GeoSocialNetwork network =
      testing::RandomGeoSocialNetwork(400, 2.5, 0.4, 177);
  const CondensedNetwork cn(&network);
  const NaiveBfsMethod oracle(&network);

  std::string dir = ::testing::TempDir();
  if (!dir.empty() && dir.back() != '/') dir += '/';

  snapshot::PageCache::Stats total;
  int config_index = 0;
  for (const MethodConfig& config : AllConfigs()) {
    const auto built = CreateMethod(&cn, config);
    const std::string path =
        dir + "paged_tiny_" + std::to_string(config_index++) + ".snap";
    ASSERT_TRUE(SaveMethodSnapshot(*built, config, cn, path).ok())
        << built->name();
    // 16 KiB (the clamp floor of 4 frames) and 64 KiB — both far below
    // any of these indexes, so frames recycle constantly.
    for (const size_t budget : {size_t{16} << 10, size_t{64} << 10}) {
      auto loaded = LoadMethodSnapshot(
          &cn, path,
          {.mode = snapshot::LoadMode::kPaged, .page_cache_bytes = budget});
      ASSERT_TRUE(loaded.ok())
          << built->name() << ": " << loaded.status().ToString();
      ASSERT_NE(loaded->page_cache, nullptr) << built->name();

      ASSERT_NO_FATAL_FAILURE(ExpectPagedAnswersExact(
          *loaded->method, oracle, network, 0xBADB00C + config_index,
          budget));

      const snapshot::PageCache::Stats stats =
          loaded->page_cache->GetStats();
      total.hits += stats.hits;
      total.misses += stats.misses;
      total.evictions += stats.evictions;
      total.bypass_reads += stats.bypass_reads;
    }
  }
  // The cache actually served the queries — and had to recycle frames.
  EXPECT_GT(total.hits, 0u);
  EXPECT_GT(total.misses, 0u);
  EXPECT_GT(total.evictions, 0u);

  // An 8-page budget keeps a one-page resident slice: on this larger
  // network it holds the top of each tree but not the whole node array,
  // so descents cross from resident node records into pinned frames.
  const GeoSocialNetwork large =
      testing::RandomGeoSocialNetwork(3000, 2.5, 0.5, 178);
  const CondensedNetwork large_cn(&large);
  const NaiveBfsMethod large_oracle(&large);
  const size_t budget = 8 * snapshot::kPageAlignment;
  int partial = 0;
  for (const MethodConfig& config : AllConfigs()) {
    const auto built = CreateMethod(&large_cn, config);
    const std::string path =
        dir + "paged_prefix_" + std::to_string(config_index++) + ".snap";
    ASSERT_TRUE(SaveMethodSnapshot(*built, config, large_cn, path).ok())
        << built->name();
    auto full = LoadMethodSnapshot(&large_cn, path,
                                   {.mode = snapshot::LoadMode::kPaged});
    ASSERT_TRUE(full.ok()) << built->name() << ": "
                           << full.status().ToString();
    auto loaded = LoadMethodSnapshot(
        &large_cn, path,
        {.mode = snapshot::LoadMode::kPaged, .page_cache_bytes = budget});
    ASSERT_TRUE(loaded.ok())
        << built->name() << ": " << loaded.status().ToString();
    EXPECT_LE(loaded->resident_bytes + loaded->page_cache->budget_bytes(),
              budget)
        << built->name();
    if (full->resident_bytes > budget / 8) {
      EXPECT_GT(loaded->resident_bytes, 0u) << built->name();
      EXPECT_LT(loaded->resident_bytes, full->resident_bytes)
          << built->name();
      ++partial;
    } else {
      EXPECT_EQ(loaded->resident_bytes, full->resident_bytes)
          << built->name();
    }
    ASSERT_NO_FATAL_FAILURE(ExpectPagedAnswersExact(
        *loaded->method, large_oracle, large, 0xBADB00C + config_index,
        budget));
  }
  EXPECT_GT(partial, 0);
}

TEST(MethodsAgreementTest, AllKernelLevelsMatchNaiveBfs) {
  // The SIMD contract: every method answers bit-identically to the BFS
  // ground truth whichever kernel level (scalar / AVX2) is forced.
  // Levels above what this machine supports clamp down, so the loop is
  // safe everywhere and exercises every level the host has.
  const GeoSocialNetwork network =
      testing::RandomGeoSocialNetwork(250, 2.5, 0.4, 31);
  const CondensedNetwork cn(&network);
  const NaiveBfsMethod oracle(&network);

  std::vector<std::unique_ptr<RangeReachMethod>> methods;
  for (const MethodConfig& config : AllConfigs()) {
    methods.push_back(CreateMethod(&cn, config));
  }

  for (const simd::KernelLevel level :
       {simd::KernelLevel::kScalar, simd::KernelLevel::kAvx2}) {
    simd::ScopedKernelLevel scoped(level);
    Rng rng(0xC0DE);  // Same query stream at every level.
    for (int q = 0; q < 120; ++q) {
      const VertexId v =
          static_cast<VertexId>(rng.NextBounded(network.num_vertices()));
      const double x = rng.NextDoubleInRange(-10, 100);
      const double y = rng.NextDoubleInRange(-10, 100);
      const Rect region(x, y, x + rng.NextDoubleInRange(0, 60),
                        y + rng.NextDoubleInRange(0, 60));
      const bool expected = oracle.Evaluate(v, region);
      for (const auto& method : methods) {
        ASSERT_EQ(method->Evaluate(v, region), expected)
            << method->name() << " disagrees at kernel level "
            << simd::KernelLevelName(simd::ActiveLevel()) << " on vertex "
            << v << " region " << region.ToString();
      }
    }
  }
}

TEST(MethodsAgreementTest, SchedulerSharedExecutionMatchesSerial) {
  // The work-sharing scheduler's core promise: RunShared (grouped
  // EvaluateGroup execution) answers bit-identically to the serial
  // Evaluate loop — for every method and SCC mode, at every thread count
  // and forced kernel level. The workload is skewed (hot query vertices
  // re-issuing pooled regions) so real multi-member groups, duplicate
  // collapse and 64-slot splitting all actually execute.
  const GeoSocialNetwork network =
      testing::RandomGeoSocialNetwork(220, 2.5, 0.4, 91);
  const CondensedNetwork cn(&network);

  WorkloadGenerator workload(&network, 321);
  QuerySpec spec;
  spec.count = 250;
  spec.min_out_degree = 0;
  spec.max_out_degree = 1u << 30;
  spec.vertex_zipf = 1.1;
  spec.regions_per_vertex = 3;
  const std::vector<RangeReachQuery> queries = workload.Generate(spec);

  for (const MethodConfig& config : AllConfigs()) {
    const auto method = CreateMethod(&cn, config);
    std::vector<uint8_t> serial;
    serial.reserve(queries.size());
    for (const RangeReachQuery& query : queries) {
      serial.push_back(method->EvaluateQuery(query) ? 1 : 0);
    }

    for (const unsigned threads :
         {1u, 4u, exec::ThreadPool::DefaultThreads()}) {
      exec::ThreadPool pool(threads);
      exec::BatchRunner runner(&pool);
      for (const simd::KernelLevel level :
           {simd::KernelLevel::kScalar, simd::KernelLevel::kAvx2}) {
        simd::ScopedKernelLevel scoped(level);
        // Force grouping: 250 queries sit below the adaptive small-window
        // bypass, which would run the per-query path we are not testing.
        exec::SchedulerOptions options;
        options.min_window_to_group = 1;
        const exec::BatchResult shared =
            runner.RunShared(*method, queries, options);
        ASSERT_EQ(shared.answers, serial)
            << method->name() << " diverges under the scheduler at "
            << threads << " threads, kernel level "
            << simd::KernelLevelName(simd::ActiveLevel());
      }
    }
  }
}

TEST_P(MethodsAgreementTest, CountEnumAndAnyReachMatchNaiveBfs) {
  // The collection contract extends the boolean one: for every method
  // and SCC mode, RangeReachCount / RangeReachEnum / AnyReach must equal
  // the index-free BFS ground truth — same sets, not just same booleans.
  const AgreementCase& param = GetParam();
  const GeoSocialNetwork network = testing::RandomGeoSocialNetwork(
      param.n, param.density, param.spatial_fraction, param.seed);
  const CondensedNetwork cn(&network);
  const NaiveBfsMethod oracle(&network);

  std::vector<std::unique_ptr<RangeReachMethod>> methods;
  for (const MethodConfig& config : AllConfigs()) {
    methods.push_back(CreateMethod(&cn, config));
  }

  Rng rng(param.seed ^ 0x5EED);
  for (int q = 0; q < 80; ++q) {
    const VertexId v =
        static_cast<VertexId>(rng.NextBounded(network.num_vertices()));
    const double x = rng.NextDoubleInRange(-10, 100);
    const double y = rng.NextDoubleInRange(-10, 100);
    const Rect region(x, y, x + rng.NextDoubleInRange(0, 60),
                      y + rng.NextDoubleInRange(0, 60));
    const std::vector<VertexId> expected_enum = oracle.EvaluateEnum(v, region);
    const uint64_t expected_count = oracle.EvaluateCount(v, region);
    ASSERT_EQ(expected_count, expected_enum.size());

    std::vector<VertexId> sources;
    for (int s = 0; s < 4; ++s) {
      sources.push_back(
          static_cast<VertexId>(rng.NextBounded(network.num_vertices())));
    }
    const bool expected_any = oracle.EvaluateAny(sources, region);

    for (const auto& method : methods) {
      ASSERT_EQ(method->EvaluateCount(v, region), expected_count)
          << method->name() << " count disagrees on vertex " << v
          << " region " << region.ToString();
      ASSERT_EQ(method->EvaluateEnum(v, region), expected_enum)
          << method->name() << " enum disagrees on vertex " << v
          << " region " << region.ToString();
      ASSERT_EQ(method->EvaluateAny(sources, region), expected_any)
          << method->name() << " AnyReach disagrees on region "
          << region.ToString();
    }
  }
}

TEST(MethodsAgreementTest, CountEnumMatrixMatchesOracleEverywhere) {
  // The full execution matrix for the collection kinds: every method
  // config x {1, 4, max} threads x every forced kernel level x scheduler
  // off/on must produce the oracle's exact counts and (sorted) result
  // sets. The workload is skewed so the scheduler's grouped collection
  // (multi-member groups, duplicate collapse) actually executes.
  const GeoSocialNetwork network =
      testing::RandomGeoSocialNetwork(200, 2.5, 0.4, 137);
  const CondensedNetwork cn(&network);
  const NaiveBfsMethod oracle(&network);

  WorkloadGenerator workload(&network, 555);
  QuerySpec spec;
  spec.count = 120;
  spec.min_out_degree = 0;
  spec.max_out_degree = 1u << 30;
  spec.vertex_zipf = 1.1;
  spec.regions_per_vertex = 3;
  const std::vector<RangeReachQuery> queries = workload.Generate(spec);

  std::vector<uint64_t> expected_counts;
  std::vector<std::vector<VertexId>> expected_enums;
  for (const RangeReachQuery& query : queries) {
    expected_counts.push_back(
        oracle.EvaluateCount(query.vertex, query.region));
    expected_enums.push_back(oracle.EvaluateEnum(query.vertex, query.region));
  }

  for (const MethodConfig& config : AllConfigs()) {
    const auto method = CreateMethod(&cn, config);
    for (const unsigned threads :
         {1u, 4u, exec::ThreadPool::DefaultThreads()}) {
      exec::ThreadPool pool(threads);
      exec::BatchRunner runner(&pool);
      for (const simd::KernelLevel level :
           {simd::KernelLevel::kScalar, simd::KernelLevel::kAvx2}) {
        simd::ScopedKernelLevel scoped(level);
        const std::string where =
            method->name() + " at " + std::to_string(threads) +
            " threads, kernel level " +
            simd::KernelLevelName(simd::ActiveLevel());

        exec::BatchOptions batch;
        batch.kind = QueryKind::kCount;
        ASSERT_EQ(runner.Run(*method, queries, batch).counts,
                  expected_counts)
            << where << " (batch count)";
        batch.kind = QueryKind::kEnum;
        ASSERT_EQ(runner.Run(*method, queries, batch).enums, expected_enums)
            << where << " (batch enum)";

        exec::SchedulerOptions shared;
        shared.min_window_to_group = 1;  // Force the grouped path.
        shared.kind = QueryKind::kCount;
        ASSERT_EQ(runner.RunShared(*method, queries, shared).counts,
                  expected_counts)
            << where << " (scheduler count)";
        shared.kind = QueryKind::kEnum;
        ASSERT_EQ(runner.RunShared(*method, queries, shared).enums,
                  expected_enums)
            << where << " (scheduler enum)";
      }
    }
  }
}

/// One giant SCC (the even ids below 300, most of them spatial) between
/// singleton components: odd ids below 100 feed into it, it feeds the
/// odd ids from 100 up, and ids 300+ hang off those as a chain. A
/// component-id index meets the giant SCC through many entries, which is
/// where a lost dedup or a double emit shows in count and enum answers.
GeoSocialNetwork GiantSccNetwork() {
  Rng rng(0x61A27);
  GraphBuilder builder;
  builder.ReserveVertices(400);
  std::vector<VertexId> giant;
  for (VertexId v = 0; v < 300; v += 2) giant.push_back(v);
  for (size_t i = 0; i < giant.size(); ++i) {
    builder.AddEdge(giant[i], giant[(i + 1) % giant.size()]);
    builder.AddEdge(giant[i], giant[rng.NextBounded(giant.size())]);
  }
  for (VertexId v = 1; v < 300; v += 2) {
    const VertexId g = giant[rng.NextBounded(giant.size())];
    if (v < 100) {
      builder.AddEdge(v, g);
    } else {
      builder.AddEdge(g, v);
      builder.AddEdge(v, 300 + static_cast<VertexId>(rng.NextBounded(100)));
    }
  }
  for (VertexId v = 300; v + 1 < 400; ++v) builder.AddEdge(v, v + 1);
  auto graph = builder.Build();
  GSR_CHECK(graph.ok());
  std::vector<std::optional<Point2D>> points(400);
  for (VertexId v = 0; v < 400; ++v) {
    const bool spatial = v < 300 && v % 2 == 0 ? v % 14 != 0
                                               : rng.NextBernoulli(0.7);
    if (spatial) {
      points[v] = Point2D{rng.NextDoubleInRange(0, 100),
                          rng.NextDoubleInRange(0, 100)};
    }
  }
  auto network = GeoSocialNetwork::Create(std::move(graph).value(), points);
  GSR_CHECK(network.ok());
  return std::move(network).value();
}

TEST(MethodsAgreementTest, GiantSccCountAndEnumMatchNaiveBfs) {
  // 3DReach in both SCC modes and the default planner, built and loaded
  // in every mode, against the oracle on the giant-SCC network: per
  // query through Run, grouped through RunShared, and straight through
  // CollectGroupInto with 12 regions per vertex, past the masked grouped
  // path's minimum group size.
  const GeoSocialNetwork network = GiantSccNetwork();
  const CondensedNetwork cn(&network);
  ASSERT_LT(cn.num_components(), network.num_vertices() - 100);
  const NaiveBfsMethod oracle(&network);

  constexpr size_t kRegionsPerVertex = 12;
  const VertexId query_vertices[] = {1, 7, 51, 99, 0, 2, 150, 298,
                                     101, 203, 299, 300, 350};
  Rng rng(0xC0117);
  std::vector<RangeReachQuery> queries;
  for (const VertexId v : query_vertices) {
    queries.push_back({v, Rect(-1, -1, 101, 101)});
    for (size_t k = 1; k < kRegionsPerVertex; ++k) {
      const double x = rng.NextDoubleInRange(-10, 100);
      const double y = rng.NextDoubleInRange(-10, 100);
      queries.push_back({v, Rect(x, y, x + rng.NextDoubleInRange(0, 70),
                                 y + rng.NextDoubleInRange(0, 70))});
    }
    queries.push_back(queries[queries.size() - 3]);  // A duplicate region.
  }
  std::vector<uint64_t> expected_counts;
  std::vector<std::vector<VertexId>> expected_enums;
  for (const RangeReachQuery& query : queries) {
    expected_counts.push_back(
        oracle.EvaluateCount(query.vertex, query.region));
    expected_enums.push_back(oracle.EvaluateEnum(query.vertex, query.region));
  }
  ASSERT_GT(*std::max_element(expected_counts.begin(), expected_counts.end()),
            100u);

  std::vector<MethodConfig> configs;
  for (const MethodKind kind : {MethodKind::kThreeDReach, MethodKind::kPlanner}) {
    for (const SccSpatialMode mode :
         {SccSpatialMode::kReplicate, SccSpatialMode::kMbr}) {
      MethodConfig config;
      config.kind = kind;
      config.scc_mode = mode;
      config.planner.calibration_samples = 8;
      configs.push_back(config);
    }
  }
  std::string dir = ::testing::TempDir();
  if (!dir.empty() && dir.back() != '/') dir += '/';
  exec::ThreadPool pool(2);
  exec::BatchRunner runner(&pool);
  int config_index = 0;
  for (const MethodConfig& config : configs) {
    std::vector<std::unique_ptr<RangeReachMethod>> methods;
    methods.push_back(CreateMethod(&cn, config));
    const std::string path =
        dir + "giant_scc_" + std::to_string(config_index++) + ".snap";
    ASSERT_TRUE(SaveMethodSnapshot(*methods[0], config, cn, path).ok());
    for (const snapshot::LoadMode mode :
         {snapshot::LoadMode::kMmap, snapshot::LoadMode::kPaged}) {
      auto loaded = LoadMethodSnapshot(&cn, path, {.mode = mode});
      ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
      methods.push_back(std::move(loaded->method));
    }
    for (size_t m = 0; m < methods.size(); ++m) {
      const RangeReachMethod& method = *methods[m];
      const std::string where =
          method.name() + (m == 0 ? " built" : " loaded, mode " +
                                                   std::to_string(m - 1));
      exec::BatchOptions batch;
      batch.kind = QueryKind::kCount;
      ASSERT_EQ(runner.Run(method, queries, batch).counts, expected_counts)
          << where << " (batch count)";
      batch.kind = QueryKind::kEnum;
      ASSERT_EQ(runner.Run(method, queries, batch).enums, expected_enums)
          << where << " (batch enum)";
      exec::SchedulerOptions shared;
      shared.min_window_to_group = 1;
      shared.kind = QueryKind::kCount;
      ASSERT_EQ(runner.RunShared(method, queries, shared).counts,
                expected_counts)
          << where << " (scheduler count)";
      shared.kind = QueryKind::kEnum;
      ASSERT_EQ(runner.RunShared(method, queries, shared).enums,
                expected_enums)
          << where << " (scheduler enum)";

      const auto scratch = method.NewScratch();
      for (size_t base = 0; base < queries.size();
           base += kRegionsPerVertex + 1) {
        std::vector<Rect> regions;
        std::vector<std::vector<VertexId>> arenas(kRegionsPerVertex);
        std::vector<ResultSink> sinks;
        for (size_t k = 0; k < kRegionsPerVertex; ++k) {
          regions.push_back(queries[base + k].region);
          sinks.push_back(ResultSink::Enum(&arenas[k]));
        }
        method.CollectGroupInto(queries[base].vertex, regions, sinks,
                                *scratch);
        for (size_t k = 0; k < kRegionsPerVertex; ++k) {
          sinks[k].Finalize();
          ASSERT_EQ(arenas[k], expected_enums[base + k])
              << where << " (CollectGroupInto) vertex "
              << queries[base].vertex << " region " << k;
        }
      }
    }
  }
}

TEST(MethodsAgreementTest, AnyReachMatrixMatchesOracleEverywhere) {
  // Same matrix for multi-source AnyReach through BatchRunner::RunAny.
  const GeoSocialNetwork network =
      testing::RandomGeoSocialNetwork(200, 2.5, 0.4, 149);
  const CondensedNetwork cn(&network);
  const NaiveBfsMethod oracle(&network);

  WorkloadGenerator workload(&network, 777);
  QuerySpec spec;
  spec.count = 100;
  spec.min_out_degree = 0;
  spec.max_out_degree = 1u << 30;
  spec.kind = WorkloadKind::kAnyOfK;
  spec.any_k = 4;
  const std::vector<AnyReachQuery> queries = workload.GenerateAnyReach(spec);

  std::vector<uint8_t> expected;
  for (const AnyReachQuery& query : queries) {
    expected.push_back(oracle.EvaluateAnyQuery(query) ? 1 : 0);
  }

  for (const MethodConfig& config : AllConfigs()) {
    const auto method = CreateMethod(&cn, config);
    for (const unsigned threads :
         {1u, 4u, exec::ThreadPool::DefaultThreads()}) {
      exec::ThreadPool pool(threads);
      exec::BatchRunner runner(&pool);
      for (const simd::KernelLevel level :
           {simd::KernelLevel::kScalar, simd::KernelLevel::kAvx2}) {
        simd::ScopedKernelLevel scoped(level);
        ASSERT_EQ(runner.RunAny(*method, queries).answers, expected)
            << method->name() << " AnyReach diverges at " << threads
            << " threads, kernel level "
            << simd::KernelLevelName(simd::ActiveLevel());
      }
    }
  }
}

TEST(MethodsAgreementTest, IndexSizesArePositive) {
  const GeoSocialNetwork network =
      testing::RandomGeoSocialNetwork(100, 2.0, 0.5, 55);
  const CondensedNetwork cn(&network);
  for (const MethodConfig& config : AllConfigs()) {
    const auto method = CreateMethod(&cn, config);
    EXPECT_GT(method->IndexSizeBytes(), 0u) << method->name();
    EXPECT_FALSE(method->name().empty());
  }
}

}  // namespace
}  // namespace gsr
