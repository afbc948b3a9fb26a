#include "exec/query_scheduler.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/method_factory.h"
#include "core/soc_reach.h"
#include "datagen/workload.h"
#include "exec/batch_runner.h"
#include "exec/query_group.h"
#include "exec/thread_pool.h"
#include "tests/test_util.h"

namespace gsr {
namespace {

/// Correctness of the work-sharing scheduler around the EvaluateGroup
/// hook: grouping, windowing, dedup and error isolation. The bit-identity
/// of grouped answers across all methods, thread counts and kernel levels
/// lives in methods_agreement_test; this file covers the scheduler's own
/// edge cases.

std::vector<RangeReachQuery> SkewedWorkload(const GeoSocialNetwork& network,
                                            uint32_t count, uint64_t seed) {
  WorkloadGenerator workload(&network, seed);
  QuerySpec spec;
  spec.count = count;
  spec.min_out_degree = 0;
  spec.max_out_degree = 1u << 30;
  // Hot vertices re-issuing pooled regions, so grouping and dedup both
  // actually fire.
  spec.vertex_zipf = 1.1;
  spec.regions_per_vertex = 3;
  return workload.Generate(spec);
}

std::vector<uint8_t> SerialAnswers(const RangeReachMethod& method,
                                   const std::vector<RangeReachQuery>& queries) {
  std::vector<uint8_t> answers;
  answers.reserve(queries.size());
  for (const RangeReachQuery& query : queries) {
    answers.push_back(method.EvaluateQuery(query) ? 1 : 0);
  }
  return answers;
}

/// Trivial deterministic method for scheduler-mechanics tests: TRUE iff
/// the region contains the point (vertex, vertex). Throws on a poison
/// vertex to exercise error isolation; counts Evaluate calls so tests can
/// see that sibling groups still ran.
class ThrowingMethod : public RangeReachMethod {
 public:
  static constexpr VertexId kPoison = 7;

  bool Evaluate(VertexId vertex, const Rect& region,
                QueryScratch& scratch) const override {
    (void)scratch;
    if (vertex == kPoison) throw std::runtime_error("poison vertex");
    evaluations.fetch_add(1, std::memory_order_relaxed);
    return region.Contains(Point2D{static_cast<double>(vertex),
                                   static_cast<double>(vertex)});
  }
  std::string name() const override { return "Throwing"; }
  size_t IndexSizeBytes() const override { return 1; }

  mutable std::atomic<size_t> evaluations{0};
};

TEST(QuerySchedulerTest, EmptyBatch) {
  exec::ThreadPool pool(2);
  exec::BatchRunner runner(&pool);
  const exec::QueryScheduler::ShareStats& stats =
      runner.scheduler()->last_share_stats();
  const ThrowingMethod method;
  const exec::BatchResult result = runner.RunShared(method, {});
  EXPECT_TRUE(result.answers.empty());
  EXPECT_EQ(result.true_count, 0u);
  EXPECT_EQ(stats.groups, 0u);
  EXPECT_EQ(stats.queries, 0u);
}

TEST(QuerySchedulerTest, SharedMatchesSerialAcrossWindowBoundaries) {
  const GeoSocialNetwork network =
      testing::RandomGeoSocialNetwork(200, 2.5, 0.4, 13);
  const CondensedNetwork cn(&network);
  const std::vector<RangeReachQuery> queries =
      SkewedWorkload(network, 20, 31);

  exec::ThreadPool pool(3);
  exec::BatchRunner runner(&pool);
  const exec::QueryScheduler::ShareStats& stats =
      runner.scheduler()->last_share_stats();
  for (const MethodKind kind :
       {MethodKind::kSocReach, MethodKind::kSpaReachInt,
        MethodKind::kThreeDReach, MethodKind::kThreeDReachRev}) {
    MethodConfig config;
    config.kind = kind;
    const auto method = CreateMethod(&cn, config);
    const std::vector<uint8_t> serial = SerialAnswers(*method, queries);

    // A window that does not divide the batch: the last window is
    // partial, and same-vertex queries in different windows must NOT be
    // grouped together (fairness bound), yet answers stay identical.
    exec::SchedulerOptions options;
    options.grouping.window = 7;
    options.min_window_to_group = 1;  // 7-query windows: force grouping.
    const exec::BatchResult shared =
        runner.RunShared(*method, queries, options);
    EXPECT_EQ(shared.answers, serial) << method->name();
    EXPECT_EQ(stats.queries, queries.size());
  }
}

TEST(QuerySchedulerTest, DuplicateQueriesCollapseOntoOneSlot) {
  const GeoSocialNetwork network =
      testing::RandomGeoSocialNetwork(100, 2.0, 0.5, 23);
  const CondensedNetwork cn(&network);

  // 40 queries but only 2 vertices x 2 regions distinct.
  const Rect a(10, 10, 40, 40);
  const Rect b(50, 50, 90, 90);
  std::vector<RangeReachQuery> queries;
  for (int i = 0; i < 40; ++i) {
    queries.push_back({static_cast<VertexId>(i % 2 == 0 ? 3 : 11),
                       (i / 2) % 2 == 0 ? a : b});
  }

  MethodConfig config;
  config.kind = MethodKind::kSocReach;
  const auto method = CreateMethod(&cn, config);
  const std::vector<uint8_t> serial = SerialAnswers(*method, queries);

  exec::ThreadPool pool(2);
  exec::BatchRunner runner(&pool);
  const exec::QueryScheduler::ShareStats& stats =
      runner.scheduler()->last_share_stats();
  exec::SchedulerOptions options;
  options.min_window_to_group = 1;  // 40 queries: below the adaptive gate.
  const exec::BatchResult result = runner.RunShared(*method, queries, options);
  EXPECT_EQ(result.answers, serial);
  EXPECT_EQ(stats.groups, 2u);  // One per vertex.
  EXPECT_EQ(stats.distinct_regions, 4u);
  EXPECT_EQ(stats.queries, 40u);
}

TEST(QuerySchedulerTest, SharedCountAndEnumSlotsMatchBatchRunner) {
  const GeoSocialNetwork network =
      testing::RandomGeoSocialNetwork(100, 2.0, 0.5, 23);
  const CondensedNetwork cn(&network);

  // The 40-query, 4-slot layout of DuplicateQueriesCollapseOntoOneSlot,
  // with vertex 11's second region far outside the space: an empty slot.
  const Rect a(10, 10, 40, 40);
  const Rect b(50, 50, 90, 90);
  const Rect empty(1000, 1000, 1001, 1001);
  std::vector<RangeReachQuery> queries;
  for (int i = 0; i < 40; ++i) {
    const bool first_vertex = i % 2 == 0;
    const bool first_region = (i / 2) % 2 == 0;
    queries.push_back({static_cast<VertexId>(first_vertex ? 3 : 11),
                       first_region ? a : (first_vertex ? b : empty)});
  }

  MethodConfig config;
  config.kind = MethodKind::kSocReach;
  const auto method = CreateMethod(&cn, config);
  exec::ThreadPool pool(2);
  exec::BatchRunner runner(&pool);
  const exec::QueryScheduler::ShareStats& stats =
      runner.scheduler()->last_share_stats();
  exec::SchedulerOptions options;
  options.min_window_to_group = 1;  // 40 queries: below the adaptive gate.
  for (const QueryKind kind : {QueryKind::kCount, QueryKind::kEnum}) {
    SCOPED_TRACE(QueryKindName(kind));
    exec::BatchOptions batch_options;
    batch_options.kind = kind;
    options.kind = kind;
    const exec::BatchResult expected =
        runner.Run(*method, queries, batch_options);
    const exec::BatchResult result =
        runner.RunShared(*method, queries, options);
    EXPECT_EQ(stats.distinct_regions, 4u);
    EXPECT_EQ(result.answers, expected.answers);
    EXPECT_EQ(result.counts, expected.counts);
    EXPECT_EQ(result.enums, expected.enums);
    EXPECT_EQ(result.counts[3], 0u);  // Vertex 11, the empty region.
    EXPECT_GT(result.counts[0] + result.counts[1] + result.counts[2], 0u);
    if (kind != QueryKind::kEnum) continue;
    // Queries i and i + 4 share a slot: every member holds the same
    // ascending vector.
    for (size_t i = 4; i < queries.size(); ++i) {
      EXPECT_EQ(result.enums[i], result.enums[i % 4]) << "query " << i;
    }
    for (size_t i = 0; i < 4; ++i) {
      EXPECT_TRUE(std::is_sorted(result.enums[i].begin(),
                                 result.enums[i].end()));
      EXPECT_EQ(result.enums[i].size(), result.counts[i]);
    }
  }
}

TEST(QuerySchedulerTest, GroupsSplitAtDistinctRegionCap) {
  // 150 distinct regions on ONE vertex: must split into ceil(150/64) = 3
  // groups, and every member must still scatter to the right answer.
  std::vector<RangeReachQuery> queries;
  for (int i = 0; i < 150; ++i) {
    const double lo = 1000.0 + i;  // Never contains (5, 5) -> all FALSE...
    queries.push_back({5, Rect(lo, lo, lo + 0.5, lo + 0.5)});
  }
  queries[40].region = Rect(0, 0, 10, 10);  // ...except this one.

  const ThrowingMethod method;
  exec::ThreadPool pool(4);
  exec::BatchRunner runner(&pool);
  const exec::QueryScheduler::ShareStats& stats =
      runner.scheduler()->last_share_stats();
  exec::SchedulerOptions options;
  options.min_window_to_group = 1;  // 150 queries: below the adaptive gate.
  const exec::BatchResult result = runner.RunShared(method, queries, options);
  EXPECT_EQ(stats.groups, 3u);
  EXPECT_EQ(stats.distinct_regions, 150u);
  EXPECT_EQ(result.true_count, 1u);
  EXPECT_EQ(result.answers[40], 1u);

  // max_group_regions clamps: 0 -> 1 region per group, huge -> 64.
  options.grouping.max_group_regions = 0;
  (void)runner.RunShared(method, queries, options);
  EXPECT_EQ(stats.groups, 150u);
  options.grouping.max_group_regions = 100000;
  (void)runner.RunShared(method, queries, options);
  EXPECT_EQ(stats.groups, 3u);
}

TEST(QuerySchedulerTest, ExceptionInOneGroupDoesNotPoisonTheBatch) {
  // Vertices 1..6 are fine, vertex 7 (one group of its own) throws.
  std::vector<RangeReachQuery> queries;
  for (VertexId v = 1; v <= 6; ++v) {
    queries.push_back({v, Rect(0, 0, 100, 100)});
  }
  queries.push_back({ThrowingMethod::kPoison, Rect(0, 0, 100, 100)});

  const ThrowingMethod method;
  exec::ThreadPool pool(2);
  exec::BatchRunner runner(&pool);
  exec::SchedulerOptions grouped;
  grouped.min_window_to_group = 1;  // Force the grouped path.
  EXPECT_THROW((void)runner.RunShared(method, queries, grouped),
               std::runtime_error);
  // Every non-poison group still ran before the rethrow.
  EXPECT_EQ(method.evaluations.load(), 6u);

  // The per-query bypass (default options: 7 queries sit below the
  // adaptive gate) stashes and rethrows the same way.
  EXPECT_THROW((void)runner.RunShared(method, queries), std::runtime_error);
  EXPECT_EQ(method.evaluations.load(), 12u);

  // The runner (and its scratch cache) stays usable afterwards.
  queries.pop_back();
  const exec::BatchResult result = runner.RunShared(method, queries);
  EXPECT_EQ(result.answers.size(), 6u);
  EXPECT_EQ(result.true_count, 6u);
}

TEST(QuerySchedulerTest, ExceptionInOneGroupSparesTheRestOfItsShard) {
  // 500 vertices, one query each, in one grouped window: the window's
  // vertex shards hold about 8 vertices each, so the poison vertex (in
  // the middle of the window) shares its shard with vertices grouped
  // after it. Its throw must skip its own group only.
  std::vector<RangeReachQuery> queries;
  for (VertexId v = 100; v < 600; ++v) {
    queries.push_back({v, Rect(0, 0, 1000, 1000)});
  }
  queries[250].vertex = ThrowingMethod::kPoison;

  for (const unsigned threads : {1u, 4u}) {
    SCOPED_TRACE(threads);
    const ThrowingMethod method;
    exec::ThreadPool pool(threads);
    exec::BatchRunner runner(&pool);
    exec::SchedulerOptions grouped;
    grouped.min_window_to_group = 1;
    EXPECT_THROW((void)runner.RunShared(method, queries, grouped),
                 std::runtime_error);
    EXPECT_EQ(method.evaluations.load(), queries.size() - 1);
    EXPECT_EQ(runner.scheduler()->last_share_stats().groups, queries.size());
  }
}

/// Records the group calls RunShared makes, and answers so that the test
/// can read back which group and slot answered each query. Each group of
/// `expected` (GroupingArena::Build's partition of the window) has the
/// code index * 64 + slot for each of its slots; a call answers slot r
/// with bit `bit` of that code (TRUE, a count of 1, or the enum {0}).
/// Running once per bit spells out every query's code.
class RecordingMethod : public RangeReachMethod {
 public:
  /// A group's identity: its vertex and region list, as numbers.
  using Key = std::vector<double>;

  static Key KeyOf(VertexId vertex, std::span<const Rect> regions) {
    Key key{static_cast<double>(vertex)};
    for (const Rect& r : regions) {
      key.insert(key.end(), {r.min_x, r.min_y, r.max_x, r.max_y});
    }
    return key;
  }

  explicit RecordingMethod(std::span<const exec::QueryGroup> expected) {
    for (size_t g = 0; g < expected.size(); ++g) {
      codes_.emplace(KeyOf(expected[g].vertex, expected[g].regions), g * 64);
    }
  }

  /// False when two expected groups share a key (the codes would be
  /// ambiguous).
  bool keys_unique(size_t groups) const { return codes_.size() == groups; }

  bool Evaluate(VertexId, const Rect&, QueryScratch&) const override {
    ADD_FAILURE() << "a grouped window ran a query on its own";
    return false;
  }
  void EvaluateGroup(VertexId vertex, std::span<const Rect> regions,
                     std::span<bool> out, QueryScratch&) const override {
    const uint64_t code = Record(vertex, regions);
    for (size_t r = 0; r < regions.size(); ++r) out[r] = Bit(code + r);
  }
  void CollectGroupInto(VertexId vertex, std::span<const Rect> regions,
                        std::span<ResultSink> sinks,
                        QueryScratch&) const override {
    const uint64_t code = Record(vertex, regions);
    for (size_t r = 0; r < regions.size(); ++r) {
      if (Bit(code + r)) sinks[r].Add(0);
    }
  }
  std::string name() const override { return "Recording"; }
  size_t IndexSizeBytes() const override { return 1; }

  unsigned bit = 0;
  mutable std::mutex mutex;
  mutable std::vector<Key> calls;

 private:
  uint64_t Record(VertexId vertex, std::span<const Rect> regions) const {
    Key key = KeyOf(vertex, regions);
    const auto it = codes_.find(key);
    const std::lock_guard<std::mutex> lock(mutex);
    calls.push_back(std::move(key));
    return it == codes_.end() ? 0 : it->second;
  }
  bool Bit(uint64_t code) const { return ((code >> bit) & 1) != 0; }

  std::map<Key, uint64_t> codes_;
};

TEST(QuerySchedulerTest, ShardedRunSharedExecutesExactlyTheWindowPartition) {
  // Windows below and above the shard count, grouped on 1, 2 and 4
  // workers, for every kind: the group calls must be exactly Build's
  // groups (vertex and regions), each query must be answered by the slot
  // Build gave it, and the share stats must be the partition's.
  const GeoSocialNetwork network =
      testing::RandomGeoSocialNetwork(400, 2.0, 0.5, 41);
  for (const uint32_t size : {40u, 1500u}) {
    SCOPED_TRACE(size);
    const std::vector<RangeReachQuery> queries =
        SkewedWorkload(network, size, 17);
    exec::GroupingArena arena;
    const std::span<const exec::QueryGroup> built = arena.Build(queries, {});
    const std::vector<exec::QueryGroup> expected(built.begin(), built.end());
    std::vector<RecordingMethod::Key> expected_calls;
    std::vector<std::vector<std::pair<uint32_t, uint32_t>>> expected_members;
    exec::QueryScheduler::ShareStats expected_stats;
    for (const exec::QueryGroup& group : expected) {
      expected_calls.push_back(
          RecordingMethod::KeyOf(group.vertex, group.regions));
      std::vector<std::pair<uint32_t, uint32_t>> members;
      for (size_t m = 0; m < group.member_query.size(); ++m) {
        members.emplace_back(group.member_query[m], group.member_region[m]);
      }
      std::sort(members.begin(), members.end());
      expected_members.push_back(std::move(members));
      ++expected_stats.groups;
      expected_stats.queries += group.member_query.size();
      expected_stats.distinct_regions += group.regions.size();
    }
    std::sort(expected_calls.begin(), expected_calls.end());
    ASSERT_LT(expected.size(), queries.size());  // Grouping fired.
    RecordingMethod method(expected);
    ASSERT_TRUE(method.keys_unique(expected.size()));
    const int bits = std::bit_width(expected.size() * 64 - 1);

    for (const unsigned threads : {1u, 2u, 4u}) {
      exec::ThreadPool pool(threads);
      exec::BatchRunner runner(&pool);
      for (const QueryKind kind :
           {QueryKind::kBool, QueryKind::kCount, QueryKind::kEnum}) {
        SCOPED_TRACE(std::to_string(threads) + " threads, " +
                     QueryKindName(kind));
        exec::SchedulerOptions options;
        options.kind = kind;
        options.min_window_to_group = 1;
        std::vector<uint64_t> codes(queries.size(), 0);
        for (int b = 0; b < bits; ++b) {
          method.bit = static_cast<unsigned>(b);
          method.calls.clear();
          const exec::BatchResult result =
              runner.RunShared(method, queries, options);
          std::sort(method.calls.begin(), method.calls.end());
          ASSERT_EQ(method.calls, expected_calls) << "bit " << b;
          const exec::QueryScheduler::ShareStats& stats =
              runner.scheduler()->last_share_stats();
          EXPECT_EQ(stats.groups, expected_stats.groups);
          EXPECT_EQ(stats.queries, expected_stats.queries);
          EXPECT_EQ(stats.distinct_regions, expected_stats.distinct_regions);
          for (size_t q = 0; q < queries.size(); ++q) {
            codes[q] |= uint64_t{result.answers[q]} << b;
            if (kind == QueryKind::kBool) continue;
            EXPECT_EQ(result.counts[q], result.answers[q]);
            if (kind != QueryKind::kEnum) continue;
            EXPECT_EQ(result.enums[q],
                      result.answers[q] != 0 ? std::vector<VertexId>{0}
                                             : std::vector<VertexId>{});
          }
        }
        std::vector<std::vector<std::pair<uint32_t, uint32_t>>> executed(
            expected.size());
        for (size_t q = 0; q < queries.size(); ++q) {
          const uint64_t group = codes[q] / 64;
          ASSERT_LT(group, executed.size()) << "query " << q;
          executed[group].emplace_back(static_cast<uint32_t>(q),
                                       static_cast<uint32_t>(codes[q] % 64));
        }
        for (auto& members : executed) {
          std::sort(members.begin(), members.end());
        }
        EXPECT_EQ(executed, expected_members);
      }
    }
  }
}

TEST(QuerySchedulerTest, WideSpanEvaluateGroupMatchesSerial) {
  // The hook contract: EvaluateGroup must accept spans far beyond the
  // scheduler's 64-slot cap (implementations chunk internally). Exercised
  // directly against the overriding methods.
  const GeoSocialNetwork network =
      testing::RandomGeoSocialNetwork(250, 2.5, 0.4, 29);
  const CondensedNetwork cn(&network);

  WorkloadGenerator workload(&network, 71);
  std::vector<Rect> regions;
  for (int i = 0; i < 150; ++i) {
    regions.push_back(workload.RandomRegionByExtent(3.0));
  }
  const VertexId vertex = workload.RandomVertexWithDegree(0, 1u << 30);

  for (const MethodKind kind :
       {MethodKind::kSocReach, MethodKind::kSpaReachInt,
        MethodKind::kThreeDReach, MethodKind::kThreeDReachRev}) {
    MethodConfig config;
    config.kind = kind;
    const auto method = CreateMethod(&cn, config);
    std::vector<bool> expected;
    for (const Rect& region : regions) {
      expected.push_back(method->Evaluate(vertex, region));
    }

    const auto scratch = method->NewScratch();
    // std::vector<bool> has no data(); use a plain bool array for the span.
    std::unique_ptr<bool[]> grouped(new bool[regions.size()]());
    std::span<bool> out(grouped.get(), regions.size());
    method->EvaluateGroup(vertex, std::span<const Rect>(regions), out,
                          *scratch);
    for (size_t k = 0; k < regions.size(); ++k) {
      EXPECT_EQ(out[k], expected[k]) << method->name() << " region " << k;
    }
  }
}

TEST(QuerySchedulerTest, GroupingPartitionIsExactAndDeterministic) {
  const GeoSocialNetwork network =
      testing::RandomGeoSocialNetwork(120, 2.0, 0.5, 37);
  const std::vector<RangeReachQuery> queries = SkewedWorkload(network, 80, 9);

  exec::GroupingArena arena;
  const std::span<const exec::QueryGroup> built = arena.Build(queries, {});
  const std::vector<exec::QueryGroup> groups(built.begin(), built.end());

  // Every query appears in exactly one group, mapped to a slot holding
  // exactly its region; slots within a group are distinct.
  std::set<uint32_t> seen;
  for (const exec::QueryGroup& group : groups) {
    ASSERT_EQ(group.member_query.size(), group.member_region.size());
    ASSERT_LE(group.regions.size(), size_t{64});
    for (size_t i = 0; i + 1 < group.regions.size(); ++i) {
      for (size_t j = i + 1; j < group.regions.size(); ++j) {
        EXPECT_FALSE(group.regions[i] == group.regions[j]);
      }
    }
    for (size_t m = 0; m < group.member_query.size(); ++m) {
      const uint32_t q = group.member_query[m];
      ASSERT_LT(q, queries.size());
      EXPECT_TRUE(seen.insert(q).second) << "query in two groups";
      EXPECT_EQ(queries[q].vertex, group.vertex);
      EXPECT_TRUE(queries[q].region == group.regions[group.member_region[m]]);
    }
  }
  EXPECT_EQ(seen.size(), queries.size());

  // Deterministic: same window, same partition, also from a reused arena.
  const std::span<const exec::QueryGroup> again = arena.Build(queries, {});
  ASSERT_EQ(again.size(), groups.size());
  for (size_t g = 0; g < groups.size(); ++g) {
    EXPECT_EQ(again[g].vertex, groups[g].vertex);
    EXPECT_EQ(again[g].member_query, groups[g].member_query);
    EXPECT_EQ(again[g].member_region, groups[g].member_region);
  }
}

TEST(QuerySchedulerTest, RunSharedThroughBatchRunnerMatchesRun) {
  const GeoSocialNetwork network =
      testing::RandomGeoSocialNetwork(180, 2.5, 0.4, 43);
  const CondensedNetwork cn(&network);
  const std::vector<RangeReachQuery> queries =
      SkewedWorkload(network, 120, 55);

  MethodConfig config;
  config.kind = MethodKind::kSpaReachInt;
  const auto method = CreateMethod(&cn, config);

  exec::ThreadPool pool(4);
  exec::BatchRunner runner(&pool);
  exec::SchedulerOptions options;
  options.min_window_to_group = 1;  // Force grouping for 120 queries.
  const exec::BatchResult unshared = runner.Run(*method, queries);
  const exec::BatchResult shared = runner.RunShared(*method, queries, options);
  EXPECT_EQ(shared.answers, unshared.answers);
  EXPECT_EQ(shared.true_count, unshared.true_count);
  ASSERT_NE(runner.scheduler(), nullptr);
  EXPECT_EQ(runner.scheduler()->last_share_stats().queries, queries.size());
  // Dedup actually fired: fewer groups than queries.
  EXPECT_LT(runner.scheduler()->last_share_stats().groups, queries.size());

  // record_latencies: one (group-wall-time) entry per query. The default
  // options route this 120-query batch through the adaptive per-query
  // bypass, which must fill latencies all the same.
  exec::SchedulerOptions timed_options;
  timed_options.record_latencies = true;
  const exec::BatchResult timed =
      runner.RunShared(*method, queries, timed_options);
  EXPECT_EQ(timed.answers, unshared.answers);
  ASSERT_EQ(timed.latencies_us.size(), queries.size());
  for (const double latency : timed.latencies_us) EXPECT_GE(latency, 0.0);
}

}  // namespace
}  // namespace gsr
