#include "labeling/flat_label_store.h"

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/binary_io.h"
#include "common/rng.h"
#include "exec/thread_pool.h"
#include "labeling/label_set.h"

namespace gsr {
namespace {

/// Random label sets; roughly a sixth stay empty so the offsets table gets
/// zero-length runs in the middle, not just at the ends.
std::vector<LabelSet> RandomSets(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<LabelSet> sets(n);
  for (LabelSet& set : sets) {
    const uint64_t k = rng.NextBounded(6);
    for (uint64_t i = 0; i < k; ++i) {
      const uint32_t lo = static_cast<uint32_t>(rng.NextBounded(500)) + 1;
      set.Insert({lo, lo + static_cast<uint32_t>(rng.NextBounded(20))});
    }
  }
  return sets;
}

TEST(FlatLabelStoreTest, MirrorsSourceLabelSets) {
  const std::vector<LabelSet> sets = RandomSets(200, 42);
  const FlatLabelStore store = FlatLabelStore::Freeze(sets);
  ASSERT_EQ(store.num_vertices(), sets.size());
  for (VertexId v = 0; v < sets.size(); ++v) {
    const LabelView view = store.View(v);
    EXPECT_EQ(view.size(), sets[v].size());
    EXPECT_EQ(view.empty(), sets[v].empty());
    EXPECT_EQ(view.ToString(), sets[v].ToString());
    EXPECT_EQ(view.CoveredValues(), sets[v].CoveredValues());
    for (uint32_t value = 0; value <= 530; ++value) {
      ASSERT_EQ(view.Contains(value), sets[v].Contains(value))
          << "vertex " << v << " value " << value;
      ASSERT_EQ(store.Contains(v, value), sets[v].Contains(value))
          << "vertex " << v << " value " << value;
    }
  }
}

TEST(FlatLabelStoreTest, EmptyAndAllEmptyInputs) {
  const FlatLabelStore none = FlatLabelStore::Freeze({});
  EXPECT_EQ(none.num_vertices(), 0u);
  EXPECT_EQ(none.total_intervals(), 0u);

  const std::vector<LabelSet> sets(7);
  const FlatLabelStore store = FlatLabelStore::Freeze(sets);
  EXPECT_EQ(store.num_vertices(), 7u);
  EXPECT_EQ(store.total_intervals(), 0u);
  for (VertexId v = 0; v < 7; ++v) {
    EXPECT_TRUE(store.View(v).empty());
    EXPECT_FALSE(store.Contains(v, 0));
    EXPECT_EQ(store.View(v).ToString(), "(empty)");
  }
}

TEST(FlatLabelStoreTest, ParallelFreezeIsIdentical) {
  const std::vector<LabelSet> sets = RandomSets(1000, 7);
  const FlatLabelStore serial = FlatLabelStore::Freeze(sets);
  for (const unsigned threads : {2u, 8u}) {
    exec::ThreadPool pool(threads);
    const FlatLabelStore parallel = FlatLabelStore::Freeze(sets, &pool);
    ASSERT_EQ(parallel.num_vertices(), serial.num_vertices());
    ASSERT_EQ(parallel.total_intervals(), serial.total_intervals());
    for (VertexId v = 0; v < sets.size(); ++v) {
      const auto a = serial.Intervals(v);
      const auto b = parallel.Intervals(v);
      ASSERT_TRUE(std::equal(a.begin(), a.end(), b.begin(), b.end()))
          << "vertex " << v << " at " << threads << " threads";
    }
  }
}

TEST(FlatLabelStoreTest, SizeBytesCoversBothArrays) {
  const std::vector<LabelSet> sets = RandomSets(100, 3);
  const FlatLabelStore store = FlatLabelStore::Freeze(sets);
  EXPECT_GE(store.SizeBytes(),
            store.total_intervals() * sizeof(Interval) +
                (store.num_vertices() + 1) * sizeof(uint32_t));
}

TEST(FlatLabelStoreTest, LabelThatIsNotSortedAndDisjointIsRejected) {
  // A label repeating an interval, holding a reversed one, out of order,
  // or covering a value outside the post numbers 1..n must fail the load,
  // owned or borrowed, and the untouched bytes must load. With n = 600
  // every random label lies inside 1..n.
  const std::vector<LabelSet> sets = RandomSets(600, 5);
  const FlatLabelStore store = FlatLabelStore::Freeze(sets);
  size_t first = 0;  // Index of the first interval of a two-interval label.
  VertexId v = 0;
  while (v < store.num_vertices() && store.Intervals(v).size() < 2) {
    first += store.Intervals(v).size();
    ++v;
  }
  ASSERT_LT(v, store.num_vertices());
  BinaryWriter writer;
  store.SerializeTo(writer);
  const std::vector<std::byte> bytes = writer.TakeBytes();
  // The interval array is the last thing written.
  const size_t at = bytes.size() -
                    (store.total_intervals() - first) * sizeof(Interval);
  const Interval a = store.Intervals(v)[0];
  const Interval b = store.Intervals(v)[1];

  std::vector<std::pair<std::string, std::vector<Interval>>> forgeries = {
      {"repeated", {a, a}},
      {"reversed", {a, Interval{b.hi + 1, b.hi}}},
      {"out of order", {b, a}},
      {"zero", {Interval{0, a.hi}, b}},
      {"past n", {a, Interval{b.lo, store.num_vertices() + 1}}},
      {"untouched", {a, b}}};
  for (const auto& [what, pair] : forgeries) {
    const auto buffer = std::make_shared<std::vector<std::byte>>(bytes);
    std::memcpy(buffer->data() + at, pair.data(), 2 * sizeof(Interval));
    BorrowContext borrow;
    borrow.borrow = true;
    borrow.keepalive = buffer;
    for (const BorrowContext& ctx : {BorrowContext{}, borrow}) {
      BinaryReader reader(*buffer);
      auto loaded = FlatLabelStore::Deserialize(reader, ctx);
      if (what == "untouched") {
        EXPECT_TRUE(loaded.ok()) << loaded.status().ToString();
        continue;
      }
      ASSERT_FALSE(loaded.ok()) << what;
      EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument) << what;
    }
  }
}

}  // namespace
}  // namespace gsr
