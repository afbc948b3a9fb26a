#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstring>
#include <memory>
#include <span>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/binary_io.h"
#include "common/checksum.h"
#include "common/rng.h"
#include "common/simd.h"
#include "exec/thread_pool.h"
#include "spatial/frozen_rtree.h"
#include "tests/rtree_test_util.h"

namespace gsr {
namespace {

/// FrozenRTree's storage contract: the packed byte layout is pinned by the
/// golden digests below (the bit-identical-answers guarantee snapshot
/// loading is built on), the tree survives a serialize round trip in both
/// owned-copy and borrowed (mmap-style) modes, and the masked multi-query
/// descents answer exactly as the per-query ones. The full query-semantics
/// suite against a linear scan is in rtree_test.cc.

using testing::ExpectMatchesLinearScan;
using testing::ExpectWellFormed;
using testing::RandomPoints;
using testing::RandomQueryRect;
using testing::RandomQueryBoxes;
using testing::RandomSegments;

TEST(FrozenRTreeTest, AgreesWithLinearScanPoints2D) {
  const auto entries = RandomPoints(500, 11);
  const auto frozen = FrozenRTreePoints2D::Build(entries);
  ExpectWellFormed(frozen);
  Rng rng(12);
  std::vector<Rect> queries;
  for (int q = 0; q < 200; ++q) queries.push_back(RandomQueryRect(rng));
  ExpectMatchesLinearScan(entries, frozen, queries);
}

TEST(FrozenRTreeTest, AgreesWithLinearScanSegments3D) {
  const auto entries = RandomSegments(500, 31);
  const auto frozen = FrozenRTree3D::Build(entries);
  ExpectWellFormed(frozen);
  Rng rng(32);
  ExpectMatchesLinearScan(entries, frozen, RandomQueryBoxes(rng, 200));
}

TEST(FrozenRTreeTest, MaskedDescentMatchesPerQueryExistence) {
  // AnyIntersectingMasked (one shared descent answering up to 64
  // existence queries) must return exactly the per-query AnyIntersecting
  // bits, for every pending-mask shape and at every kernel level.
  const auto frozen = FrozenRTree3D::Build(RandomSegments(700, 61));

  Rng rng(62);
  for (const simd::KernelLevel level :
       {simd::KernelLevel::kScalar, simd::KernelLevel::kAvx2}) {
    simd::ScopedKernelLevel scoped(level);
    for (const size_t count : {size_t{1}, size_t{3}, size_t{17}, size_t{64}}) {
      Box3D queries[64];
      uint64_t expected = 0;
      for (size_t k = 0; k < count; ++k) {
        queries[k] = Box3D::FromRectAndInterval(
            RandomQueryRect(rng), rng.NextDoubleInRange(0, 50),
            rng.NextDoubleInRange(50, 100));
        if (frozen.AnyIntersecting(queries[k])) expected |= uint64_t{1} << k;
      }
      const uint64_t full =
          count == 64 ? ~uint64_t{0} : (uint64_t{1} << count) - 1;
      EXPECT_EQ(frozen.AnyIntersectingMasked(queries, full), expected)
          << "count " << count << " level "
          << simd::KernelLevelName(simd::ActiveLevel());

      // A sparse pending mask only answers its own bits.
      const uint64_t sparse = full & 0x5555555555555555ull;
      EXPECT_EQ(frozen.AnyIntersectingMasked(queries, sparse),
                expected & sparse);
    }
  }

  // Empty pending mask and empty tree are both no-ops.
  Box3D one = Box3D::FromRectAndInterval(Rect(0, 0, 100, 100), 0, 100);
  EXPECT_EQ(frozen.AnyIntersectingMasked(&one, 0), 0u);
  const auto empty = FrozenRTree3D::Build({});
  EXPECT_EQ(empty.AnyIntersectingMasked(&one, ~uint64_t{0}), 0u);
}

TEST(FrozenRTreeTest, EmptyTree) {
  const auto frozen = FrozenRTreePoints2D::Build({});
  ExpectWellFormed(frozen);
  EXPECT_TRUE(frozen.empty());
  EXPECT_EQ(frozen.size(), 0u);
  EXPECT_EQ(frozen.Height(), 0);
  EXPECT_FALSE(frozen.AnyIntersecting(Rect(0, 0, 100, 100)));
  EXPECT_TRUE(frozen.Bounds().IsEmpty());

  BinaryWriter writer;
  frozen.SerializeTo(writer);
  BinaryReader reader(writer.bytes());
  auto restored =
      FrozenRTreePoints2D::Deserialize(reader, BorrowContext{}, 0);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_TRUE(restored->empty());
}

template <typename BoxT, typename LeafT>
void ExpectRestoredAgrees(
    const std::vector<std::pair<LeafT, uint64_t>>& entries,
    const FrozenRTree<BoxT, LeafT>& built,
    const FrozenRTree<BoxT, LeafT>& restored,
    const std::vector<BoxT>& queries) {
  EXPECT_EQ(restored.Height(), built.Height());
  ExpectMatchesLinearScan(entries, restored, queries);
  for (const BoxT& query : queries) {
    // Same hits in the same order, not merely the same set.
    EXPECT_EQ(restored.CollectIntersecting(query),
              built.CollectIntersecting(query));
  }
}

TEST(FrozenRTreeTest, SerializeRoundTripBothModes) {
  const auto entries = RandomPoints(600, 41);
  const auto frozen = FrozenRTreePoints2D::Build(entries);

  BinaryWriter writer;
  frozen.SerializeTo(writer);
  // Borrowed deserialization views into this buffer; the keepalive is what
  // a real load would pin the file mapping with.
  const auto buffer = std::make_shared<std::vector<std::byte>>(writer.bytes());

  Rng rng(42);
  std::vector<Rect> queries;
  for (int q = 0; q < 150; ++q) queries.push_back(RandomQueryRect(rng));

  {
    BinaryReader reader(*buffer);
    auto restored = FrozenRTreePoints2D::Deserialize(reader, BorrowContext{},
                                                     entries.size());
    ASSERT_TRUE(restored.ok()) << restored.status().ToString();
    ExpectRestoredAgrees(entries, frozen, *restored, queries);
  }
  {
    BinaryReader reader(*buffer);
    BorrowContext borrow;
    borrow.borrow = true;
    borrow.keepalive = buffer;
    auto restored =
        FrozenRTreePoints2D::Deserialize(reader, borrow, entries.size());
    ASSERT_TRUE(restored.ok()) << restored.status().ToString();
    ExpectRestoredAgrees(entries, frozen, *restored, queries);
  }
}

/// A PagedSource over an in-memory byte buffer (the serialized tree
/// stands in for a snapshot file) that gives every pin its own copy of
/// the page in a small frame pool and overwrites that copy with 0xFF
/// bytes — NaN coordinates, garbage ids — on unpin. A run pointer that a
/// descent keeps after its cursor moved to another page then reads
/// poison instead of bytes that happen to be still right, and the answer
/// goes wrong. Single-threaded, like the tests that use it.
class PoisoningSource final : public PagedSource {
 public:
  explicit PoisoningSource(std::vector<std::byte> bytes)
      : bytes_(std::move(bytes)) {
    bytes_.resize((bytes_.size() / kPage + 1) * kPage);
  }
  size_t page_size() const override { return kPage; }
  Status Read(uint64_t offset, size_t len, void* out) override {
    std::memcpy(out, bytes_.data() + offset, len);
    return Status::Ok();
  }
  const std::byte* PinPage(uint64_t page_no, void** handle) override {
    // Round robin over the free frames: a frame unpinned a moment ago is
    // left poisoned, not refilled at once.
    for (size_t step = 0; step < kFrames; ++step) {
      const size_t f = next_;
      next_ = (next_ + 1) % kFrames;
      if (pinned_[f]) continue;
      pinned_[f] = true;
      std::memcpy(frames_[f].data(), bytes_.data() + page_no * kPage, kPage);
      *handle = reinterpret_cast<void*>(static_cast<uintptr_t>(f) + 1);
      return frames_[f].data();
    }
    return nullptr;
  }
  void UnpinPage(void* handle) override {
    const size_t f = reinterpret_cast<uintptr_t>(handle) - 1;
    pinned_[f] = false;
    frames_[f].fill(std::byte{0xFF});
  }
  void Prefetch(uint64_t, size_t) override {}

 private:
  static constexpr size_t kPage = 256;  // 48-byte boxes straddle pages.
  static constexpr size_t kFrames = 8;  // > the 5 cursors of a descent.
  std::vector<std::byte> bytes_;
  alignas(16) std::array<std::array<std::byte, kPage>, kFrames> frames_{};
  std::array<bool, kFrames> pinned_{};
  size_t next_ = 0;
};

TEST(FrozenRTreeTest, PagedResidentPrefixFitsTheBudgetAndAnswersExactly) {
  // A paged load keeps the longest BFS node prefix (records plus the
  // child entries they own) that fits the budget it is handed, subtracts
  // exactly what it kept, and answers like the built tree at any size.
  const auto entries = RandomPoints(5000, 43);
  const auto frozen = FrozenRTreePoints2D::Build(entries);
  BinaryWriter writer;
  frozen.SerializeTo(writer);
  const auto source = std::make_shared<PoisoningSource>(writer.bytes());
  using Tree = FrozenRTreePoints2D;
  const size_t full = frozen.SizeBytes() -
                      frozen.size() * (sizeof(Point2D) + sizeof(uint64_t));

  Rng rng(44);
  std::vector<Rect> queries;
  for (int q = 0; q < 150; ++q) queries.push_back(RandomQueryRect(rng));

  size_t previous = 0;
  for (const size_t budget :
       {size_t{0}, size_t{100}, size_t{2000}, size_t{8000}, full - 1, full,
        full * 4}) {
    BinaryReader reader(writer.bytes());
    BorrowContext ctx;
    ctx.paged = source;
    ctx.resident_bytes_left = std::make_shared<size_t>(budget);
    auto restored = Tree::Deserialize(reader, ctx, entries.size());
    ASSERT_TRUE(restored.ok()) << restored.status().ToString();
    ASSERT_TRUE(restored->paged());
    ASSERT_LE(*ctx.resident_bytes_left, budget);
    const size_t kept = budget - *ctx.resident_bytes_left;
    EXPECT_GE(kept, previous) << "budget " << budget;
    EXPECT_EQ(kept == full, budget >= full) << "budget " << budget;
    previous = kept;
    ExpectRestoredAgrees(entries, frozen, *restored, queries);
  }
  EXPECT_GT(previous, 0u);
}

std::vector<std::pair<Point3D, uint64_t>> RandomPoints3D(size_t n,
                                                         uint64_t seed) {
  Rng rng(seed);
  std::vector<std::pair<Point3D, uint64_t>> entries;
  for (size_t i = 0; i < n; ++i) {
    const double x = rng.NextDoubleInRange(0, 100);
    const double y = rng.NextDoubleInRange(0, 100);
    entries.emplace_back(Point3D{x, y, rng.NextDoubleInRange(0, 100)}, i);
  }
  return entries;
}

/// Queries of mixed extent: small ones leave many intersecting subtrees
/// without a hit, so a first-hit descent backs out of a child and goes on
/// scanning its parent's run, the step that must fetch the run again.
template <typename BoxT>
BoxT MixedQuery(Rng& rng) {
  const double extent = rng.NextBounded(2) == 0 ? 3 : 30;
  const double x = rng.NextDoubleInRange(-5, 100);
  const double y = rng.NextDoubleInRange(-5, 100);
  const Rect rect(x, y, x + rng.NextDoubleInRange(0, extent),
                  y + rng.NextDoubleInRange(0, extent));
  if constexpr (std::is_same_v<BoxT, Rect>) {
    return rect;
  } else {
    const double z = rng.NextDoubleInRange(-5, 100);
    return Box3D::FromRectAndInterval(rect, z,
                                      z + rng.NextDoubleInRange(0, extent));
  }
}

/// Loads `entries` paged through a PoisoningSource, with no resident
/// prefix and with a partial one (512 bytes: the root alone), and checks
/// every descent against the built tree: existence (single and masked),
/// enumeration ids in order (single and masked) and counts.
template <typename BoxT, typename LeafT>
void ExpectPoisonedPagedAgrees(
    const std::vector<std::pair<LeafT, uint64_t>>& entries, uint64_t seed) {
  using Tree = FrozenRTree<BoxT, LeafT>;
  const auto built = Tree::Build(entries);
  // Height 4: the first-hit descent recurses from internal nodes into
  // internal nodes, which moves the box cursor under its parent's run at
  // both prefix sizes.
  ASSERT_GE(built.Height(), 4);
  BinaryWriter writer;
  built.SerializeTo(writer);
  const auto source = std::make_shared<PoisoningSource>(writer.bytes());
  const size_t internal =
      built.SizeBytes() - built.size() * (sizeof(LeafT) + sizeof(uint64_t));

  Rng rng(seed);
  std::vector<BoxT> queries;
  for (int q = 0; q < 256; ++q) queries.push_back(MixedQuery<BoxT>(rng));

  for (const size_t budget : {size_t{0}, size_t{512}}) {
    BinaryReader reader(writer.bytes());
    BorrowContext ctx;
    ctx.paged = source;
    ctx.resident_bytes_left = std::make_shared<size_t>(budget);
    auto paged = Tree::Deserialize(reader, ctx, entries.size());
    ASSERT_TRUE(paged.ok()) << paged.status().ToString();
    ASSERT_TRUE(paged->paged());
    const size_t kept = budget - *ctx.resident_bytes_left;
    EXPECT_EQ(kept > 0, budget > 0);
    EXPECT_LT(kept, internal);

    size_t positives = 0;
    for (const BoxT& query : queries) {
      const bool any = built.AnyIntersecting(query);
      positives += any;
      EXPECT_EQ(paged->AnyIntersecting(query), any) << "budget " << budget;
      EXPECT_EQ(paged->CollectIntersecting(query),
                built.CollectIntersecting(query))
          << "budget " << budget;
      EXPECT_EQ(paged->CountIntersecting(query),
                built.CountIntersecting(query))
          << "budget " << budget;
    }
    EXPECT_GT(positives, 0u);
    EXPECT_LT(positives, queries.size());

    for (size_t base = 0; base < queries.size(); base += 64) {
      const BoxT* group = queries.data() + base;
      for (const uint64_t mask :
           {~uint64_t{0}, uint64_t{0x5555555555555555}, uint64_t{1} << 9}) {
        EXPECT_EQ(paged->AnyIntersectingMasked(group, mask),
                  built.AnyIntersectingMasked(group, mask))
            << "budget " << budget << " mask " << mask;
        std::vector<std::vector<uint64_t>> got(64);
        std::vector<std::vector<uint64_t>> want(64);
        paged->CollectIntersectingMasked(
            group, mask, std::span<std::vector<uint64_t>>(got));
        built.CollectIntersectingMasked(
            group, mask, std::span<std::vector<uint64_t>>(want));
        EXPECT_EQ(got, want) << "budget " << budget << " mask " << mask;
      }
    }
  }
}

TEST(FrozenRTreeTest, PagedDescentsNeverReadARunAfterItsPageIsUnpinned) {
  ExpectPoisonedPagedAgrees<Rect, Point2D>(RandomPoints(40000, 81), 82);
  ExpectPoisonedPagedAgrees<Box3D, Point3D>(RandomPoints3D(40000, 83), 84);
  ExpectPoisonedPagedAgrees<Box3D, Box3D>(RandomSegments(40000, 85), 86);
}

TEST(FrozenRTreeTest, MaskedEnumerationMatchesPerQueryOrder) {
  // ForEachIntersectingMasked's contract: for every live query k, hits
  // arrive in exactly ForEachIntersecting(queries[k]) order, whatever
  // the mask shape and kernel level. Dead mask bits must never fire.
  const auto frozen = FrozenRTreePoints2D::Build(RandomPoints(900, 61));

  Rng rng(62);
  std::vector<Rect> queries;
  for (int k = 0; k < 64; ++k) queries.push_back(RandomQueryRect(rng));
  // Degenerate queries among live bits: inverted/empty and far away.
  queries[3] = Rect();
  queries[17] = Rect(500, 500, 600, 600);

  for (const simd::KernelLevel level :
       {simd::KernelLevel::kScalar, simd::KernelLevel::kAvx2}) {
    simd::ScopedKernelLevel scoped(level);
    for (const uint64_t mask :
         {~uint64_t{0}, uint64_t{1}, uint64_t{0xAAAAAAAAAAAAAAAA},
          uint64_t{0x8000000000000001}, uint64_t{0}}) {
      std::vector<std::vector<uint64_t>> got(64);
      frozen.CollectIntersectingMasked(queries.data(), mask,
                                       std::span<std::vector<uint64_t>>(got));
      for (int k = 0; k < 64; ++k) {
        if ((mask >> k) & 1) {
          EXPECT_EQ(got[k], frozen.CollectIntersecting(queries[k]))
              << "query " << k << " mask " << mask << " level "
              << simd::KernelLevelName(simd::ActiveLevel());
        } else {
          EXPECT_TRUE(got[k].empty()) << "dead bit " << k << " fired";
        }
      }
      // Degenerate live queries collect nothing.
      if ((mask >> 3) & 1) {
        EXPECT_TRUE(got[3].empty());
      }
      if ((mask >> 17) & 1) {
        EXPECT_TRUE(got[17].empty());
      }
    }
  }
}

TEST(FrozenRTreeTest, MaskedEnumerationBoxesVariant) {
  // Same contract on the Box3D tree (the 3DReach MBR-mode shape).
  const auto frozen = FrozenRTree3D::Build(RandomSegments(700, 71));

  Rng rng(72);
  std::vector<Box3D> queries;
  for (int k = 0; k < 64; ++k) {
    const Rect rect = RandomQueryRect(rng);
    const double z_lo = rng.NextDoubleInRange(0, 60);
    queries.push_back(Box3D::FromRectAndInterval(
        rect, z_lo, z_lo + rng.NextDoubleInRange(0, 40)));
  }

  const uint64_t mask = 0xF0F0F0F0F0F0F0F0;
  std::vector<std::vector<uint64_t>> got(64);
  frozen.CollectIntersectingMasked(queries.data(), mask,
                                   std::span<std::vector<uint64_t>>(got));
  for (int k = 0; k < 64; ++k) {
    if ((mask >> k) & 1) {
      EXPECT_EQ(got[k], frozen.CollectIntersecting(queries[k])) << k;
    } else {
      EXPECT_TRUE(got[k].empty()) << k;
    }
  }
}

TEST(FrozenRTreeTest, MaskedEnumerationOnEmptyTree) {
  const FrozenRTreePoints2D frozen;
  std::vector<Rect> queries(64, Rect(0, 0, 100, 100));
  std::vector<std::vector<uint64_t>> got(64, {1, 2, 3});
  frozen.CollectIntersectingMasked(queries.data(), ~uint64_t{0},
                                   std::span<std::vector<uint64_t>>(got));
  // Live slots are cleared even when the tree has nothing to deliver.
  for (const auto& ids : got) EXPECT_TRUE(ids.empty());
}

TEST(FrozenRTreeTest, CorruptChildLinkIsRejected) {
  const auto frozen = FrozenRTreePoints2D::Build(RandomPoints(600, 51));
  ASSERT_GT(frozen.Height(), 1);  // Need internal nodes to corrupt a link.

  BinaryWriter writer;
  frozen.SerializeTo(writer);
  std::vector<std::byte> bytes = writer.TakeBytes();

  // A back-link to node 0 would make the descent cyclic; Deserialize must
  // reject it ("invalid child link") rather than loop or crash. The child
  // node array follows size (u64), height (i32), the node array and the
  // child box array; scan for the first child-link value instead of
  // hand-computing the offset.
  BinaryReader scan(bytes);
  uint64_t size = 0;
  int32_t height = 0;
  ASSERT_TRUE(scan.ReadU64(&size).ok());
  ASSERT_TRUE(scan.ReadI32(&height).ok());
  std::span<const FrozenRTreePoints2D::Node> nodes;
  std::span<const Rect> child_boxes;
  ASSERT_TRUE(scan.ReadArrayView(&nodes).ok());
  ASSERT_TRUE(scan.ReadArrayView(&child_boxes).ok());
  std::span<const uint32_t> child_nodes;
  const size_t links_at = [&] {
    BinaryReader probe(bytes);
    EXPECT_TRUE(probe.Skip(scan.offset()).ok());
    EXPECT_TRUE(probe.ReadArrayView(&child_nodes).ok());
    return probe.offset() - child_nodes.size() * sizeof(uint32_t);
  }();
  ASSERT_FALSE(child_nodes.empty());
  const uint32_t zero = 0;
  std::memcpy(bytes.data() + links_at, &zero, sizeof(zero));

  BinaryReader reader(bytes);
  auto restored =
      FrozenRTreePoints2D::Deserialize(reader, BorrowContext{}, frozen.size());
  ASSERT_FALSE(restored.ok());
  EXPECT_NE(restored.status().message().find("child link"), std::string::npos)
      << restored.status().ToString();
}

TEST(FrozenRTreeTest, NodesThatDoNotFormOneTreeAreRejected) {
  // Forward links and a right leaf total are not enough: a parent listing
  // one child twice, or two leaves sharing entries, would make a descent
  // meet an entry twice. Each forgery must fail in every backing.
  const auto entries = RandomPoints(600, 57);
  const auto frozen = FrozenRTreePoints2D::Build(entries);
  ASSERT_EQ(frozen.Height(), 2);  // Root, then leaves 1..L.
  BinaryWriter writer;
  frozen.SerializeTo(writer);
  const std::vector<std::byte> bytes = writer.TakeBytes();

  // Byte offsets of the node array and the child link array.
  BinaryReader scan(bytes);
  uint64_t size = 0;
  int32_t height = 0;
  ASSERT_TRUE(scan.ReadU64(&size).ok());
  ASSERT_TRUE(scan.ReadI32(&height).ok());
  std::span<const FrozenRTreePoints2D::Node> nodes;
  std::span<const Rect> child_boxes;
  std::span<const uint32_t> child_nodes;
  ASSERT_TRUE(scan.ReadArrayView(&nodes).ok());
  const size_t nodes_at =
      scan.offset() - nodes.size() * sizeof(FrozenRTreePoints2D::Node);
  ASSERT_TRUE(scan.ReadArrayView(&child_boxes).ok());
  ASSERT_TRUE(scan.ReadArrayView(&child_nodes).ok());
  const size_t links_at = scan.offset() - child_nodes.size() * sizeof(uint32_t);
  ASSERT_GE(child_nodes.size(), 2u);
  ASSERT_TRUE(nodes[1].is_leaf && nodes[2].is_leaf);

  std::vector<std::pair<std::string, std::vector<std::byte>>> forgeries;
  std::vector<std::byte> twice = bytes;
  const uint32_t first_child = child_nodes[0];
  std::memcpy(twice.data() + links_at + sizeof(uint32_t), &first_child,
              sizeof(first_child));
  forgeries.emplace_back("node linked twice", twice);
  std::vector<std::byte> overlap = bytes;
  FrozenRTreePoints2D::Node leaf = nodes[1];
  leaf.first = nodes[2].first;
  std::memcpy(overlap.data() + nodes_at + sizeof(leaf), &leaf, sizeof(leaf));
  forgeries.emplace_back("leaf ranges overlap", overlap);

  for (const auto& [what, forged] : forgeries) {
    const auto buffer = std::make_shared<std::vector<std::byte>>(forged);
    BorrowContext borrow;
    borrow.borrow = true;
    borrow.keepalive = buffer;
    BorrowContext paged;
    paged.paged = std::make_shared<PoisoningSource>(*buffer);
    for (const BorrowContext& ctx : {BorrowContext{}, borrow, paged}) {
      BinaryReader reader(*buffer);
      auto restored = FrozenRTreePoints2D::Deserialize(reader, ctx, size);
      ASSERT_FALSE(restored.ok()) << what;
      EXPECT_EQ(restored.status().code(), StatusCode::kInvalidArgument);
      EXPECT_NE(restored.status().message().find(what), std::string::npos)
          << restored.status().ToString();
    }
  }
}

TEST(FrozenRTreeTest, LeafIdsAtOrAboveTheLimitAreRejected) {
  // Ids are 0..n-1: a limit of n accepts the tree, n - 1 rejects it in
  // every backing, so a caller indexing with the ids never sees one out
  // of its range.
  const auto entries = RandomPoints(600, 53);
  const auto frozen = FrozenRTreePoints2D::Build(entries);
  BinaryWriter writer;
  frozen.SerializeTo(writer);
  const auto buffer = std::make_shared<std::vector<std::byte>>(writer.bytes());
  BorrowContext borrow;
  borrow.borrow = true;
  borrow.keepalive = buffer;
  BorrowContext paged;
  paged.paged = std::make_shared<PoisoningSource>(*buffer);
  for (const BorrowContext& ctx : {BorrowContext{}, borrow, paged}) {
    BinaryReader accept(*buffer);
    EXPECT_TRUE(
        FrozenRTreePoints2D::Deserialize(accept, ctx, entries.size()).ok());
    BinaryReader reject(*buffer);
    auto restored =
        FrozenRTreePoints2D::Deserialize(reject, ctx, entries.size() - 1);
    ASSERT_FALSE(restored.ok());
    EXPECT_EQ(restored.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(restored.status().message().find("leaf id out of range"),
              std::string::npos)
        << restored.status().ToString();
  }
}

TEST(FrozenRTreeTest, LeafCheckSeesEveryLeafAndCanRejectTheTree) {
  // The caller's leaf check runs over the materialized leaves, paged
  // loads included, and its error is the load's error.
  const auto entries = RandomPoints(600, 55);
  const auto frozen = FrozenRTreePoints2D::Build(entries);
  BinaryWriter writer;
  frozen.SerializeTo(writer);
  BorrowContext paged;
  paged.paged = std::make_shared<PoisoningSource>(writer.bytes());
  for (const BorrowContext& ctx : {BorrowContext{}, paged}) {
    std::vector<uint64_t> seen;
    BinaryReader reader(writer.bytes());
    auto restored = FrozenRTreePoints2D::Deserialize(
        reader, ctx, entries.size(),
        [&](std::span<const Point2D> geoms, std::span<const uint64_t> ids) {
          EXPECT_EQ(geoms.size(), ids.size());
          for (size_t i = 0; i < ids.size(); ++i) {
            EXPECT_EQ(geoms[i], entries[ids[i]].first);
          }
          seen.assign(ids.begin(), ids.end());
          return Status::InvalidArgument("rejected by the caller");
        });
    ASSERT_FALSE(restored.ok());
    EXPECT_EQ(restored.status().message(), "rejected by the caller");
    std::sort(seen.begin(), seen.end());
    ASSERT_EQ(seen.size(), entries.size());
    for (size_t i = 0; i < seen.size(); ++i) EXPECT_EQ(seen[i], i);
  }
}

// ---------------------------------------------------------------------------
// Golden layout. The STR packing is part of the on-disk format: snapshot
// bytes, kPaged page-touch patterns and the hit order of every query follow
// from it. These XXH64 digests of SerializeTo pin the packed bytes of all
// four instantiations on inputs with tied coordinates (a 16-step grid) and
// duplicate ids, serial and on a pool. A builder change that moves one byte
// fails here.

double GridCoord(Rng& rng) { return static_cast<double>(rng.NextBounded(16)); }

template <typename LeafT>
LeafT GoldenGeom(Rng& rng) {
  if constexpr (std::is_same_v<LeafT, Point2D>) {
    const double x = GridCoord(rng);
    return Point2D{x, GridCoord(rng)};
  } else if constexpr (std::is_same_v<LeafT, Point3D>) {
    const double x = GridCoord(rng);
    const double y = GridCoord(rng);
    return Point3D{x, y, GridCoord(rng)};
  } else if constexpr (std::is_same_v<LeafT, Rect>) {
    const double x = GridCoord(rng);
    const double y = GridCoord(rng);
    const double w = GridCoord(rng) / 4;
    return Rect(x, y, x + w, y + GridCoord(rng) / 4);
  } else {
    const double x = GridCoord(rng);
    const double y = GridCoord(rng);
    const double z = GridCoord(rng);
    return Box3D::VerticalSegment(x, y, z, z + GridCoord(rng));
  }
}

template <typename LeafT>
std::vector<std::pair<LeafT, uint64_t>> GoldenEntries(size_t n,
                                                      uint64_t seed) {
  Rng rng(seed);
  std::vector<std::pair<LeafT, uint64_t>> entries;
  for (size_t i = 0; i < n; ++i) {
    // Roughly every other id repeats.
    entries.emplace_back(GoldenGeom<LeafT>(rng), rng.NextBounded(n / 2 + 1));
  }
  return entries;
}

template <typename BoxT, typename LeafT>
uint64_t LayoutDigest(const FrozenRTree<BoxT, LeafT>& tree) {
  BinaryWriter writer;
  tree.SerializeTo(writer);
  return XxHash64(writer.bytes().data(), writer.bytes().size());
}

template <typename BoxT, typename LeafT>
void ExpectGoldenLayout(uint64_t seed, const uint64_t (&digests)[4]) {
  const size_t sizes[4] = {0, 1, 33, 5000};
  exec::ThreadPool pool(4);
  for (int i = 0; i < 4; ++i) {
    const auto entries = GoldenEntries<LeafT>(sizes[i], seed + i);
    EXPECT_EQ(LayoutDigest(FrozenRTree<BoxT, LeafT>::Build(entries)),
              digests[i])
        << "n = " << sizes[i];
    EXPECT_EQ(LayoutDigest(FrozenRTree<BoxT, LeafT>::Build(entries, &pool)),
              digests[i])
        << "n = " << sizes[i] << " on 4 threads";
  }
}

TEST(FrozenRTreeGoldenTest, Points2D) {
  ExpectGoldenLayout<Rect, Point2D>(
      101, {0x980d0b8e72041fe5ull, 0xd06d51b92b5b3b3aull,
            0x1812480c1fe39b1dull, 0xbaacdadaa984b9d3ull});
}

TEST(FrozenRTreeGoldenTest, Rects2D) {
  ExpectGoldenLayout<Rect, Rect>(
      201, {0x980d0b8e72041fe5ull, 0xa4017c731cad1ef5ull,
            0x35185da5eba78064ull, 0x67a52889a6997d79ull});
}

TEST(FrozenRTreeGoldenTest, Points3D) {
  ExpectGoldenLayout<Box3D, Point3D>(
      301, {0x980d0b8e72041fe5ull, 0x4362d232d6ed414dull,
            0x808dd0c89032f757ull, 0xe081a218aaee79f4ull});
}

TEST(FrozenRTreeGoldenTest, Segments3D) {
  ExpectGoldenLayout<Box3D, Box3D>(
      401, {0x980d0b8e72041fe5ull, 0x1e190abc0fb788feull,
            0x26096b199c2f60e7ull, 0x1822e3ce7c52d8d6ull});
}

}  // namespace
}  // namespace gsr
