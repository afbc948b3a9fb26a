#include "common/paged_array.h"

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <vector>

namespace gsr {
namespace {

/// The resident-prefix contract of PagedArrayCursor: runs inside the
/// prefix never reach the PagedSource, runs that straddle or pass the
/// prefix boundary read exactly the bytes an all-paged cursor reads.

constexpr size_t kPage = 64;        // Small pages: chunks straddle often.
constexpr uint64_t kOffset = 24;    // Element 0 sits mid-page.
constexpr size_t kCount = 100;

uint64_t ValueAt(size_t i) { return i * 0x9E3779B97F4A7C15ull + 7; }

/// An in-memory PagedSource that counts every call it serves.
class CountingSource final : public PagedSource {
 public:
  CountingSource() : bytes_((kOffset + kCount * 8 + kPage) / kPage * kPage) {
    for (size_t i = 0; i < kCount; ++i) {
      const uint64_t v = ValueAt(i);
      std::memcpy(bytes_.data() + kOffset + i * 8, &v, 8);
    }
  }

  size_t page_size() const override { return kPage; }
  Status Read(uint64_t offset, size_t len, void* out) override {
    ++reads;
    std::memcpy(out, bytes_.data() + offset, len);
    return Status::Ok();
  }
  const std::byte* PinPage(uint64_t page_no, void** handle) override {
    ++pins;
    *handle = nullptr;
    return bytes_.data() + page_no * kPage;
  }
  void UnpinPage(void*) override { ++unpins; }
  void Prefetch(uint64_t, size_t) override { ++prefetches; }

  size_t calls() const { return reads + pins + prefetches; }

  size_t reads = 0;
  size_t pins = 0;
  size_t unpins = 0;
  size_t prefetches = 0;

 private:
  std::vector<std::byte> bytes_;
};

PagedArray<uint64_t> MakeArray(const std::shared_ptr<CountingSource>& source,
                               size_t resident_count) {
  PagedArray<uint64_t> array;
  array.source = source;
  array.file_offset = kOffset;
  array.count = kCount;
  for (size_t i = 0; i < resident_count; ++i) {
    array.resident.push_back(ValueAt(i));
  }
  return array;
}

using Cursor = PagedArrayCursor<uint64_t, 8>;

TEST(PagedArrayTest, ReadsInsideThePrefixNeverTouchTheSource) {
  auto source = std::make_shared<CountingSource>();
  const PagedArray<uint64_t> array = MakeArray(source, 40);
  {
    Cursor cursor(array);
    for (size_t i = 0; i < 40; ++i) EXPECT_EQ(cursor.At(i), ValueAt(i));
    const uint64_t* chunk = cursor.Chunk(32, 8);
    for (size_t k = 0; k < 8; ++k) EXPECT_EQ(chunk[k], ValueAt(32 + k));
    std::vector<uint64_t> all(40);
    cursor.ReadInto(0, 40, all.data());
    for (size_t i = 0; i < 40; ++i) EXPECT_EQ(all[i], ValueAt(i));
    cursor.Prefetch(0, 40);
  }
  EXPECT_EQ(source->calls(), 0u);
  EXPECT_EQ(source->unpins, 0u);
}

TEST(PagedArrayTest, BoundaryStraddlingRunsMatchAnAllPagedCursor) {
  auto source = std::make_shared<CountingSource>();
  const PagedArray<uint64_t> partial = MakeArray(source, 40);
  const PagedArray<uint64_t> paged = MakeArray(source, 0);
  Cursor a(partial);
  Cursor b(paged);
  for (size_t base = 33; base <= 40; ++base) {
    // Bases 33..39 straddle the boundary at 40; base 40 starts past it.
    const uint64_t* pa = a.Chunk(base, 8);
    const std::vector<uint64_t> got(pa, pa + 8);
    const uint64_t* pb = b.Chunk(base, 8);
    EXPECT_EQ(std::memcmp(got.data(), pb, 8 * sizeof(uint64_t)), 0)
        << "base " << base;
    for (size_t k = 0; k < 8; ++k) EXPECT_EQ(got[k], ValueAt(base + k));
  }
  std::vector<uint64_t> ra(20);
  std::vector<uint64_t> rb(20);
  a.ReadInto(30, 20, ra.data());
  b.ReadInto(30, 20, rb.data());
  EXPECT_EQ(ra, rb);
  EXPECT_GT(source->calls(), 0u);
}

TEST(PagedArrayTest, EmptyAndFullPrefixesReadEveryElement) {
  for (const size_t prefix : {size_t{0}, kCount}) {
    auto source = std::make_shared<CountingSource>();
    const PagedArray<uint64_t> array = MakeArray(source, prefix);
    {
      Cursor cursor(array);
      for (size_t i = 0; i < kCount; ++i) {
        EXPECT_EQ(cursor.At(i), ValueAt(i)) << "prefix " << prefix;
      }
      for (size_t base = 0; base + 8 <= kCount; base += 3) {
        const uint64_t* chunk = cursor.Chunk(base, 8);
        for (size_t k = 0; k < 8; ++k) {
          EXPECT_EQ(chunk[k], ValueAt(base + k)) << "prefix " << prefix;
        }
      }
    }
    if (prefix == kCount) {
      EXPECT_EQ(source->calls(), 0u);
    } else {
      EXPECT_GT(source->pins, 0u);
      EXPECT_EQ(source->pins, source->unpins);
    }
  }
}

}  // namespace
}  // namespace gsr
