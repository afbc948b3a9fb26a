#include "snapshot/page_cache.h"

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "common/check.h"
#include "common/rng.h"
#include "exec/thread_pool.h"
#include "snapshot/paged_file.h"

namespace gsr::snapshot {
namespace {

/// The explicit-cache contract behind LoadMode::kPaged: a hard frame
/// budget, clock/second-chance replacement, non-blocking pins (bypass
/// preads instead of waiting), and exact counter accounting — including
/// under concurrent readers racing evictions and Drop() on the lock-free
/// hit path.

constexpr size_t kPage = kPageAlignment;
constexpr size_t kFullPages = 16;
constexpr size_t kTail = 100;  // A partial final page.
constexpr size_t kFileSize = kFullPages * kPage + kTail;

uint8_t ByteAt(size_t i) { return static_cast<uint8_t>(i * 131 + 17); }

std::string WriteFixture(const std::string& name) {
  std::string path = ::testing::TempDir();
  if (!path.empty() && path.back() != '/') path += '/';
  path += name;
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  for (size_t i = 0; i < kFileSize; ++i) {
    const char c = static_cast<char>(ByteAt(i));
    out.write(&c, 1);
  }
  EXPECT_TRUE(out.good()) << path;
  return path;
}

std::shared_ptr<PageCache> OpenCache(const std::string& path,
                                     size_t budget_bytes) {
  auto file = PagedFile::Open(path);
  GSR_CHECK(file.ok());
  return std::make_shared<PageCache>(std::move(file).value(), budget_bytes);
}

void ExpectBytes(const PageCache& cache_const, uint64_t offset, size_t len) {
  auto& cache = const_cast<PageCache&>(cache_const);
  std::vector<uint8_t> got(len);
  ASSERT_TRUE(cache.Read(offset, len, got.data()).ok())
      << "offset " << offset << " len " << len;
  for (size_t i = 0; i < len; ++i) {
    ASSERT_EQ(got[i], ByteAt(offset + i)) << "offset " << offset + i;
  }
}

TEST(PageCacheTest, ReadsMatchFileAcrossPageBoundaries) {
  const std::string path = WriteFixture("pc_reads.bin");
  auto cache = OpenCache(path, 4 * kPage);
  EXPECT_EQ(cache->page_size(), kPage);
  EXPECT_EQ(cache->file_size(), kFileSize);

  ExpectBytes(*cache, 0, kPage);                    // Whole first page.
  ExpectBytes(*cache, 10, 20);                      // Inside one page.
  ExpectBytes(*cache, kPage - 5, 10);               // Straddles a boundary.
  ExpectBytes(*cache, 0, 5 * kPage);                // More pages than frames.
  ExpectBytes(*cache, kFullPages * kPage, kTail);   // The partial tail.
  ExpectBytes(*cache, kFileSize - 3, 3);            // Last bytes.

  const PageCache::Stats stats = cache->GetStats();
  EXPECT_GT(stats.misses, 0u);
  EXPECT_GT(stats.hits, 0u);
}

TEST(PageCacheTest, FrameCountClampsToBudgetAndFile) {
  const std::string path = WriteFixture("pc_frames.bin");
  // A 1-byte budget clamps up to kMinFrames.
  EXPECT_EQ(OpenCache(path, 1)->num_frames(), PageCache::kMinFrames);
  // A huge budget clamps down to the file's page count (16 full + tail).
  EXPECT_EQ(OpenCache(path, 1u << 20)->num_frames(), kFullPages + 1);
  EXPECT_EQ(OpenCache(path, 8 * kPage)->num_frames(), 8u);
}

TEST(PageCacheTest, SinglePageReadsCountExactlyOnce) {
  const std::string path = WriteFixture("pc_counts.bin");
  auto cache = OpenCache(path, 8 * kPage);
  // 6 distinct pages, then the same 6 again: 6 misses, 6 hits, 0 of
  // anything else — every aligned single-page read is exactly one event.
  for (int round = 0; round < 2; ++round) {
    for (size_t p = 0; p < 6; ++p) ExpectBytes(*cache, p * kPage, kPage);
  }
  const PageCache::Stats stats = cache->GetStats();
  EXPECT_EQ(stats.misses, 6u);
  EXPECT_EQ(stats.hits, 6u);
  EXPECT_EQ(stats.evictions, 0u);
  EXPECT_EQ(stats.bypass_reads, 0u);

  cache->ResetStats();
  const PageCache::Stats zero = cache->GetStats();
  EXPECT_EQ(zero.misses + zero.hits + zero.evictions + zero.bypass_reads, 0u);
}

TEST(PageCacheTest, PinnedFramesForceBypassNotBlocking) {
  const std::string path = WriteFixture("pc_pins.bin");
  auto cache = OpenCache(path, 4 * kPage);
  ASSERT_EQ(cache->num_frames(), 4u);

  // Pin every frame.
  void* handles[4] = {};
  const std::byte* datas[4] = {};
  for (uint64_t p = 0; p < 4; ++p) {
    datas[p] = cache->PinPage(p, &handles[p]);
    ASSERT_NE(datas[p], nullptr);
    EXPECT_EQ(std::to_integer<uint8_t>(datas[p][0]), ByteAt(p * kPage));
  }

  // No frame to spare: a fifth pin fails fast instead of waiting...
  void* extra = nullptr;
  EXPECT_EQ(cache->PinPage(4, &extra), nullptr);
  // ...and Read still makes progress via a direct bypass pread.
  ExpectBytes(*cache, 4 * kPage, kPage);
  EXPECT_EQ(cache->GetStats().bypass_reads, 1u);
  EXPECT_EQ(cache->GetStats().evictions, 0u);

  // Pinned contents must stay put through the churn.
  for (uint64_t p = 0; p < 4; ++p) {
    EXPECT_EQ(std::to_integer<uint8_t>(datas[p][kPage - 1]),
              ByteAt(p * kPage + kPage - 1));
  }

  // Releasing one pin makes that frame (and only that frame) evictable.
  cache->UnpinPage(handles[0]);
  void* h4 = nullptr;
  const std::byte* page4 = cache->PinPage(4, &h4);
  ASSERT_NE(page4, nullptr);
  EXPECT_EQ(std::to_integer<uint8_t>(page4[7]), ByteAt(4 * kPage + 7));
  EXPECT_EQ(cache->GetStats().evictions, 1u);
  cache->UnpinPage(h4);
  for (int p = 1; p < 4; ++p) cache->UnpinPage(handles[p]);
}

TEST(PageCacheTest, SecondChanceSparesReferencedFrames) {
  const std::string path = WriteFixture("pc_clock.bin");
  auto cache = OpenCache(path, 4 * kPage);
  ASSERT_EQ(cache->num_frames(), 4u);

  // Fill frames 0..3 with pages 0..3; all carry a fresh reference bit.
  for (uint64_t p = 0; p < 4; ++p) ExpectBytes(*cache, p * kPage, kPage);
  // Page 4: the sweep strips every reference bit, then recycles the frame
  // holding page 0. Pages 1..3 are now resident but unreferenced.
  ExpectBytes(*cache, 4 * kPage, kPage);
  // Re-touch page 1: its frame regains the reference bit.
  ExpectBytes(*cache, 1 * kPage, kPage);
  // Page 5: the hand reaches page 1's frame first, but the reference bit
  // buys it a second chance — the victim is page 2's frame instead.
  ExpectBytes(*cache, 5 * kPage, kPage);

  PageCache::Stats before = cache->GetStats();
  ExpectBytes(*cache, 1 * kPage, kPage);  // Survived: a hit.
  PageCache::Stats after = cache->GetStats();
  EXPECT_EQ(after.hits, before.hits + 1);
  EXPECT_EQ(after.misses, before.misses);

  before = after;
  ExpectBytes(*cache, 2 * kPage, kPage);  // Evicted: a miss.
  after = cache->GetStats();
  EXPECT_EQ(after.misses, before.misses + 1);
}

TEST(PageCacheTest, DropInvalidatesUnpinnedFramesOnly) {
  const std::string path = WriteFixture("pc_drop.bin");
  auto cache = OpenCache(path, 4 * kPage);

  void* handle = nullptr;
  ASSERT_NE(cache->PinPage(0, &handle), nullptr);
  ExpectBytes(*cache, 1 * kPage, kPage);
  cache->Drop();
  cache->ResetStats();

  ExpectBytes(*cache, 0, kPage);  // Pinned frame survived the drop: hit.
  EXPECT_EQ(cache->GetStats().hits, 1u);
  ExpectBytes(*cache, 1 * kPage, kPage);  // Unpinned frame was dropped.
  EXPECT_EQ(cache->GetStats().misses, 1u);
  cache->UnpinPage(handle);
}

TEST(PageCacheTest, OutOfRangeAccessFailsCleanly) {
  const std::string path = WriteFixture("pc_oob.bin");
  auto cache = OpenCache(path, 4 * kPage);

  std::vector<uint8_t> buf(kPage);
  EXPECT_FALSE(cache->Read(kFileSize + kPage, kPage, buf.data()).ok());
  void* handle = nullptr;
  EXPECT_EQ(cache->PinPage(kFullPages + 1, &handle), nullptr);
  // Prefetch is advisory: out-of-range is simply ignored.
  cache->Prefetch(kFileSize + kPage, kPage);
  cache->Prefetch(0, kFileSize);
  ExpectBytes(*cache, 0, kPage);
}

TEST(PageCacheTest, ConcurrentReadersAccountExactly) {
  const std::string path = WriteFixture("pc_mt.bin");
  auto cache = OpenCache(path, 4 * kPage);  // Far fewer frames than pages.

  exec::ThreadPool pool(exec::ThreadPool::DefaultThreads());
  constexpr size_t kReads = 2000;
  pool.ParallelFor(kReads, 16, [&](size_t index, unsigned) {
    // Every read is one aligned full page, so it lands as exactly one
    // hit, miss, or bypass — the totals below must add up regardless of
    // interleaving.
    const uint64_t p = index % kFullPages;
    uint8_t buf[kPage];
    GSR_CHECK(cache->Read(p * kPage, kPage, buf).ok());
    for (size_t i = 0; i < kPage; i += 37) {
      GSR_CHECK(buf[i] == ByteAt(p * kPage + i));
    }
  });

  const PageCache::Stats stats = cache->GetStats();
  EXPECT_EQ(stats.hits + stats.misses + stats.bypass_reads, kReads);
  EXPECT_GT(stats.misses, 0u);
  EXPECT_LE(stats.evictions, stats.misses);

  // Concurrent pin/unpin churn on a shared hot page: contents stay valid
  // for every holder however the frames recycle underneath.
  pool.ParallelFor(512, 8, [&](size_t index, unsigned) {
    void* handle = nullptr;
    if (const std::byte* data = cache->PinPage(index % 3, &handle)) {
      GSR_CHECK(std::to_integer<uint8_t>(data[5]) ==
                ByteAt((index % 3) * kPage + 5));
      cache->UnpinPage(handle);
    }
    uint8_t buf[kPage];
    const uint64_t p = (index * 7) % kFullPages;
    GSR_CHECK(cache->Read(p * kPage, kPage, buf).ok());
    GSR_CHECK(buf[11] == ByteAt(p * kPage + 11));
  });
}

TEST(PageCacheTest, LockFreeHitsNeverSeeARecycledFrame) {
  // Every page is filled with its own page number, so a pin that lands on
  // a frame recycled for another page between the page-table lookup and
  // the pin (including an ABA recycle back and forth) shows up as wrong
  // bytes. Four pinners over far more pages than frames keep the clock
  // recycling frames under their hits, while a fifth thread Drop()s.
  constexpr size_t kPages = 64;
  constexpr size_t kWords = kPage / sizeof(uint32_t);
  std::string path = ::testing::TempDir();
  if (!path.empty() && path.back() != '/') path += '/';
  path += "pc_aba.bin";
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    for (uint32_t p = 0; p < kPages; ++p) {
      const std::vector<uint32_t> words(kWords, p);
      out.write(reinterpret_cast<const char*>(words.data()), kPage);
    }
    ASSERT_TRUE(out.good()) << path;
  }
  auto cache = OpenCache(path, PageCache::kMinFrames * kPage);
  ASSERT_EQ(cache->num_frames(), PageCache::kMinFrames);

  constexpr unsigned kPinners = 4;
  constexpr uint64_t kTouchesPerThread = 20000;
  std::atomic<unsigned> running{kPinners};
  std::vector<std::thread> threads;
  for (unsigned t = 0; t < kPinners; ++t) {
    threads.emplace_back([&cache, &running, t] {
      Rng rng(500 + t);
      uint32_t words[kWords];
      for (uint64_t i = 0; i < kTouchesPerThread; ++i) {
        const uint32_t p = static_cast<uint32_t>(rng.NextBounded(kPages));
        // One touch is one pin, or one aligned page Read when no frame
        // is free — each lands as exactly one hit, miss or bypass.
        void* handle = nullptr;
        const std::byte* data = cache->PinPage(p, &handle);
        if (data != nullptr) {
          std::memcpy(words, data, kPage);
        } else {
          GSR_CHECK(cache->Read(uint64_t{p} * kPage, kPage, words).ok());
        }
        for (size_t w = 0; w < kWords; ++w) GSR_CHECK(words[w] == p);
        if (data != nullptr) cache->UnpinPage(handle);
      }
      running.fetch_sub(1);
    });
  }
  threads.emplace_back([&cache, &running] {
    while (running.load() > 0) {
      cache->Drop();
      std::this_thread::yield();
    }
  });
  for (std::thread& thread : threads) thread.join();

  const PageCache::Stats stats = cache->GetStats();
  EXPECT_EQ(stats.hits + stats.misses + stats.bypass_reads,
            kPinners * kTouchesPerThread);
  EXPECT_GT(stats.hits, 0u);
  EXPECT_GT(stats.evictions, 0u);
}

}  // namespace
}  // namespace gsr::snapshot
