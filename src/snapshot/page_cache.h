#ifndef GSR_SNAPSHOT_PAGE_CACHE_H_
#define GSR_SNAPSHOT_PAGE_CACHE_H_

#include <atomic>
#include <bit>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>

#include "common/paged_array.h"
#include "common/status.h"
#include "snapshot/format.h"
#include "snapshot/paged_file.h"

namespace gsr::snapshot {

/// A fixed-budget page cache over a PagedFile — the PagedSource behind
/// LoadMode::kPaged. Unlike mmap, residency is explicit: at most
/// `budget_bytes` of file pages are ever in memory, whatever the index
/// size, plus a page table of 4 bytes per file page, and every
/// hit/miss/eviction is counted. Pages are kPageAlignment bytes, the
/// unit the snapshot format aligns sections and arrays to, so no page
/// spans two sections.
///
/// Under SnapshotReader the budget is split: the cache gets 7/8 of the
/// load's page_cache_bytes (never fewer than kMinFrames frames) and the
/// rest pays for resident R-tree prefixes that cursors serve without
/// pinning (see PagedArray). The two together stay within
/// page_cache_bytes above the frame floor.
///
/// Replacement is clock (second-chance): frames sit in one arena, a hand
/// sweeps them circularly, a referenced bit grants one extra sweep of
/// life, and pinned or mid-load frames are skipped. Pins are held by
/// PagedArrayCursor for the duration of one chunk access (at most one
/// page per live cursor), so descents read node chunks zero-copy out of
/// the arena.
///
/// When every frame is pinned or loading, PinPage returns nullptr and
/// the caller falls back to Read(), which serves the stragglers with a
/// direct pread (counted as a bypass). That keeps the cache strictly
/// non-blocking on capacity: no pin ever waits on another pin, so
/// concurrent descents cannot deadlock however small the budget.
///
/// Concurrency. A hit takes no lock. Each frame owns one cache line with
/// a state word — a kBusy bit (frame loading or being recycled) plus the
/// pin count — its page number, its referenced bit and its hit counter.
/// A dense page table maps page -> frame + 1 (0 = not resident). A hit
/// loads the table entry, CASes the pin count up only while kBusy is
/// clear, and then re-checks the frame's page number: between the table
/// load and the pin the frame may have been recycled for another page,
/// and a pinned frame can no longer be recycled, so a matching page
/// number after the pin proves the bytes are the requested page. On a
/// mismatch the hit unpins and takes the slow path. UnpinPage is one
/// atomic decrement.
///
/// Misses, evictions and Drop() stay under `mu_`. A victim is claimed
/// with a CAS of its state from 0 (unpinned, settled) to kBusy, so a
/// racing pin either wins (the sweep skips the frame) or sees kBusy. The
/// loader preads unlocked, then publishes the frame with a release store
/// of state = 1 (its own pin) under `mu_`; threads that met the frame
/// busy wait on `load_done_`. A failed load resets the frame to state 0
/// with no page. GetStats() sums the per-frame hit counters, so it is
/// exact once every pinner is quiescent.
class PageCache final : public PagedSource {
 public:
  /// Counter snapshot, drained like query counters. Exact once pinners
  /// are quiescent; a read racing live pins may miss in-flight hits.
  struct Stats {
    uint64_t hits = 0;
    uint64_t misses = 0;       // Frame loads (each implies one page pread).
    uint64_t evictions = 0;    // Valid frames recycled for another page.
    uint64_t bypass_reads = 0; // Direct preads when no frame was available.
  };

  static constexpr size_t kMinFrames = 4;

  /// `budget_bytes` is rounded down to whole pages and clamped to at
  /// least kMinFrames pages so tiny budgets still make progress.
  PageCache(std::shared_ptr<PagedFile> file, size_t budget_bytes);
  ~PageCache() override;

  PageCache(const PageCache&) = delete;
  PageCache& operator=(const PageCache&) = delete;

  // PagedSource implementation.
  size_t page_size() const override { return kPageAlignment; }
  Status Read(uint64_t offset, size_t len, void* out) override;
  const std::byte* PinPage(uint64_t page_no, void** handle) override;
  void UnpinPage(void* handle) override;
  void Prefetch(uint64_t offset, size_t len) override;

  size_t num_frames() const { return num_frames_; }
  size_t budget_bytes() const { return num_frames_ * kPageAlignment; }
  uint64_t file_size() const { return file_->size(); }

  Stats GetStats() const;
  void ResetStats();

  /// Invalidates every unpinned frame — the cold-start reset for
  /// benchmarks. (Page-cache state in the KERNEL is separate; cold-page
  /// benchmarks drop that too, via their own fadvise(DONTNEED) pass.)
  void Drop();

 private:
  static constexpr uint32_t kBusy = 1u << 31;  // State bit; rest = pins.
  static constexpr uint64_t kNoPage = ~uint64_t{0};
  static constexpr int kPageShift = std::countr_zero(kPageAlignment);

  /// One cache line per frame: a hit writes only its own frame's line.
  struct alignas(64) Frame {
    std::atomic<uint32_t> state{0};
    std::atomic<uint64_t> page_no{kNoPage};  // Written only while kBusy.
    std::atomic<bool> ref{false};            // Second-chance bit.
    std::atomic<uint64_t> hits{0};
  };

  std::byte* FrameData(size_t idx) {
    return arena_.get() + idx * kPageAlignment;
  }

  /// Lock-free pin of a resident, settled frame holding `page_no`;
  /// nullptr sends the caller to the locked slow path.
  const std::byte* TryPinResident(uint64_t page_no, void** handle);

  /// CAS of an unpinned, settled frame's state 0 -> kBusy. Caller holds
  /// `mu_`.
  static bool Claim(Frame& frame);

  /// Clock sweep for a reusable frame, returned claimed (state kBusy);
  /// -1 when all are pinned/loading. Caller holds `mu_`.
  int FindVictim();

  const std::shared_ptr<PagedFile> file_;
  uint64_t file_pages_ = 0;

  std::unique_ptr<std::byte[]> arena_;
  size_t num_frames_ = 0;
  std::unique_ptr<Frame[]> frames_;
  /// page -> frame index + 1, 0 when not resident. Written under `mu_`.
  std::unique_ptr<std::atomic<uint32_t>[]> page_table_;

  mutable std::mutex mu_;
  std::condition_variable load_done_;
  size_t hand_ = 0;

  uint64_t misses_ = 0;
  uint64_t evictions_ = 0;
  std::atomic<uint64_t> bypass_reads_{0};
};

}  // namespace gsr::snapshot

#endif  // GSR_SNAPSHOT_PAGE_CACHE_H_
