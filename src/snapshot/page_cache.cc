#include "snapshot/page_cache.h"

#include <algorithm>
#include <cstring>

#include "common/check.h"

namespace gsr::snapshot {

PageCache::PageCache(std::shared_ptr<PagedFile> file, size_t budget_bytes)
    : file_(std::move(file)) {
  GSR_CHECK(file_ != nullptr);
  file_pages_ = (file_->size() + kPageAlignment - 1) / kPageAlignment;
  size_t frames = std::max<size_t>(budget_bytes / kPageAlignment, kMinFrames);
  // Never hold more frames than the file has pages.
  frames = std::min<uint64_t>(frames, std::max<uint64_t>(file_pages_, 1));
  GSR_CHECK(frames < kBusy);
  arena_ = std::make_unique<std::byte[]>(frames * kPageAlignment);
  num_frames_ = frames;
  frames_ = std::make_unique<Frame[]>(frames);
  page_table_ = std::make_unique<std::atomic<uint32_t>[]>(file_pages_);
}

PageCache::~PageCache() {
#if !defined(NDEBUG)
  for (size_t i = 0; i < num_frames_; ++i) {
    GSR_DCHECK(frames_[i].state.load(std::memory_order_relaxed) == 0);
  }
#endif
}

bool PageCache::Claim(Frame& frame) {
  // A pin racing this claim either lands first (the CAS fails and the
  // frame is skipped) or finds kBusy and goes to the slow path.
  uint32_t expected = 0;
  return frame.state.compare_exchange_strong(expected, kBusy,
                                             std::memory_order_acquire,
                                             std::memory_order_relaxed);
}

int PageCache::FindVictim() {
  // Two sweeps: the first clears reference bits (second chance), the
  // second takes the first unreferenced, unpinned, settled frame. 2N
  // steps bound the walk; if nothing is evictable by then, every frame
  // is pinned or loading.
  for (size_t step = 0; step < 2 * num_frames_; ++step) {
    Frame& frame = frames_[hand_];
    const size_t idx = hand_;
    hand_ = (hand_ + 1) % num_frames_;
    if (frame.state.load(std::memory_order_relaxed) != 0) continue;
    if (frame.ref.load(std::memory_order_relaxed) &&
        frame.page_no.load(std::memory_order_relaxed) != kNoPage) {
      frame.ref.store(false, std::memory_order_relaxed);
      continue;
    }
    if (Claim(frame)) return static_cast<int>(idx);
  }
  return -1;
}

const std::byte* PageCache::TryPinResident(uint64_t page_no, void** handle) {
  const uint32_t slot = page_table_[page_no].load(std::memory_order_acquire);
  if (slot == 0) return nullptr;
  Frame& frame = frames_[slot - 1];
  uint32_t state = frame.state.load(std::memory_order_relaxed);
  do {
    if ((state & kBusy) != 0) return nullptr;
  } while (!frame.state.compare_exchange_weak(state, state + 1,
                                              std::memory_order_acquire,
                                              std::memory_order_relaxed));
  // The frame may have been recycled between the table load and the pin;
  // now that it is pinned it cannot be, so a matching page number means
  // the frame holds this page.
  if (frame.page_no.load(std::memory_order_relaxed) != page_no) {
    frame.state.fetch_sub(1, std::memory_order_release);
    return nullptr;
  }
  if (!frame.ref.load(std::memory_order_relaxed)) {
    frame.ref.store(true, std::memory_order_relaxed);
  }
  frame.hits.fetch_add(1, std::memory_order_relaxed);
  *handle = reinterpret_cast<void*>(static_cast<uintptr_t>(slot));
  return FrameData(slot - 1);
}

const std::byte* PageCache::PinPage(uint64_t page_no, void** handle) {
  if (page_no >= file_pages_) return nullptr;
  if (const std::byte* data = TryPinResident(page_no, handle)) return data;

  const uint64_t page_off = page_no * kPageAlignment;
  const size_t load_len = static_cast<size_t>(
      std::min<uint64_t>(kPageAlignment, file_->size() - page_off));

  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    // Under `mu_` the table is authoritative (it only changes under the
    // lock), and a frame is kBusy only while its loader is mid-pread.
    const uint32_t slot = page_table_[page_no].load(std::memory_order_relaxed);
    if (slot != 0) {
      if (const std::byte* data = TryPinResident(page_no, handle)) return data;
      // Another thread is filling this frame; its completion (or
      // failure) is signalled under the lock.
      load_done_.wait(lock);
      continue;
    }

    const int victim = FindVictim();
    if (victim < 0) return nullptr;  // All pinned/loading: caller bypasses.
    Frame& frame = frames_[victim];
    const uint64_t old_page = frame.page_no.load(std::memory_order_relaxed);
    if (old_page != kNoPage) {
      page_table_[old_page].store(0, std::memory_order_relaxed);
      ++evictions_;
    }
    frame.page_no.store(page_no, std::memory_order_relaxed);
    frame.ref.store(true, std::memory_order_relaxed);
    page_table_[page_no].store(static_cast<uint32_t>(victim) + 1,
                               std::memory_order_release);
    ++misses_;

    Status status;
    {
      // The pread runs unlocked; kBusy keeps every other thread
      // (including the eviction sweep) off this frame meanwhile.
      lock.unlock();
      std::byte* data = FrameData(static_cast<size_t>(victim));
      status = file_->ReadAt(page_off, load_len, data);
      if (status.ok() && load_len < kPageAlignment) {
        std::memset(data + load_len, 0, kPageAlignment - load_len);
      }
      lock.lock();
    }
    if (!status.ok()) {
      page_table_[page_no].store(0, std::memory_order_relaxed);
      frame.page_no.store(kNoPage, std::memory_order_relaxed);
      frame.state.store(0, std::memory_order_release);
      load_done_.notify_all();
      return nullptr;
    }
    // Publishes the bytes with the loader's own pin.
    frame.state.store(1, std::memory_order_release);
    load_done_.notify_all();
    *handle = reinterpret_cast<void*>(static_cast<uintptr_t>(victim) + 1);
    return FrameData(static_cast<size_t>(victim));
  }
}

void PageCache::UnpinPage(void* handle) {
  const size_t idx = reinterpret_cast<uintptr_t>(handle) - 1;
  GSR_DCHECK(idx < num_frames_);
  [[maybe_unused]] const uint32_t before =
      frames_[idx].state.fetch_sub(1, std::memory_order_release);
  GSR_DCHECK((before & ~kBusy) > 0);
}

Status PageCache::Read(uint64_t offset, size_t len, void* out) {
  std::byte* dst = static_cast<std::byte*>(out);
  while (len > 0) {
    const uint64_t page_no = offset >> kPageShift;
    const size_t in_page = static_cast<size_t>(offset & (kPageAlignment - 1));
    const size_t take = std::min(len, kPageAlignment - in_page);
    void* handle = nullptr;
    if (const std::byte* page = PinPage(page_no, &handle)) {
      std::memcpy(dst, page + in_page, take);
      UnpinPage(handle);
    } else {
      // No frame to spare (or the page failed to load): serve this piece
      // straight from the file so progress never depends on evictability.
      GSR_RETURN_IF_ERROR(file_->ReadAt(offset, take, dst));
      bypass_reads_.fetch_add(1, std::memory_order_relaxed);
    }
    dst += take;
    offset += take;
    len -= take;
  }
  return Status::Ok();
}

void PageCache::Prefetch(uint64_t offset, size_t len) {
  // Kernel-level readahead only: the data lands in the OS page cache and
  // the subsequent misses become cheap copies instead of device waits.
  // Filling our own frames here would evict hot pages for speculative
  // ones, which is exactly backwards under a tight budget.
  if (offset >= file_->size() || len == 0) return;
  file_->Advise(offset, len);
}

PageCache::Stats PageCache::GetStats() const {
  std::lock_guard<std::mutex> lock(mu_);
  Stats stats;
  for (size_t i = 0; i < num_frames_; ++i) {
    stats.hits += frames_[i].hits.load(std::memory_order_relaxed);
  }
  stats.misses = misses_;
  stats.evictions = evictions_;
  stats.bypass_reads = bypass_reads_.load(std::memory_order_relaxed);
  return stats;
}

void PageCache::ResetStats() {
  std::lock_guard<std::mutex> lock(mu_);
  for (size_t i = 0; i < num_frames_; ++i) {
    frames_[i].hits.store(0, std::memory_order_relaxed);
  }
  misses_ = 0;
  evictions_ = 0;
  bypass_reads_.store(0, std::memory_order_relaxed);
}

void PageCache::Drop() {
  std::lock_guard<std::mutex> lock(mu_);
  for (size_t i = 0; i < num_frames_; ++i) {
    Frame& frame = frames_[i];
    if (!Claim(frame)) continue;  // Pinned: survives the drop.
    const uint64_t page_no = frame.page_no.load(std::memory_order_relaxed);
    if (page_no != kNoPage) {
      page_table_[page_no].store(0, std::memory_order_relaxed);
    }
    frame.page_no.store(kNoPage, std::memory_order_relaxed);
    frame.ref.store(false, std::memory_order_relaxed);
    frame.state.store(0, std::memory_order_release);
  }
  hand_ = 0;
}

}  // namespace gsr::snapshot
