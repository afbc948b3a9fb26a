#ifndef GSR_COMMON_PAGED_ARRAY_H_
#define GSR_COMMON_PAGED_ARRAY_H_

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <vector>

#include "common/check.h"
#include "common/status.h"

namespace gsr {

/// The paging seam between the storage layer and the structures it backs.
///
/// gsr_spatial / gsr_labeling cannot link gsr_snapshot (the dependency
/// points the other way), so the out-of-core path talks to an abstract
/// PagedSource: a read-only byte source addressed by absolute file
/// offsets, with a pin/unpin fast path exposing whole cached pages.
/// snapshot::PageCache is the production implementation; tests may supply
/// their own.
///
/// Contract:
///  - Read() fully fills `out` on an OK status.
///  - PinPage() MAY return nullptr (every frame pinned, or an IO error) —
///    callers must fall back to Read(). A non-null frame pointer stays
///    valid until the matching UnpinPage(handle).
///  - All methods are safe to call from any thread concurrently.
///  - PinPage()/UnpinPage() run once per page touch of every descent, so
///    a hit must be cheap under contention: PageCache serves it with a
///    few atomics on the frame's own cache line and takes no lock.
class PagedSource {
 public:
  virtual ~PagedSource() = default;

  /// Page granularity in bytes (a power of two).
  virtual size_t page_size() const = 0;

  /// Copies `len` bytes at absolute file offset `offset` into `out`.
  virtual Status Read(uint64_t offset, size_t len, void* out) = 0;

  /// Pins page `page_no` (bytes [page_no * page_size(), +page_size()))
  /// and returns its frame, or nullptr when the page cannot be pinned
  /// right now. On success `*handle` receives the token for UnpinPage.
  virtual const std::byte* PinPage(uint64_t page_no, void** handle) = 0;
  virtual void UnpinPage(void* handle) = 0;

  /// Hints that [offset, offset + len) will be read soon.
  virtual void Prefetch(uint64_t offset, size_t len) = 0;
};

/// A typed array that lives in a file instead of memory: a PagedSource
/// plus the absolute file offset of element 0. `source == nullptr` means
/// "not paged" — the owning structure keeps a resident span instead and
/// never consults this struct. Offsets inherit the snapshot writer's
/// array alignment (>= 8), so element addresses inside page frames are
/// correctly aligned for every POD we store (alignof <= 8).
///
/// `resident` optionally holds owned copies of elements
/// [0, resident.size()) — a prefix the owner chose to keep in memory
/// (FrozenRTree keeps the top of its BFS node order there). Cursors
/// serve any run inside the prefix from it without calling `source`;
/// runs that reach past it take the paged path unchanged. An empty
/// prefix is plain paging.
template <typename T>
struct PagedArray {
  std::shared_ptr<PagedSource> source;
  uint64_t file_offset = 0;
  size_t count = 0;
  std::vector<T> resident;

  bool paged() const { return source != nullptr; }
  size_t size() const { return count; }
  bool empty() const { return count == 0; }
};

/// Stack-allocated accessor for one traversal over a PagedArray. Holds at
/// most ONE pinned page at any moment (re-pinning on page change), so a
/// descent with k live cursors pins at most k frames — the bound the
/// cache's bypass path relies on to stay deadlock-free. Consecutive
/// accesses to the pinned page reuse the pin without calling the source.
/// A run wholly inside the array's resident prefix is served from it
/// before any of that: one compare, no pin, no source call, and the
/// current pin (if any) is kept for the next paged access.
///
/// Callers read runs, not elements: Chunk hands out a zero-copy pointer
/// to up to MaxChunk elements and ReadInto copies any number, so one call
/// serves a whole node's worth of boxes or ids. At is the one-element
/// form, left for node records and single child links. Page number and
/// in-page offset come from a shift and a mask (the page size is a power
/// of two by the PagedSource contract), not a division.
///
/// IO errors in the access path are process-fatal (GSR_CHECK): a snapshot
/// file vanishing under a live server is not a recoverable per-query
/// condition, and threading a Status through every descent would cost
/// the hot path more than the failure mode is worth.
template <typename T, size_t MaxChunk = 16>
class PagedArrayCursor {
 public:
  explicit PagedArrayCursor(const PagedArray<T>& array)
      : source_(array.source.get()),
        base_offset_(array.file_offset),
        count_(array.count),
        resident_(array.resident.data()),
        resident_count_(array.resident.size()),
        page_size_(source_ != nullptr ? source_->page_size() : 1),
        page_shift_(std::countr_zero(page_size_)),
        page_mask_(page_size_ - 1) {
    GSR_DCHECK(std::has_single_bit(page_size_));
  }

  PagedArrayCursor(const PagedArrayCursor&) = delete;
  PagedArrayCursor& operator=(const PagedArrayCursor&) = delete;

  ~PagedArrayCursor() { ReleasePin(); }

  size_t size() const { return count_; }

  /// Element `i` by value.
  T At(size_t i) {
    GSR_DCHECK(i < count_);
    T out;
    ReadInto(i, 1, &out);
    return out;
  }

  /// A pointer to elements [base, base + n), n <= MaxChunk. Zero-copy
  /// into the resident prefix or into the pinned page frame when the run
  /// stays inside one of them; otherwise assembled in the cursor's bounce
  /// buffer. The pointer is
  /// invalidated by the NEXT call to any method of this cursor (and by
  /// its destruction) — consume it fully before touching the cursor
  /// again, and never hold it across recursion that shares the cursor.
  const T* Chunk(size_t base, size_t n) {
    GSR_DCHECK(n > 0 && n <= MaxChunk && base + n <= count_);
    if (base + n <= resident_count_) return resident_ + base;
    const uint64_t off = base_offset_ + base * sizeof(T);
    const size_t len = n * sizeof(T);
    const size_t in_page = static_cast<size_t>(off & page_mask_);
    if (in_page + len <= page_size_) {
      const std::byte* data = PageData(off >> page_shift_);
      if (data != nullptr) return reinterpret_cast<const T*>(data + in_page);
    }
    CheckedRead(off, len, bounce_);
    return reinterpret_cast<const T*>(bounce_);
  }

  /// Copies elements [base, base + n) into `out` (any n).
  void ReadInto(size_t base, size_t n, T* out) {
    GSR_DCHECK(base + n <= count_);
    if (n == 0) return;
    if (base + n <= resident_count_) {
      std::memcpy(out, resident_ + base, n * sizeof(T));
      return;
    }
    const uint64_t off = base_offset_ + base * sizeof(T);
    const size_t len = n * sizeof(T);
    const size_t in_page = static_cast<size_t>(off & page_mask_);
    if (in_page + len <= page_size_) {
      const std::byte* data = PageData(off >> page_shift_);
      if (data != nullptr) {
        std::memcpy(out, data + in_page, len);
        return;
      }
    }
    CheckedRead(off, len, out);
  }

  /// Readahead hint for elements [base, base + n).
  void Prefetch(size_t base, size_t n) {
    if (base + n <= resident_count_) return;
    source_->Prefetch(base_offset_ + base * sizeof(T), n * sizeof(T));
  }

 private:
  const std::byte* PageData(uint64_t page_no) {
    if (pin_data_ != nullptr && pinned_page_ == page_no) return pin_data_;
    ReleasePin();
    void* handle = nullptr;
    const std::byte* data = source_->PinPage(page_no, &handle);
    if (data != nullptr) {
      pin_data_ = data;
      pin_handle_ = handle;
      pinned_page_ = page_no;
    }
    return data;
  }

  void CheckedRead(uint64_t off, size_t len, void* out) {
    const Status status = source_->Read(off, len, out);
    GSR_CHECK(status.ok());
  }

  void ReleasePin() {
    if (pin_data_ != nullptr) {
      source_->UnpinPage(pin_handle_);
      pin_data_ = nullptr;
      pin_handle_ = nullptr;
    }
  }

  PagedSource* const source_;
  const uint64_t base_offset_;
  const size_t count_;
  const T* const resident_;
  const size_t resident_count_;
  const size_t page_size_;
  const int page_shift_;
  const uint64_t page_mask_;

  const std::byte* pin_data_ = nullptr;
  void* pin_handle_ = nullptr;
  uint64_t pinned_page_ = 0;

  alignas(T) std::byte bounce_[sizeof(T) * MaxChunk];
};

}  // namespace gsr

#endif  // GSR_COMMON_PAGED_ARRAY_H_
