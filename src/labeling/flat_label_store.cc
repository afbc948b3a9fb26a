#include "labeling/flat_label_store.h"

#include <algorithm>
#include <limits>

#include "exec/parallel.h"

namespace gsr {

bool LabelView::Contains(uint32_t value) const {
  // Normalized intervals are exactly the kernel's precondition; same
  // dispatch as FlatLabelStore::Contains so both paths answer alike.
  return simd::IntervalContains(intervals_.data(), intervals_.size(), value);
}

uint64_t LabelView::CoveredValues() const {
  uint64_t total = 0;
  for (const Interval& interval : intervals_) {
    total += static_cast<uint64_t>(interval.hi) - interval.lo + 1;
  }
  return total;
}

std::string LabelView::ToString() const { return IntervalsToString(intervals_); }

FlatLabelStore FlatLabelStore::Freeze(std::span<const LabelSet> sets,
                                      exec::ThreadPool* pool) {
  FlatLabelStore store;
  const size_t n = sets.size();
  store.owned_offsets_.resize(n + 1);
  uint64_t total = 0;
  store.owned_offsets_[0] = 0;
  for (size_t v = 0; v < n; ++v) {
    total += sets[v].size();
    GSR_CHECK(total <= std::numeric_limits<uint32_t>::max());
    store.owned_offsets_[v + 1] = static_cast<uint32_t>(total);
  }
  store.owned_intervals_.resize(total);
  exec::ForEachIndex(pool, n, 1024, [&store, sets](size_t v) {
    const std::vector<Interval>& src = sets[v].intervals();
    std::copy(src.begin(), src.end(),
              store.owned_intervals_.begin() + store.owned_offsets_[v]);
  });
  store.offsets_ = store.owned_offsets_;
  store.intervals_ = store.owned_intervals_;
  return store;
}

void FlatLabelStore::SerializeTo(BinaryWriter& w) const {
  // A paged store's interval array lives on disk, not in memory.
  GSR_CHECK(!paged_intervals_.paged());
  w.WriteArray(offsets_);
  w.WriteArray(intervals_);
}

Result<FlatLabelStore> FlatLabelStore::Deserialize(BinaryReader& r,
                                                   const BorrowContext& ctx) {
  FlatLabelStore store;
  // The offsets table is small (one u32 per vertex) and consulted on
  // every probe, so it is copied resident even in paged mode; only the
  // interval array — the bulk of the labeling — stays on disk.
  BorrowContext offsets_ctx = ctx;
  offsets_ctx.paged = nullptr;
  GSR_RETURN_IF_ERROR(
      r.ReadArrayInto(offsets_ctx, &store.owned_offsets_, &store.offsets_));
  GSR_RETURN_IF_ERROR(r.ReadArrayPageable(ctx, &store.owned_intervals_,
                                          &store.intervals_,
                                          &store.paged_intervals_));
  const size_t interval_count = store.intervals_.size();
  if (store.offsets_.empty()) {
    if (interval_count != 0) {
      return Status::InvalidArgument(
          "flat label store: intervals without an offsets table");
    }
    store.intervals_ = {};
    return store;
  }
  if (store.offsets_.front() != 0 ||
      store.offsets_.back() != interval_count) {
    return Status::InvalidArgument(
        "flat label store: offsets table does not span the interval array");
  }
  for (size_t v = 0; v + 1 < store.offsets_.size(); ++v) {
    if (store.offsets_[v] > store.offsets_[v + 1]) {
      return Status::InvalidArgument(
          "flat label store: offsets table is not monotonic");
    }
  }
  // Each vertex's label must be normalized (sorted, disjoint, lo <= hi)
  // and cover post numbers 1..n only: the containment kernels assume the
  // former, a method that counts hits per label interval would otherwise
  // count a vertex once per overlap, and descendant scans index the
  // post -> vertex array with every covered value. In paged mode this
  // reads the transient section buffer once, here.
  const uint32_t n = store.num_vertices();
  for (size_t v = 0; v + 1 < store.offsets_.size(); ++v) {
    for (uint32_t i = store.offsets_[v]; i < store.offsets_[v + 1]; ++i) {
      const Interval& interval = store.intervals_[i];
      if (interval.lo > interval.hi ||
          (i > store.offsets_[v] && store.intervals_[i - 1].hi >= interval.lo)) {
        return Status::InvalidArgument(
            "flat label store: a label is not sorted and disjoint");
      }
      if (interval.lo == 0 || interval.hi > n) {
        return Status::InvalidArgument(
            "flat label store: a label lies outside the post numbers 1..n");
      }
    }
  }
  if (store.paged_intervals_.paged()) {
    // The span above pointed into the reader's transient section buffer,
    // only needed for validation; queries go through the PagedArray.
    store.intervals_ = {};
  }
  if (ctx.borrow) store.keepalive_ = ctx.keepalive;
  return store;
}

std::span<const Interval> FlatLabelStore::PagedRun(VertexId v) const {
  // Four rotating buffers per thread: a caller may hold a couple of
  // vended spans (e.g. comparing two vertices' labels) while requesting
  // another; contract in the header caps that at three live spans.
  struct Ring {
    std::vector<Interval> buf[4];
    unsigned next = 0;
  };
  thread_local Ring ring;
  std::vector<Interval>& out = ring.buf[ring.next++ % 4];
  const uint32_t begin = offsets_[v];
  const uint32_t count = offsets_[v + 1] - begin;
  out.resize(count);
  if (count > 0) {
    PagedArrayCursor<Interval, 1> cursor(paged_intervals_);
    cursor.ReadInto(begin, count, out.data());
  }
  return {out.data(), out.size()};
}

bool FlatLabelStore::PagedContains(VertexId v, uint32_t value) const {
  // Separate scratch from PagedRun's ring so probes interleaved with
  // label enumeration never invalidate a vended span.
  thread_local std::vector<Interval> scratch;
  const uint32_t begin = offsets_[v];
  const uint32_t count = offsets_[v + 1] - begin;
  if (count == 0) return false;
  scratch.resize(count);
  PagedArrayCursor<Interval, 1> cursor(paged_intervals_);
  cursor.ReadInto(begin, count, scratch.data());
  return simd::IntervalContains(scratch.data(), count, value);
}

}  // namespace gsr
