#include "core/result_sink.h"

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/check.h"

namespace gsr {

namespace {

/// Results below this many ids are sorted: a bitmap scan has a fixed
/// per-word cost that a short sort beats.
constexpr size_t kMinBitmapIds = 64;

/// The bitmap path is taken only while the words to scan stay within this
/// many per id, so the scan is O(k) like the marking pass; sparser
/// results (a few ids spread over a large id space) are sorted instead.
constexpr size_t kMaxWordsPerId = 4;

}  // namespace

void ResultSink::Finalize() {
  if (arena_ == nullptr) return;
  std::vector<VertexId>& ids = *arena_;
  const size_t k = ids.size();
  if (k < kMinBitmapIds) {
    std::sort(ids.begin(), ids.end());
    return;
  }
  VertexId max_id = 0;
  for (const VertexId v : ids) max_id = std::max(max_id, v);
  const size_t words = static_cast<size_t>(max_id) / 64 + 1;
  if (words > kMaxWordsPerId * k) {
    std::sort(ids.begin(), ids.end());
    return;
  }

  // Per thread and kept across calls; every word is zeroed again as the
  // scan passes it, so the buffer is all zero between calls.
  thread_local std::vector<uint64_t> bitmap;
  if (bitmap.size() < words) bitmap.resize(words, 0);
  for (const VertexId v : ids) bitmap[v >> 6] |= uint64_t{1} << (v & 63);
  size_t emitted = 0;
  for (size_t w = 0; w < words; ++w) {
    uint64_t bits = bitmap[w];
    if (bits == 0) continue;
    bitmap[w] = 0;
    const VertexId base = static_cast<VertexId>(w * 64);
    do {
      ids[emitted++] = base + static_cast<VertexId>(std::countr_zero(bits));
      bits &= bits - 1;
    } while (bits != 0);
  }
  // Producers Add() every id exactly once; a duplicate set one bit twice
  // and would vanish from the result here.
  GSR_CHECK(emitted == k);
}

}  // namespace gsr
