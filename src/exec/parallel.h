#ifndef GSR_EXEC_PARALLEL_H_
#define GSR_EXEC_PARALLEL_H_

#include <algorithm>
#include <cstddef>
#include <iterator>
#include <vector>

#include "exec/thread_pool.h"

namespace gsr::exec {

/// Runs fn(index) for every index in [0, n): inline when `pool` is null,
/// on the pool's lanes in contiguous chunks otherwise. Both paths perform
/// exactly the same set of calls, so any `fn` whose writes are confined to
/// its own index yields identical results at every thread count. Blocks
/// until all indices are done.
template <typename Fn>
void ForEachIndex(ThreadPool* pool, size_t n, size_t chunk, Fn&& fn) {
  if (pool == nullptr) {
    for (size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  pool->ParallelFor(n, chunk, [&fn](size_t index, unsigned) { fn(index); });
}

/// Deterministic parallel sort: chunk-local std::sort followed by a
/// log-depth pairwise std::inplace_merge tree.
///
/// `comp` MUST be a strict total order over element *values* (distinct
/// elements never compare equivalent). Under that precondition the sorted
/// permutation is unique, so the result is bit-identical to a serial
/// std::sort regardless of chunking or thread count. With a mere weak
/// order the parallel and serial results could order equivalent elements
/// differently — callers wanting determinism must add tie-breakers.
template <typename It, typename Comp>
void ParallelSort(ThreadPool* pool, It begin, It end, Comp comp) {
  const size_t n = static_cast<size_t>(std::distance(begin, end));
  // Below this size the chunk/merge overhead outweighs any win.
  constexpr size_t kMinParallel = size_t{1} << 14;
  if (pool == nullptr || pool->size() <= 1 || n < kMinParallel) {
    std::sort(begin, end, comp);
    return;
  }

  // Power-of-two chunk count keeps the merge tree perfectly regular.
  size_t chunks = 1;
  while (chunks < 2 * static_cast<size_t>(pool->size())) chunks *= 2;
  std::vector<size_t> bounds(chunks + 1);
  for (size_t c = 0; c <= chunks; ++c) bounds[c] = n * c / chunks;

  pool->ParallelFor(chunks, 1, [&](size_t c, unsigned) {
    std::sort(begin + static_cast<ptrdiff_t>(bounds[c]),
              begin + static_cast<ptrdiff_t>(bounds[c + 1]), comp);
  });
  for (size_t width = 1; width < chunks; width *= 2) {
    const size_t pairs = chunks / (2 * width);
    pool->ParallelFor(pairs, 1, [&](size_t p, unsigned) {
      const size_t lo = bounds[2 * width * p];
      const size_t mid = bounds[2 * width * p + width];
      const size_t hi = bounds[2 * width * p + 2 * width];
      std::inplace_merge(begin + static_cast<ptrdiff_t>(lo),
                         begin + static_cast<ptrdiff_t>(mid),
                         begin + static_cast<ptrdiff_t>(hi), comp);
    });
  }
}

}  // namespace gsr::exec

#endif  // GSR_EXEC_PARALLEL_H_
