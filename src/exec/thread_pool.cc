#include "exec/thread_pool.h"

#include <algorithm>
#include <utility>

#include "common/check.h"

namespace gsr::exec {
namespace {

thread_local bool t_in_lane = false;  // Inside some pool's RunLane.

/// Returns `word` once it differs from `old`, spinning tens of microseconds
/// before blocking: joins and back-to-back jobs then rarely pay a futex wake.
uint32_t AwaitChange(const std::atomic<uint32_t>& word, uint32_t old) {
  for (int spin = 0; spin < (1 << 12); ++spin) {
    const uint32_t now = word.load(std::memory_order_acquire);
    if (now != old) return now;
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#endif
  }
  word.wait(old, std::memory_order_acquire);
  return word.load(std::memory_order_acquire);
}

}  // namespace

ThreadPool::ThreadPool(unsigned num_threads) {
  for (unsigned lane = 0; lane + 1 < std::max(1u, num_threads); ++lane) {
    workers_.emplace_back([this, lane] { WorkerLoop(lane); });
  }
}

ThreadPool::~ThreadPool() {
  stop_.store(true, std::memory_order_relaxed);
  generation_.fetch_add(1, std::memory_order_release);
  generation_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

void ThreadPool::ParallelFor(
    size_t n, size_t chunk,
    const std::function<void(size_t index, unsigned lane)>& fn) {
  GSR_CHECK(!t_in_lane && "ParallelFor called from inside a ParallelFor body");
  if (n == 0) return;
  const std::lock_guard<std::mutex> lock(call_mutex_);
  fn_ = &fn;
  n_ = n;
  step_ = std::max<size_t>(1, chunk);
  cursor_.store(0, std::memory_order_relaxed);
  const bool fan_out = !workers_.empty() && n > step_;
  if (fan_out) {  // Setting kOpen publishes the job; the bump wakes.
    inside_.fetch_or(kOpen, std::memory_order_release);
    generation_.fetch_add(1, std::memory_order_release);
    generation_.notify_all();
  }
  RunLane(size() - 1);
  if (fan_out) {  // Close the job to late wakers; wait out those inside.
    uint32_t inside = inside_.fetch_and(~kOpen, std::memory_order_acquire);
    for (inside &= ~kOpen; inside != 0;) inside = AwaitChange(inside_, inside);
  }
  if (error_) std::rethrow_exception(std::exchange(error_, nullptr));
}

void ThreadPool::WorkerLoop(unsigned lane) {
  for (uint32_t seen = 0;;) {
    seen = AwaitChange(generation_, seen);
    if (stop_.load(std::memory_order_relaxed)) return;
    // Counted in, a thread runs the job only if it is still open: one that
    // wakes after the caller closed it skips it (and never reads it), one
    // that wakes into the next job runs that one.
    if (inside_.fetch_add(1, std::memory_order_acquire) & kOpen) RunLane(lane);
    if (inside_.fetch_sub(1, std::memory_order_release) == 1) {
      inside_.notify_one();
    }
  }
}

void ThreadPool::RunLane(unsigned lane) {
  t_in_lane = true;
  for (size_t begin; (begin = cursor_.fetch_add(step_)) < n_;) {
    try {
      for (size_t i = begin; i < std::min(n_, begin + step_); ++i) {
        (*fn_)(i, lane);
      }
    } catch (...) {
      const std::lock_guard<std::mutex> lock(error_mutex_);
      if (!error_) error_ = std::current_exception();
    }
  }
  t_in_lane = false;
}

}  // namespace gsr::exec
