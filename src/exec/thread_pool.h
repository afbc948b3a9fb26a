#ifndef GSR_EXEC_THREAD_POOL_H_
#define GSR_EXEC_THREAD_POOL_H_

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace gsr::exec {

/// A fork-join team of size() lanes: size()-1 pool threads, parked between
/// jobs, plus the thread calling ParallelFor, which takes lane size()-1.
/// Pool lanes keep their thread for the pool's lifetime and callers are
/// serialised, so a lane serves one thread at a time (BatchRunner keys
/// per-lane scratch on it). Chunks are claimed off one atomic cursor: no
/// task queue, no work stealing.
class ThreadPool {
 public:
  /// Makes max(1, num_threads) lanes: a thread for each but the caller's.
  explicit ThreadPool(unsigned num_threads);
  ~ThreadPool();  // Wakes and joins the pool threads.

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  unsigned size() const { return static_cast<unsigned>(workers_.size()) + 1; }

  /// Runs fn(index, lane) for every index in [0, n), `chunk` (>= 1)
  /// indices per claim; a one-lane pool or a one-chunk range runs on the
  /// caller and wakes nobody. Blocks until every index is done; a throwing
  /// chunk is abandoned, the others still run, and the first exception is
  /// rethrown. A call from inside a body, on any lane, fails a GSR_CHECK
  /// (it would wait for its own lane forever).
  void ParallelFor(
      size_t n, size_t chunk,
      const std::function<void(size_t index, unsigned lane)>& fn);

  /// std::thread::hardware_concurrency() with a fallback of 1.
  static unsigned DefaultThreads() {
    return std::max(1u, std::thread::hardware_concurrency());
  }

 private:
  static constexpr uint32_t kOpen = uint32_t{1} << 31;  // Job takes joiners.

  void WorkerLoop(unsigned lane);
  void RunLane(unsigned lane);  // Claims chunks until the range runs out.

  std::mutex call_mutex_;  // One job at a time.
  // The job: written only while closed, and closed-job joiners skip it.
  const std::function<void(size_t, unsigned)>* fn_ = nullptr;
  size_t n_ = 0;
  size_t step_ = 1;
  std::mutex error_mutex_;
  std::exception_ptr error_;
  alignas(64) std::atomic<size_t> cursor_{0};
  /// Bumped per fanned-out job and at shutdown; parked threads wait on it.
  alignas(64) std::atomic<uint32_t> generation_{0};
  /// kOpen | the number of pool threads inside the job (the join count).
  alignas(64) std::atomic<uint32_t> inside_{0};
  std::atomic<bool> stop_{false};
  std::vector<std::thread> workers_;
};

}  // namespace gsr::exec

#endif  // GSR_EXEC_THREAD_POOL_H_
