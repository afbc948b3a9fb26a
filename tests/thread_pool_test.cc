#include "exec/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <map>
#include <mutex>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

namespace gsr::exec {
namespace {

TEST(ThreadPoolTest, SizeIsClampedToAtLeastOne) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.size(), 1u);
  ThreadPool pool4(4);
  EXPECT_EQ(pool4.size(), 4u);
}

TEST(ThreadPoolTest, ParallelForCoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  constexpr size_t kN = 1000;
  std::vector<std::atomic<int>> hits(kN);
  pool.ParallelFor(kN, /*chunk=*/7,
                   [&](size_t i, unsigned) { hits[i].fetch_add(1); });
  for (size_t i = 0; i < kN; ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPoolTest, ParallelForHandlesEmptyAndTinyRanges) {
  ThreadPool pool(3);
  std::atomic<int> count{0};
  pool.ParallelFor(0, 8, [&](size_t, unsigned) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 0);
  pool.ParallelFor(1, 8, [&](size_t, unsigned) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 1);
  // Chunk of 0 is treated as 1, not an infinite loop.
  pool.ParallelFor(5, 0, [&](size_t, unsigned) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 6);
}

TEST(ThreadPoolTest, ParallelForPropagatesTaskException) {
  ThreadPool pool(2);
  std::atomic<int> ran{0};
  EXPECT_THROW(pool.ParallelFor(100, 4,
                                [&](size_t i, unsigned) {
                                  if (i == 57) {
                                    throw std::runtime_error("boom");
                                  }
                                  ran.fetch_add(1);
                                }),
               std::runtime_error);
  // Only the throwing chunk [56, 60) is cut short: 58 and 59 never run.
  EXPECT_EQ(ran.load(), 97);

  // The pool survives: the next call runs every index and throws nothing.
  ran.store(0);
  pool.ParallelFor(100, 4, [&](size_t, unsigned) { ran.fetch_add(1); });
  EXPECT_EQ(ran.load(), 100);
}

// Records which threads served which lane over `rounds` calls from the
// current thread. Indices sleep briefly so that the pool threads claim
// chunks too.
void RecordLanes(ThreadPool& pool, int rounds, std::mutex& mutex,
                 std::map<unsigned, std::set<std::thread::id>>& seen) {
  for (int round = 0; round < rounds; ++round) {
    pool.ParallelFor(60, 4, [&](size_t, unsigned lane) {
      std::this_thread::sleep_for(std::chrono::microseconds(50));
      std::lock_guard<std::mutex> lock(mutex);
      seen[lane].insert(std::this_thread::get_id());
    });
  }
}

TEST(ThreadPoolTest, PoolLanesKeepTheirThreadsAndTheLastLaneIsTheCaller) {
  // The contract BatchRunner's scratch cache relies on: lanes 0..size()-2
  // are always served by the same pool thread, across separate calls, and
  // lane size()-1 by whichever thread calls.
  ThreadPool pool(3);
  std::mutex mutex;
  std::map<unsigned, std::set<std::thread::id>> seen;
  RecordLanes(pool, 5, mutex, seen);
  std::thread::id other_caller;
  std::thread other([&] {
    other_caller = std::this_thread::get_id();
    RecordLanes(pool, 5, mutex, seen);
  });
  other.join();

  const unsigned caller_lane = pool.size() - 1;
  ASSERT_TRUE(seen.count(caller_lane));
  EXPECT_EQ(seen[caller_lane],
            (std::set<std::thread::id>{std::this_thread::get_id(),
                                       other_caller}));
  std::set<std::thread::id> pool_threads;
  for (const auto& [lane, threads] : seen) {
    ASSERT_LT(lane, pool.size());
    if (lane == caller_lane) continue;
    EXPECT_EQ(threads.size(), 1u) << "lane " << lane;
    pool_threads.insert(threads.begin(), threads.end());
  }
  // No pool lane is ever served by a caller, nor two lanes by one thread.
  EXPECT_EQ(pool_threads.size(), seen.size() - 1);
  EXPECT_FALSE(pool_threads.count(std::this_thread::get_id()));
  EXPECT_FALSE(pool_threads.count(other_caller));
}

TEST(ThreadPoolTest, ConcurrentCallersEachRunTheirWholeRange) {
  ThreadPool pool(4);
  constexpr size_t kN = 20000;
  std::vector<std::atomic<int>> hits_a(kN);
  std::vector<std::atomic<int>> hits_b(kN);
  // A lane serves one thread at a time even with two callers.
  std::vector<std::atomic<bool>> busy(pool.size());
  std::atomic<int> bad_lanes{0};
  std::atomic<int> overlaps{0};
  auto run = [&](std::vector<std::atomic<int>>& hits) {
    for (int round = 0; round < 20; ++round) {
      pool.ParallelFor(kN / 20, 3, [&](size_t i, unsigned lane) {
        if (lane >= pool.size()) {
          bad_lanes.fetch_add(1);
          return;
        }
        if (busy[lane].exchange(true)) overlaps.fetch_add(1);
        hits[round * (kN / 20) + i].fetch_add(1);
        busy[lane].store(false);
      });
    }
  };
  std::thread a([&] { run(hits_a); });
  std::thread b([&] { run(hits_b); });
  a.join();
  b.join();
  EXPECT_EQ(bad_lanes.load(), 0);
  EXPECT_EQ(overlaps.load(), 0);
  for (size_t i = 0; i < kN; ++i) {
    ASSERT_EQ(hits_a[i].load(), 1) << "caller a, index " << i;
    ASSERT_EQ(hits_b[i].load(), 1) << "caller b, index " << i;
  }
}

TEST(ThreadPoolTest, OneLanePoolRunsInlineOnTheCaller) {
  ThreadPool pool(1);
  ASSERT_EQ(pool.size(), 1u);
  std::vector<size_t> order;
  std::set<unsigned> lanes;
  std::set<std::thread::id> threads;
  pool.ParallelFor(50, 4, [&](size_t i, unsigned lane) {
    order.push_back(i);
    lanes.insert(lane);
    threads.insert(std::this_thread::get_id());
  });
  ASSERT_EQ(order.size(), 50u);
  for (size_t i = 0; i < order.size(); ++i) EXPECT_EQ(order[i], i);
  EXPECT_EQ(lanes, std::set<unsigned>{0});
  EXPECT_EQ(threads, std::set<std::thread::id>{std::this_thread::get_id()});
}

TEST(ThreadPoolDeathTest, NestedParallelForFailsOnTheCallerLane) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  ThreadPool pool(2);
  EXPECT_DEATH(pool.ParallelFor(
                   1, 1,
                   [&](size_t, unsigned) {
                     pool.ParallelFor(1, 1, [](size_t, unsigned) {});
                   }),
               "ParallelFor called from inside a ParallelFor body");
}

TEST(ThreadPoolDeathTest, NestedParallelForFailsOnAPoolLane) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  ThreadPool pool(2);
  EXPECT_DEATH(pool.ParallelFor(
                   64, 1,
                   [&](size_t, unsigned lane) {
                     if (lane == pool.size() - 1) {
                       // Leave the rest of the range to the pool thread.
                       std::this_thread::sleep_for(
                           std::chrono::milliseconds(20));
                       return;
                     }
                     pool.ParallelFor(2, 1, [](size_t, unsigned) {});
                   }),
               "ParallelFor called from inside a ParallelFor body");
}

}  // namespace
}  // namespace gsr::exec
