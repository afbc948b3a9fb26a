#include "exec/epoch.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <functional>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

namespace gsr::exec {
namespace {

TEST(EpochSlotTest, EpochNumbersAdvanceFromOne) {
  EpochSlot<int> slot;
  EXPECT_EQ(slot.epoch(), 0u);
  EXPECT_EQ(slot.Pin().state, nullptr);

  EXPECT_EQ(slot.Publish(std::make_shared<int>(10)), 1u);
  EXPECT_EQ(slot.Publish(std::make_shared<int>(20)), 2u);
  EXPECT_EQ(slot.epoch(), 2u);

  const auto pinned = slot.Pin();
  ASSERT_NE(pinned.state, nullptr);
  EXPECT_EQ(*pinned.state, 20);
  EXPECT_EQ(pinned.epoch, 2u);
}

TEST(EpochSlotTest, PinnedEpochSurvivesPublishes) {
  EpochSlot<std::string> slot;
  slot.Publish(std::make_shared<std::string>("old"));
  const auto pinned = slot.Pin();

  for (int i = 0; i < 10; ++i) {
    slot.Publish(std::make_shared<std::string>("new" + std::to_string(i)));
  }
  EXPECT_EQ(*pinned.state, "old");  // Still fully valid.
  EXPECT_EQ(pinned.epoch, 1u);
  EXPECT_EQ(*slot.Pin().state, "new9");
}

TEST(EpochSlotTest, RetiredEpochsFreeWhenUnpinned) {
  EpochSlot<int> slot;
  slot.Publish(std::make_shared<int>(1));
  auto pin1 = slot.Pin();
  slot.Publish(std::make_shared<int>(2));
  auto pin2 = slot.Pin();
  slot.Publish(std::make_shared<int>(3));

  // Both superseded epochs are alive while pinned.
  EXPECT_EQ(slot.alive_epochs(), 2u);
  pin1.state.reset();
  EXPECT_EQ(slot.alive_epochs(), 1u);
  pin2.state.reset();
  EXPECT_EQ(slot.alive_epochs(), 0u);  // Retire is automatic (refcount).
}

TEST(EpochSlotTest, DestructionRunsOnLastRelease) {
  struct Tracked {
    explicit Tracked(std::atomic<int>* counter) : counter(counter) {
      counter->fetch_add(1);
    }
    ~Tracked() { counter->fetch_sub(1); }
    std::atomic<int>* counter;
  };

  std::atomic<int> alive{0};
  EpochSlot<Tracked> slot;
  slot.Publish(std::make_shared<Tracked>(&alive));
  auto pinned = slot.Pin();
  slot.Publish(std::make_shared<Tracked>(&alive));
  EXPECT_EQ(alive.load(), 2);  // Old epoch pinned, new epoch current.
  pinned.state.reset();
  EXPECT_EQ(alive.load(), 1);  // Old epoch retired.
}

// Publish must drop the displaced epoch after releasing its lock: here
// the state's destructor waits for another thread to read the slot, which
// deadlocks if the destructor runs under the lock.
TEST(EpochSlotTest, DisplacedStateDiesOutsideTheLock) {
  struct Probe {
    std::function<void()> on_destroy;
    ~Probe() {
      if (on_destroy) on_destroy();
    }
  };

  EpochSlot<Probe> slot;
  std::promise<uint64_t> epoch_read;
  std::future<uint64_t> epoch_seen = epoch_read.get_future();
  std::thread reader;
  bool read_in_time = false;

  auto first = std::make_shared<Probe>();
  first->on_destroy = [&] {
    reader = std::thread([&] { epoch_read.set_value(slot.epoch()); });
    read_in_time = epoch_seen.wait_for(std::chrono::seconds(1)) ==
                   std::future_status::ready;
  };
  slot.Publish(std::move(first));
  slot.Publish(std::make_shared<Probe>());  // Displaces the unpinned first.
  reader.join();

  EXPECT_TRUE(read_in_time);
  EXPECT_EQ(epoch_seen.get(), 2u);
}

// Readers pin and dereference while a writer publishes continuously: the
// TSan job runs this to certify the publication protocol. Every pinned
// state must be a fully constructed value (monotone versions), never a
// torn or freed one.
TEST(EpochSlotTest, ConcurrentPinAndPublish) {
  struct Versioned {
    explicit Versioned(uint64_t v) : version(v), check(v * 31 + 7) {}
    uint64_t version;
    uint64_t check;
  };

  EpochSlot<Versioned> slot;
  slot.Publish(std::make_shared<Versioned>(0));

  constexpr int kReaders = 4;
  constexpr uint64_t kPublishes = 2000;
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> violations{0};

  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&] {
      uint64_t last_seen = 0;
      while (!stop.load(std::memory_order_acquire)) {
        const auto pinned = slot.Pin();
        if (pinned.state == nullptr ||
            pinned.state->check != pinned.state->version * 31 + 7 ||
            pinned.state->version < last_seen) {
          violations.fetch_add(1);
        } else {
          last_seen = pinned.state->version;
        }
      }
    });
  }

  for (uint64_t v = 1; v <= kPublishes; ++v) {
    slot.Publish(std::make_shared<Versioned>(v));
  }
  stop.store(true, std::memory_order_release);
  for (auto& t : readers) t.join();

  EXPECT_EQ(violations.load(), 0u);
  EXPECT_EQ(slot.epoch(), kPublishes + 1);
  EXPECT_EQ(slot.alive_epochs(), 0u);  // No pins held: all retired freed.
}

}  // namespace
}  // namespace gsr::exec
