#ifndef GSR_EXEC_EPOCH_H_
#define GSR_EXEC_EPOCH_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

namespace gsr::exec {

/// Epoch-based publication of immutable state, the read-while-update
/// backbone of the streaming engine. The protocol:
///
///   - *publish*: a writer swaps in a new immutable state object; the
///     epoch counter advances. Publication is atomic — a reader sees
///     either the old state or the new one, never a mix.
///   - *pin*: a reader grabs the current (state, epoch) pair. The state
///     is a shared_ptr to an immutable object, so a pinned epoch stays
///     fully valid however long the reader holds it — queries keep
///     running against it across any number of later publishes.
///   - *retire*: automatic. When the last pin of a superseded epoch
///     drops, the shared_ptr refcount frees it. No grace periods, no
///     deferred reclamation lists to drain.
///
/// The shared_ptr control block *is* the epoch bookkeeping: publication
/// is one mutex-guarded pointer swap (readers take the same mutex for a
/// copy — nanoseconds, never held across queries), retirement is the
/// refcount hitting zero. EpochManager tracks superseded epochs with
/// weak_ptrs purely for observability (alive_epochs() in stats/tests).
class EpochManager {
 public:
  /// Publishes `state` as the next epoch; returns its epoch number
  /// (starting at 1; 0 means "nothing published yet").
  uint64_t Publish(std::shared_ptr<const void> state) {
    // The displaced state may hold the last reference to its epoch; it is
    // destroyed after the lock drops, so readers never wait on a free and
    // a destructor may call back into the manager.
    std::shared_ptr<const void> displaced;
    std::lock_guard<std::mutex> lock(mu_);
    if (current_) retired_.push_back(current_);
    displaced = std::exchange(current_, std::move(state));
    CompactRetiredLocked();
    return ++epoch_;
  }

  /// The current (state, epoch) pair; state is null before first publish.
  std::pair<std::shared_ptr<const void>, uint64_t> Pin() const {
    std::lock_guard<std::mutex> lock(mu_);
    ++pins_;
    return {current_, epoch_};
  }

  /// The current epoch number (0 before first publish).
  uint64_t epoch() const {
    std::lock_guard<std::mutex> lock(mu_);
    return epoch_;
  }

  /// Superseded epochs whose state is still alive (pinned by readers or
  /// an in-flight rebuild). Excludes the current epoch.
  size_t alive_epochs() const {
    std::lock_guard<std::mutex> lock(mu_);
    size_t alive = 0;
    for (const auto& weak : retired_) {
      if (!weak.expired()) ++alive;
    }
    return alive;
  }

  /// Total Pin() calls (observability).
  uint64_t pins() const {
    std::lock_guard<std::mutex> lock(mu_);
    return pins_;
  }

 private:
  void CompactRetiredLocked() {
    std::erase_if(retired_,
                  [](const std::weak_ptr<const void>& w) { return w.expired(); });
  }

  mutable std::mutex mu_;
  std::shared_ptr<const void> current_;
  uint64_t epoch_ = 0;
  mutable uint64_t pins_ = 0;
  std::vector<std::weak_ptr<const void>> retired_;
};

/// Typed wrapper over EpochManager: Publish/Pin a `shared_ptr<const T>`
/// instead of void. This is the slot the streaming engine publishes
/// DynamicRangeReach views through.
template <typename T>
class EpochSlot {
 public:
  /// A pinned epoch: the immutable state plus its epoch number. Valid
  /// for as long as the holder keeps it, regardless of later publishes.
  struct Pinned {
    std::shared_ptr<const T> state;
    uint64_t epoch = 0;
  };

  uint64_t Publish(std::shared_ptr<const T> state) {
    return manager_.Publish(std::shared_ptr<const void>(std::move(state)));
  }

  Pinned Pin() const {
    auto [state, epoch] = manager_.Pin();
    return Pinned{std::static_pointer_cast<const T>(std::move(state)), epoch};
  }

  uint64_t epoch() const { return manager_.epoch(); }
  size_t alive_epochs() const { return manager_.alive_epochs(); }
  uint64_t pins() const { return manager_.pins(); }

 private:
  EpochManager manager_;
};

}  // namespace gsr::exec

#endif  // GSR_EXEC_EPOCH_H_
