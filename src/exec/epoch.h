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
/// refcount hitting zero. Superseded epochs are tracked with weak_ptrs
/// purely for observability (alive_epochs() in stats/tests).
///
/// The streaming engine publishes DynamicRangeReach views through an
/// EpochSlot<EpochView>.
template <typename T>
class EpochSlot {
 public:
  /// A pinned epoch: the immutable state plus its epoch number. Valid
  /// for as long as the holder keeps it, regardless of later publishes.
  struct Pinned {
    std::shared_ptr<const T> state;
    uint64_t epoch = 0;
  };

  /// Publishes `state` as the next epoch; returns its epoch number
  /// (starting at 1; 0 means "nothing published yet").
  uint64_t Publish(std::shared_ptr<const T> state) {
    // The displaced state may hold the last reference to its epoch; it is
    // destroyed after the lock drops, so readers never wait on a free and
    // a destructor may call back into the slot.
    std::shared_ptr<const T> displaced;
    std::lock_guard<std::mutex> lock(mu_);
    if (current_) retired_.push_back(current_);
    displaced = std::exchange(current_, std::move(state));
    std::erase_if(retired_, [](const std::weak_ptr<const T>& w) {
      return w.expired();
    });
    return ++epoch_;
  }

  /// The current (state, epoch) pair; state is null before first publish.
  Pinned Pin() const {
    std::lock_guard<std::mutex> lock(mu_);
    return Pinned{current_, epoch_};
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

 private:
  mutable std::mutex mu_;
  std::shared_ptr<const T> current_;
  uint64_t epoch_ = 0;
  std::vector<std::weak_ptr<const T>> retired_;
};

}  // namespace gsr::exec

#endif  // GSR_EXEC_EPOCH_H_
