#ifndef GSR_EXEC_STREAMING_ENGINE_H_
#define GSR_EXEC_STREAMING_ENGINE_H_

#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/dynamic_range_reach.h"
#include "exec/epoch.h"
#include "exec/thread_pool.h"

namespace gsr::exec {

/// Policy knobs of the streaming engine.
struct StreamingOptions {
  /// Publish a fresh epoch after this many applied (state-changing)
  /// updates. 1 = every update is immediately visible to new pins;
  /// larger values batch-publish (readers keep answering against the
  /// previous epoch in between).
  size_t publish_every = 1;
  /// Kick off a background base rebuild once the pending delta reaches
  /// this size. 0 disables background rebuilds (delta grows until an
  /// explicit Flush()).
  size_t rebuild_threshold = 4096;
  /// When non-empty, rebuilt bases are hot-swapped *through the snapshot
  /// layer*: the fresh index is saved to `<spill_dir>/base_<pos>.gsr` and
  /// reloaded with `spill_mode` before installation, so what readers
  /// switch to is the snapshot-backed image (kMmap = zero-copy views into
  /// the file). Empty installs the directly built base.
  std::string spill_dir;
  snapshot::LoadMode spill_mode = snapshot::LoadMode::kMmap;
};

/// A pinned epoch of the streaming engine, wrapped as a RangeReachMethod —
/// the one way to read a live network. BatchRunner (Run / RunShared) and
/// result-sink pipelines run against it like any other method while the
/// engine keeps ingesting and swapping bases underneath. The full query
/// surface is served: boolean through Evaluate, count/enum sinks through
/// CollectInto. A DynamicRangeReach used without the epoch engine is read
/// the same way: EpochView(dynamic.Snapshot(), epoch).
///
/// The view inside is immutable, so one EpochView serves any number of
/// concurrent reader threads — one Scratch each, per the usual contract.
/// A scratch from one view of an engine also serves its later views: the
/// scratch re-creates its base-index part whenever the view's base is a
/// different method instance.
class EpochView : public RangeReachMethod {
 public:
  EpochView(std::shared_ptr<const DynamicRangeReach::View> view,
            uint64_t epoch)
      : view_(std::move(view)), epoch_(epoch) {}

  std::unique_ptr<QueryScratch> NewScratch() const override {
    return std::make_unique<DynamicRangeReach::Scratch>();
  }

  /// Exact: bit-identical to rebuilding from scratch at position().
  bool Evaluate(VertexId vertex, const Rect& region,
                QueryScratch& scratch) const override {
    auto& s = static_cast<DynamicRangeReach::Scratch&>(scratch);
    ++s.counters.queries;
    return DynamicRangeReach::EvaluateImpl(*view_->base, view_->delta, vertex,
                                           region, s);
  }

  void CollectInto(VertexId vertex, const Rect& region, ResultSink& sink,
                   QueryScratch& scratch) const override {
    auto& s = static_cast<DynamicRangeReach::Scratch&>(scratch);
    ++s.counters.queries;
    DynamicRangeReach::CollectImpl(*view_->base, view_->delta, vertex, region,
                                   sink, s);
  }

  using RangeReachMethod::Evaluate;

  std::string name() const override {
    return "DynamicRangeReach@e" + std::to_string(epoch_);
  }

  size_t IndexSizeBytes() const override { return view_->SizeBytes(); }

  const DynamicRangeReach::View& view() const { return *view_; }
  uint64_t epoch() const { return epoch_; }
  /// The log position this epoch reflects.
  uint64_t position() const { return view_->position; }
  VertexId num_vertices() const { return view_->num_vertices(); }

 private:
  std::shared_ptr<const DynamicRangeReach::View> view_;
  uint64_t epoch_ = 0;
};

/// The streaming-update engine: a DynamicRangeReach behind an epoch slot.
///
/// Single writer, many readers. Writers stream updates through Apply();
/// each applied update lands in the log and (per publish_every) a fresh
/// immutable view is published as the next epoch. Readers call Pin() and
/// query the returned EpochView for as long as they like — pinned epochs
/// survive any number of publishes and base swaps, and are freed by
/// refcount when the last reader drops them.
///
/// When the pending delta reaches rebuild_threshold, the writer path
/// starts a *background* rebuild on a thread of its own, one at a time: it
/// captures (current base, log suffix copy, cut position) under the lock,
/// then — off-lock, while updates and queries keep flowing — materializes
/// the network at the cut, builds a fresh 3DReach base (serially, leaving
/// the pool to batches), optionally round-trips it through the snapshot
/// layer (StreamingOptions::spill_dir), and finally installs it under the
/// lock and publishes the next epoch. Queries racing the swap
/// see either the old (base, delta) or the new one; both answer
/// bit-identically, which tests enforce against a rebuilt-from-scratch
/// oracle under TSan.
class StreamingRangeReach {
 public:
  /// Counters, all monotonic, read via stats().
  struct Stats {
    uint64_t updates = 0;           // State-changing updates applied.
    uint64_t noop_updates = 0;      // Applied but no state change.
    uint64_t publishes = 0;         // Epochs published.
    uint64_t rebuilds_started = 0;  // Background rebuilds kicked off.
    uint64_t rebuilds_completed = 0;
    uint64_t rebuild_failures = 0;  // Snapshot spill fell back to built base.
    uint64_t snapshot_swaps = 0;    // Bases installed from a snapshot image.
  };

  /// Builds the initial base over `network` and publishes epoch 1.
  /// `pool` parallelizes the initial build and Flush() and selects
  /// background rebuilds; pass nullptr for a fully synchronous engine
  /// (rebuilds then run inline on the writer thread).
  StreamingRangeReach(GeoSocialNetwork network, ThreadPool* pool,
                      StreamingOptions options = {});

  /// Waits for (and joins) any in-flight rebuild, then tears down.
  ~StreamingRangeReach();

  StreamingRangeReach(const StreamingRangeReach&) = delete;
  StreamingRangeReach& operator=(const StreamingRangeReach&) = delete;

  // --- Writer API (serialize externally or call from one thread).

  /// Applies one update; returns the new vertex id for kAddVertex,
  /// kInvalidVertex otherwise. Publishes / schedules rebuilds per the
  /// options.
  Result<VertexId> Apply(const Update& update);

  /// Applies a whole stream in order; stops at the first invalid update.
  Status ApplyAll(std::span<const Update> updates);

  /// Publishes the current state as a fresh epoch even if publish_every
  /// has not been reached.
  void Publish();

  /// Synchronously folds every pending update into a fresh base (through
  /// the snapshot layer when configured) and publishes. Waits for any
  /// in-flight background rebuild first.
  void Flush();

  // --- Reader API (any thread, any time).

  /// Pins the current epoch. The returned view answers every query
  /// bit-identically to a from-scratch rebuild at its log position,
  /// forever — later updates land in later epochs.
  std::shared_ptr<const EpochView> Pin() const;

  /// Blocks until no rebuild is in flight and its thread is joined (the
  /// epoch the rebuild publishes is then pinnable).
  void WaitForRebuilds();

  // --- Introspection.

  uint64_t current_epoch() const { return slot_.epoch(); }
  size_t alive_epochs() const { return slot_.alive_epochs(); }
  uint64_t log_size() const;
  size_t pending_updates() const;
  VertexId num_vertices() const;
  Stats stats() const;
  /// Status of the last failed snapshot spill (Ok when none failed).
  Status last_rebuild_error() const;

  /// Copies log entries [from, to) — the oracle hook: materialize a
  /// pinned view's network as initial snapshot + log prefix and compare.
  std::vector<Update> CopyLog(uint64_t from, uint64_t to) const;

  /// Materializes the exact network a pinned view reflects (rebuilt from
  /// the view's own base + the log range up to its position). Tests build
  /// a NaiveBFS oracle over this.
  Result<GeoSocialNetwork> MaterializeView(const EpochView& view) const;

 private:
  /// Capture of a rebuild decided under the lock; when the engine has no
  /// pool, the caller runs it inline after releasing the lock (RunRebuild
  /// re-acquires it to install).
  struct RebuildCapture {
    std::shared_ptr<const DynamicRangeReach::Base> old_base;
    std::vector<Update> suffix;
    uint64_t cut = 0;
    bool inline_run = false;
  };

  void PublishLocked();
  RebuildCapture MaybeStartRebuildLocked();
  /// The body of a rebuild: build a base folding log [0, cut), spill it
  /// through the snapshot layer when configured, install + publish.
  void RunRebuild(RebuildCapture capture, bool parallel);

  StreamingOptions options_;
  ThreadPool* pool_ = nullptr;

  mutable std::mutex mu_;
  std::condition_variable rebuild_cv_;
  DynamicRangeReach engine_;
  size_t unpublished_ = 0;
  bool rebuild_inflight_ = false;
  std::thread rebuild_thread_;  // Under mu_; joined once !rebuild_inflight_.
  Stats stats_;
  Status last_rebuild_error_;

  EpochSlot<EpochView> slot_;
};

}  // namespace gsr::exec

#endif  // GSR_EXEC_STREAMING_ENGINE_H_
