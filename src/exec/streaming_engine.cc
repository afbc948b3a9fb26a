#include "exec/streaming_engine.h"

#include <utility>

#include "common/check.h"

namespace gsr::exec {

StreamingRangeReach::StreamingRangeReach(GeoSocialNetwork network,
                                         ThreadPool* pool,
                                         StreamingOptions options)
    : options_(std::move(options)),
      pool_(pool),
      engine_(std::move(network), pool) {
  if (options_.publish_every == 0) options_.publish_every = 1;
  std::lock_guard<std::mutex> lock(mu_);
  PublishLocked();
}

StreamingRangeReach::~StreamingRangeReach() { WaitForRebuilds(); }

void StreamingRangeReach::PublishLocked() {
  slot_.Publish(std::make_shared<const EpochView>(engine_.Snapshot(),
                                                  slot_.epoch() + 1));
  unpublished_ = 0;
  ++stats_.publishes;
}

Result<VertexId> StreamingRangeReach::Apply(const Update& update) {
  RebuildCapture capture;
  Result<VertexId> id = kInvalidVertex;
  {
    std::lock_guard<std::mutex> lock(mu_);
    const uint64_t before = engine_.log_size();
    id = engine_.Apply(update);
    if (!id.ok()) return id;
    if (engine_.log_size() == before) {
      ++stats_.noop_updates;
      return id;  // No state change, nothing to publish.
    }
    ++stats_.updates;
    if (++unpublished_ >= options_.publish_every) PublishLocked();
    capture = MaybeStartRebuildLocked();
  }
  if (capture.inline_run) RunRebuild(std::move(capture), /*parallel=*/false);
  return id;
}

Status StreamingRangeReach::ApplyAll(std::span<const Update> updates) {
  for (const Update& update : updates) {
    auto id = Apply(update);
    if (!id.ok()) return id.status();
  }
  return Status::Ok();
}

void StreamingRangeReach::Publish() {
  std::lock_guard<std::mutex> lock(mu_);
  PublishLocked();
}

StreamingRangeReach::RebuildCapture
StreamingRangeReach::MaybeStartRebuildLocked() {
  RebuildCapture capture;
  if (options_.rebuild_threshold == 0 || rebuild_inflight_) return capture;
  if (engine_.pending_updates() < options_.rebuild_threshold) return capture;

  rebuild_inflight_ = true;
  ++stats_.rebuilds_started;
  capture.cut = engine_.log_size();
  capture.old_base = engine_.base();
  capture.suffix = engine_.CopyLog(capture.old_base->position, capture.cut);

  if (pool_ == nullptr) {
    // Synchronous engine: the caller runs the rebuild inline once the
    // lock is released (RunRebuild re-acquires it to install).
    capture.inline_run = true;
    return capture;
  }
  // The last rebuild cleared rebuild_inflight_ under mu_ and never takes
  // it again, so this join cannot deadlock; RunRebuild never throws.
  if (rebuild_thread_.joinable()) rebuild_thread_.join();
  rebuild_thread_ = std::thread([this, capture = std::move(capture)]() mutable {
    // Serial: a ParallelFor would hold the pool for the whole build.
    RunRebuild(std::move(capture), /*parallel=*/false);
  });
  return {};
}

void StreamingRangeReach::RunRebuild(RebuildCapture capture, bool parallel) {
  // Off-lock: materialize the network at the cut and build the fresh
  // base. Readers keep pinning and querying, the writer keeps applying —
  // everything past the cut stays in the delta after installation.
  auto merged = MaterializeNetwork(*capture.old_base->network, capture.suffix);
  GSR_CHECK(merged.ok());
  auto built = DynamicRangeReach::Base::Build(
      std::move(merged).value(), capture.cut, parallel ? pool_ : nullptr);

  Status spill_error;
  bool from_snapshot = false;
  if (!options_.spill_dir.empty()) {
    const std::string path =
        options_.spill_dir + "/base_" + std::to_string(capture.cut) + ".gsr";
    auto swapped = DynamicRangeReach::Base::RoundTripThroughSnapshot(
        built, path, options_.spill_mode);
    if (swapped.ok()) {
      built = std::move(swapped).value();
      from_snapshot = true;
    } else {
      // Fall back to the directly built base: the swap is an optimization,
      // never a correctness requirement.
      spill_error = swapped.status();
    }
  }

  std::lock_guard<std::mutex> lock(mu_);
  engine_.InstallBase(std::move(built));
  PublishLocked();
  ++stats_.rebuilds_completed;
  if (from_snapshot) ++stats_.snapshot_swaps;
  if (!spill_error.ok()) {
    ++stats_.rebuild_failures;
    last_rebuild_error_ = spill_error;
  }
  rebuild_inflight_ = false;
  rebuild_cv_.notify_all();
}

void StreamingRangeReach::Flush() {
  WaitForRebuilds();
  std::unique_lock<std::mutex> lock(mu_);
  if (engine_.pending_updates() == 0 &&
      engine_.log_size() == engine_.base()->position) {
    PublishLocked();
    return;
  }
  rebuild_inflight_ = true;
  ++stats_.rebuilds_started;
  const uint64_t cut = engine_.log_size();
  auto old_base = engine_.base();
  auto suffix = engine_.CopyLog(old_base->position, cut);
  lock.unlock();
  // Inline, but off-lock like the background path (readers stay live);
  // the writer is this caller, so nothing races the cut.
  RunRebuild({std::move(old_base), std::move(suffix), cut}, /*parallel=*/true);
}

std::shared_ptr<const EpochView> StreamingRangeReach::Pin() const {
  auto pinned = slot_.Pin();
  GSR_CHECK(pinned.state != nullptr);  // Epoch 1 is published in the ctor.
  return pinned.state;
}

void StreamingRangeReach::WaitForRebuilds() {
  std::unique_lock<std::mutex> lock(mu_);
  rebuild_cv_.wait(lock, [this] { return !rebuild_inflight_; });
  if (rebuild_thread_.joinable()) rebuild_thread_.join();
}

uint64_t StreamingRangeReach::log_size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return engine_.log_size();
}

size_t StreamingRangeReach::pending_updates() const {
  std::lock_guard<std::mutex> lock(mu_);
  return engine_.pending_updates();
}

VertexId StreamingRangeReach::num_vertices() const {
  std::lock_guard<std::mutex> lock(mu_);
  return engine_.num_vertices();
}

StreamingRangeReach::Stats StreamingRangeReach::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

Status StreamingRangeReach::last_rebuild_error() const {
  std::lock_guard<std::mutex> lock(mu_);
  return last_rebuild_error_;
}

std::vector<Update> StreamingRangeReach::CopyLog(uint64_t from,
                                                 uint64_t to) const {
  std::lock_guard<std::mutex> lock(mu_);
  return engine_.CopyLog(from, to);
}

Result<GeoSocialNetwork> StreamingRangeReach::MaterializeView(
    const EpochView& view) const {
  const auto& base = *view.view().base;
  auto suffix = CopyLog(base.position, view.position());
  return MaterializeNetwork(*base.network, suffix);
}

}  // namespace gsr::exec
