#ifndef GSR_CORE_METHOD_SNAPSHOT_H_
#define GSR_CORE_METHOD_SNAPSHOT_H_

#include <memory>
#include <string>

#include "core/method_factory.h"
#include "snapshot/snapshot_reader.h"
#include "snapshot/snapshot_writer.h"

namespace gsr {

/// Saves a built method to a versioned binary snapshot file. `method` must
/// be the instance CreateMethod produced for `config` over `cn`; the
/// snapshot records the config and a fingerprint of the dataset, and one
/// section per index component (labeling, R-tree, filters, ...) — except
/// for a planner, whose single section holds every portfolio member's
/// components inline, each in its kind's own order.
///
/// NaiveBFS is index-free and cannot be snapshotted (InvalidArgument).
Status SaveMethodSnapshot(const RangeReachMethod& method,
                          const MethodConfig& config,
                          const CondensedNetwork& cn, const std::string& path);

/// `mode` kMmap maps the file and keeps the index arrays as zero-copy
/// views into it (fast cold start); kPaged leaves the big index arrays on
/// disk behind a fixed-budget page cache of `page_cache_bytes` (bounded
/// memory however large the index — see snapshot::LoadMode). Both keep
/// reading the file, so a live snapshot is replaced by rename
/// (SaveMethodSnapshot does).
using SnapshotLoadOptions = snapshot::OpenOptions;

/// A snapshot-loaded method together with the config it was built as.
struct LoadedMethod {
  std::unique_ptr<RangeReachMethod> method;
  MethodConfig config;
  /// kPaged only (null otherwise): the cache the method's index arrays
  /// read through. Exposed for stats (hit/miss/eviction counters) and for
  /// Drop() in cold-page benchmarks; must outlive `method`, which the
  /// struct guarantees by holding it here.
  std::shared_ptr<snapshot::PageCache> page_cache;
  /// kPaged only (0 otherwise): bytes of R-tree node prefixes kept
  /// resident out of page_cache_bytes. resident_bytes plus
  /// page_cache->budget_bytes() never exceed page_cache_bytes above the
  /// cache's kMinFrames floor.
  size_t resident_bytes = 0;
};

/// Loads a method from a snapshot written by SaveMethodSnapshot. `cn` must
/// be the condensation of the same dataset the snapshot was built on —
/// validated against the stored fingerprint (vertex/edge/component/spatial
/// counts), since the condensation itself is cheap to rebuild and is not
/// persisted. The loaded method answers every query bit-identically to the
/// originally built one.
///
/// All failure modes — missing file, bad magic, wrong format version,
/// truncation, checksum mismatch, structural corruption, dataset mismatch —
/// return a clean error Status; no snapshot input crashes the process.
Result<LoadedMethod> LoadMethodSnapshot(const CondensedNetwork* cn,
                                        const std::string& path,
                                        const SnapshotLoadOptions& options);
inline Result<LoadedMethod> LoadMethodSnapshot(const CondensedNetwork* cn,
                                               const std::string& path) {
  return LoadMethodSnapshot(cn, path, SnapshotLoadOptions{});
}

}  // namespace gsr

#endif  // GSR_CORE_METHOD_SNAPSHOT_H_
