#ifndef GSR_SNAPSHOT_SNAPSHOT_WRITER_H_
#define GSR_SNAPSHOT_SNAPSHOT_WRITER_H_

#include <string>
#include <utility>
#include <vector>

#include "common/binary_io.h"
#include "common/status.h"
#include "exec/thread_pool.h"
#include "snapshot/format.h"

namespace gsr::snapshot {

/// Assembles a snapshot file section by section:
///
///   SnapshotWriter w;
///   index.SerializeTo(w.BeginSection(SectionId::kLabeling));
///   GSR_RETURN_IF_ERROR(w.WriteFile(path, pool));
///
/// Sections are buffered in memory; WriteFile lays them out at the
/// format version's section alignment, checksums each payload (in
/// parallel on `pool` when given), and writes header + table + payloads
/// in one pass to a temp file beside the target, which it then renames
/// over the target. A live snapshot is replaced by rename, never
/// rewritten in place, so methods still loaded from the old file keep
/// answering from it.
///
/// By default files are written at kFormatVersion (v2: page-aligned
/// sections and array payloads, ready for LoadMode::kPaged). Passing
/// kFormatVersionV1 reproduces the legacy compact layout — kept for the
/// backward-compat read tests and for callers that value bytes over
/// pageability.
class SnapshotWriter {
 public:
  explicit SnapshotWriter(uint32_t format_version = kFormatVersion);

  uint32_t format_version() const { return format_version_; }

  /// Starts a new section and returns the serializer for its payload.
  /// The reference stays valid until WriteFile; each id may appear once.
  BinaryWriter& BeginSection(SectionId id);

  /// Writes the complete snapshot file and renames it over `path`.
  /// Section checksums are computed on `pool`'s workers when it is
  /// non-null. Returns IoError on filesystem failures, after removing the
  /// temp file; `path` is then left as it was.
  Status WriteFile(const std::string& path, exec::ThreadPool* pool) const;
  Status WriteFile(const std::string& path) const {
    return WriteFile(path, nullptr);
  }

  size_t num_sections() const { return sections_.size(); }

 private:
  uint32_t format_version_;
  std::vector<std::pair<SectionId, BinaryWriter>> sections_;
};

}  // namespace gsr::snapshot

#endif  // GSR_SNAPSHOT_SNAPSHOT_WRITER_H_
