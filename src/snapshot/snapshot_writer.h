#ifndef GSR_SNAPSHOT_SNAPSHOT_WRITER_H_
#define GSR_SNAPSHOT_SNAPSHOT_WRITER_H_

#include <string>
#include <utility>
#include <vector>

#include "common/binary_io.h"
#include "common/status.h"
#include "snapshot/format.h"

namespace gsr::snapshot {

/// Assembles a snapshot file section by section:
///
///   SnapshotWriter w;
///   index.SerializeTo(w.BeginSection(SectionId::kLabeling));
///   GSR_RETURN_IF_ERROR(w.WriteFile(path));
///
/// Sections are buffered in memory; WriteFile lays them out at
/// kPageAlignment (as are the array payloads within each section, ready
/// for LoadMode::kPaged), checksums each payload, and writes header +
/// table + payloads in one pass to a temp file beside the target, which
/// it then renames over the target. A live snapshot is replaced by
/// rename, never rewritten in place, so methods still loaded from the old
/// file keep answering from it.
class SnapshotWriter {
 public:
  /// Starts a new section and returns the serializer for its payload.
  /// The reference stays valid until WriteFile; each id may appear once.
  BinaryWriter& BeginSection(SectionId id);

  /// Writes the complete snapshot file and renames it over `path`.
  /// Returns IoError on filesystem failures, after removing the temp
  /// file; `path` is then left as it was.
  Status WriteFile(const std::string& path) const;

  size_t num_sections() const { return sections_.size(); }

 private:
  std::vector<std::pair<SectionId, BinaryWriter>> sections_;
};

}  // namespace gsr::snapshot

#endif  // GSR_SNAPSHOT_SNAPSHOT_WRITER_H_
