#ifndef GSR_SNAPSHOT_SNAPSHOT_READER_H_
#define GSR_SNAPSHOT_SNAPSHOT_READER_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/binary_io.h"
#include "common/status.h"
#include "snapshot/format.h"
#include "snapshot/page_cache.h"
#include "snapshot/paged_file.h"

namespace gsr::snapshot {

/// How Open brings the snapshot bytes into memory. Both modes read the
/// file through POSIX calls (mmap, pread) and keep it open while anything
/// loaded from it lives, so a live snapshot is replaced by rename (what
/// SnapshotWriter does), never rewritten in place.
enum class LoadMode {
  /// Memory-map the file; deserialized structures keep zero-copy views
  /// into the mapping (pinned by the BorrowContext keepalive). Pages are
  /// faulted in lazily, so cold-start load cost is near-constant.
  kMmap,
  /// Out-of-core: only header + table are read at Open; pageable
  /// structures (FrozenRTree, FlatLabelStore) serve queries through a
  /// fixed-budget PageCache over pread, so memory use is bounded by the
  /// cache budget however large the index. Everything else is copied
  /// resident, one section at a time.
  kPaged,
};

/// How SnapshotReader::Open loads a file.
struct OpenOptions {
  LoadMode mode = LoadMode::kMmap;
  /// kPaged only: the memory budget shared by every structure loaded
  /// from this reader. A fixed 1/8 of it, in whole pages, pays for the
  /// resident tree prefixes (see resident_bytes()); the PageCache gets
  /// the rest, never below PageCache::kMinFrames frames.
  size_t page_cache_bytes = 64u << 20;
};

/// Validated random access to a snapshot file's sections. Open performs
/// every integrity check up front — magic, format version, endianness,
/// declared vs actual file size, section bounds and alignment, table and
/// payload checksums — so a reader that opens successfully can hand out
/// sections without further verification. All failures are clean Status
/// returns; no snapshot input crashes the process.
///
/// kPaged is the one deviation from "everything up front": payload
/// checksums would force reading the whole file, so each section is
/// verified when Section(id) first materializes it. Only ONE section is
/// resident at a time in that mode — calling Section invalidates the
/// BinaryReaders (and spans) vended for previous sections, and Section /
/// borrow_context are not thread-safe in kPaged (loading is
/// single-threaded; queries afterwards are fully concurrent).
class SnapshotReader {
 public:
  static Result<SnapshotReader> Open(const std::string& path,
                                     const OpenOptions& options);
  static Result<SnapshotReader> Open(const std::string& path) {
    return Open(path, OpenOptions{});
  }

  SnapshotReader(SnapshotReader&&) = default;
  SnapshotReader& operator=(SnapshotReader&&) = default;

  bool HasSection(SectionId id) const;

  /// A bounds-checked reader over one section's payload. Fails with
  /// NotFound when the snapshot has no such section; in kPaged mode also
  /// with InvalidArgument when the section fails its deferred checksum.
  Result<BinaryReader> Section(SectionId id) const;

  /// The context structures deserialize under: borrowing (with the file
  /// mapping as keepalive) in kMmap mode, copying in kPaged, where this
  /// section-less overload is the safe fallback.
  BorrowContext borrow_context() const {
    BorrowContext ctx;
    ctx.borrow = mode_ == LoadMode::kMmap;
    ctx.keepalive = storage_;
    return ctx;
  }

  /// Per-section context. Identical to borrow_context() except in kPaged
  /// mode, where it carries the page cache and the section's absolute
  /// file offset so pageable structures can record in-file addresses,
  /// plus what is left of the resident slice of the budget.
  /// Call AFTER Section(id) and deserialize before the next Section call.
  BorrowContext borrow_context(SectionId id) const;

  LoadMode mode() const { return mode_; }
  size_t file_size() const { return file_size_; }

  /// kPaged only (null otherwise): the cache every pageable structure
  /// from this reader reads through. Callers that outlive the reader
  /// (LoadedMethod) retain it to drain stats and drop pages.
  const std::shared_ptr<PageCache>& page_cache() const { return page_cache_; }

  /// kPaged only (0 otherwise): bytes of resident prefixes the structures
  /// loaded so far kept. Together with page_cache()->budget_bytes() it
  /// stays within page_cache_bytes whenever that exceeds the frame floor.
  size_t resident_bytes() const {
    return resident_bytes_left_ == nullptr
               ? 0
               : resident_slice_bytes_ - *resident_bytes_left_;
  }

 private:
  SnapshotReader() = default;

  const SectionEntry* FindSection(SectionId id) const;

  LoadMode mode_ = LoadMode::kMmap;
  size_t file_size_ = 0;
  std::shared_ptr<const void> storage_;  // Owns bytes_ (the mapping).
  std::span<const std::byte> bytes_;
  std::vector<SectionEntry> table_;

  // kPaged state. section_buf_ holds the single materialized section.
  std::shared_ptr<PagedFile> file_;
  std::shared_ptr<PageCache> page_cache_;
  size_t resident_slice_bytes_ = 0;
  std::shared_ptr<size_t> resident_bytes_left_;
  mutable std::vector<std::byte> section_buf_;
  mutable uint32_t section_buf_id_ = 0;  // 0 = no section materialized.
};

}  // namespace gsr::snapshot

#endif  // GSR_SNAPSHOT_SNAPSHOT_READER_H_
