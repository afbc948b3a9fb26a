#include "snapshot/snapshot_reader.h"

#include <algorithm>
#include <cstring>

#include "common/checksum.h"
#include "snapshot/mmap_file.h"

namespace gsr::snapshot {

namespace {

/// XxHash64 over a possibly-empty range; a zero-size vector's data() may
/// be null, which the hash must never see.
uint64_t HashPayload(const std::byte* data, size_t size) {
  static constexpr std::byte kEmpty{0};
  return XxHash64(size == 0 ? &kEmpty : data, size);
}

}  // namespace

Result<SnapshotReader> SnapshotReader::Open(const std::string& path,
                                            const OpenOptions& options) {
  if (!HostIsLittleEndian()) {
    return Status::FailedPrecondition(
        "snapshot format is little-endian only; cannot load on a big-endian "
        "host");
  }

  SnapshotReader reader;
  reader.mode_ = options.mode;
  if (options.mode == LoadMode::kMmap) {
    auto mapped = MmapFile::Map(path);
    if (!mapped.ok()) return mapped.status();
    reader.bytes_ = (*mapped)->bytes();
    reader.storage_ = std::shared_ptr<const void>(*mapped, (*mapped).get());
  } else {
    // kPaged: no bulk read at all — just the file handle; header and
    // table come in through two positional reads below.
    auto file = PagedFile::Open(path);
    if (!file.ok()) return file.status();
    reader.file_ = std::move(*file);
  }
  const bool paged = options.mode == LoadMode::kPaged;
  const uint64_t actual_size =
      paged ? reader.file_->size() : reader.bytes_.size();

  // Header checks: magic, version, endianness, declared size.
  if (actual_size < sizeof(FileHeader)) {
    return Status::InvalidArgument("snapshot file is truncated: " + path);
  }
  FileHeader header;
  if (paged) {
    GSR_RETURN_IF_ERROR(reader.file_->ReadAt(0, sizeof(header), &header));
  } else {
    std::memcpy(&header, reader.bytes_.data(), sizeof(header));
  }
  if (!header.MagicMatches()) {
    return Status::InvalidArgument("not a snapshot file (bad magic): " + path);
  }
  if (header.format_version != kFormatVersion) {
    return Status::InvalidArgument(
        "unsupported snapshot format version " +
        std::to_string(header.format_version) + " (newest supported is " +
        std::to_string(kFormatVersion) + "): " + path);
  }
  if (header.endian_tag != kEndianTag) {
    return Status::InvalidArgument(
        "snapshot was written on a host with different endianness: " + path);
  }
  if (header.file_size != actual_size) {
    return Status::InvalidArgument("snapshot file is truncated: " + path);
  }
  reader.file_size_ = static_cast<size_t>(actual_size);

  // Section table: bounds, checksum, per-section placement.
  const uint64_t table_bytes =
      static_cast<uint64_t>(header.section_count) * sizeof(SectionEntry);
  if (sizeof(FileHeader) + table_bytes > actual_size) {
    return Status::InvalidArgument("snapshot section table is truncated: " +
                                   path);
  }
  std::vector<std::byte> table_copy;
  const std::byte* table_base;
  if (paged) {
    table_copy.resize(static_cast<size_t>(table_bytes));
    if (table_bytes > 0) {
      GSR_RETURN_IF_ERROR(reader.file_->ReadAt(
          sizeof(FileHeader), table_copy.size(), table_copy.data()));
    }
    table_base = table_copy.data();
  } else {
    table_base = reader.bytes_.data() + sizeof(FileHeader);
  }
  if (HashPayload(table_base, table_bytes) != header.table_checksum) {
    return Status::InvalidArgument(
        "snapshot section table failed checksum verification: " + path);
  }
  reader.table_.resize(header.section_count);
  std::memcpy(reader.table_.data(), table_base, table_bytes);
  for (const SectionEntry& entry : reader.table_) {
    if (entry.offset % kPageAlignment != 0 || entry.offset > actual_size ||
        entry.size > actual_size - entry.offset) {
      return Status::InvalidArgument(
          "snapshot section placement is out of bounds: " + path);
    }
  }

  if (paged) {
    // Payload verification is deferred to Section(id): checksumming here
    // would read the whole file, which is the one thing this mode exists
    // to avoid.
    //
    // The budget is split: a fixed 1/8, in whole pages, pays for the
    // resident tree prefixes and the cache gets the rest. The slice never
    // takes the cache below its kMinFrames floor, so at the floor it is
    // empty and every structure pages in full.
    const size_t pages = options.page_cache_bytes / kPageAlignment;
    const size_t slice_pages =
        pages > PageCache::kMinFrames
            ? std::min(pages / 8, pages - PageCache::kMinFrames)
            : 0;
    reader.resident_slice_bytes_ = slice_pages * kPageAlignment;
    reader.resident_bytes_left_ =
        std::make_shared<size_t>(reader.resident_slice_bytes_);
    reader.page_cache_ = std::make_shared<PageCache>(
        reader.file_, (pages - slice_pages) * kPageAlignment);
    return reader;
  }

  for (const SectionEntry& entry : reader.table_) {
    if (XxHash64(reader.bytes_.data() + entry.offset, entry.size) !=
        entry.checksum) {
      return Status::InvalidArgument("snapshot section " +
                                     std::to_string(entry.id) +
                                     " failed checksum verification: " + path);
    }
  }
  return reader;
}

const SectionEntry* SnapshotReader::FindSection(SectionId id) const {
  for (const SectionEntry& entry : table_) {
    if (entry.id == static_cast<uint32_t>(id)) return &entry;
  }
  return nullptr;
}

bool SnapshotReader::HasSection(SectionId id) const {
  return FindSection(id) != nullptr;
}

Result<BinaryReader> SnapshotReader::Section(SectionId id) const {
  const SectionEntry* entry = FindSection(id);
  if (entry == nullptr) {
    return Status::NotFound("snapshot has no section with id " +
                            std::to_string(static_cast<uint32_t>(id)));
  }
  std::span<const std::byte> payload;
  if (mode_ == LoadMode::kPaged) {
    if (section_buf_id_ != entry->id) {
      section_buf_id_ = 0;
      section_buf_.resize(static_cast<size_t>(entry->size));
      if (entry->size > 0) {
        GSR_RETURN_IF_ERROR(file_->ReadAt(entry->offset, section_buf_.size(),
                                          section_buf_.data()));
      }
      if (HashPayload(section_buf_.data(), section_buf_.size()) !=
          entry->checksum) {
        return Status::InvalidArgument(
            "snapshot section " + std::to_string(entry->id) +
            " failed checksum verification: " + file_->path());
      }
      section_buf_id_ = entry->id;
    }
    payload = std::span<const std::byte>(section_buf_);
  } else {
    payload = bytes_.subspan(entry->offset, entry->size);
  }
  BinaryReader section_reader(payload);
  section_reader.set_array_alignment(kPageAlignment);
  return section_reader;
}

BorrowContext SnapshotReader::borrow_context(SectionId id) const {
  BorrowContext ctx = borrow_context();
  if (mode_ != LoadMode::kPaged) return ctx;
  if (const SectionEntry* entry = FindSection(id)) {
    ctx.paged = page_cache_;
    ctx.section_file_offset = entry->offset;
    ctx.resident_bytes_left = resident_bytes_left_;
  }
  return ctx;
}

}  // namespace gsr::snapshot
