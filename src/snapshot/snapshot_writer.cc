#include "snapshot/snapshot_writer.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstring>

#include "common/check.h"
#include "common/checksum.h"

namespace gsr::snapshot {

namespace {

size_t AlignUp(size_t value, size_t alignment) {
  const size_t rem = value % alignment;
  return rem == 0 ? value : value + (alignment - rem);
}

/// Creates `path`'s temp sibling, unique per process and call. It gets
/// the permissions a fresh fopen would give `path`, or `path`'s own when
/// it already exists.
std::FILE* CreateTempSibling(const std::string& path, std::string* temp) {
  static std::atomic<uint64_t> calls{0};
  *temp = path + ".tmp." + std::to_string(::getpid()) + "." +
          std::to_string(calls.fetch_add(1));
  const int fd = ::open(temp->c_str(), O_WRONLY | O_CREAT | O_EXCL | O_CLOEXEC,
                        0666);
  if (fd < 0) return nullptr;
  struct stat st;
  if (::stat(path.c_str(), &st) == 0 && S_ISREG(st.st_mode)) {
    ::fchmod(fd, st.st_mode & 07777);
  }
  std::FILE* f = ::fdopen(fd, "wb");
  if (f == nullptr) {
    ::close(fd);
    ::unlink(temp->c_str());
  }
  return f;
}

}  // namespace

BinaryWriter& SnapshotWriter::BeginSection(SectionId id) {
  for (const auto& [existing, writer] : sections_) {
    GSR_CHECK(existing != id);  // One section per id.
  }
  sections_.emplace_back(id, BinaryWriter());
  // Page-aligned array payloads in page-aligned sections: their
  // absolute file offsets land on page boundaries.
  sections_.back().second.set_array_alignment(kPageAlignment);
  return sections_.back().second;
}

Status SnapshotWriter::WriteFile(const std::string& path) const {
  if (!HostIsLittleEndian()) {
    return Status::FailedPrecondition(
        "snapshot format is little-endian only; refusing to write on a "
        "big-endian host");
  }

  // Lay out the file: header, table, then each payload at an aligned
  // offset.
  const size_t table_bytes = sections_.size() * sizeof(SectionEntry);
  std::vector<SectionEntry> table(sections_.size());
  size_t cursor = AlignUp(sizeof(FileHeader) + table_bytes, kPageAlignment);
  for (size_t i = 0; i < sections_.size(); ++i) {
    table[i].id = static_cast<uint32_t>(sections_[i].first);
    table[i].offset = cursor;
    const auto& bytes = sections_[i].second.bytes();
    table[i].size = bytes.size();
    table[i].checksum = XxHash64(bytes.data(), bytes.size());
    cursor = AlignUp(cursor + table[i].size, kPageAlignment);
  }
  const size_t file_size = cursor;

  FileHeader header;
  std::memcpy(header.magic, kMagic, sizeof(kMagic));
  header.format_version = kFormatVersion;
  header.endian_tag = kEndianTag;
  header.section_count = static_cast<uint32_t>(sections_.size());
  header.file_size = file_size;
  header.table_checksum = XxHash64(table.data(), table_bytes);

  // Written to a temp sibling and renamed over `path`: a method loaded
  // from the old file (mapped or paged) keeps reading the old inode, and
  // a failed save leaves the old snapshot intact.
  std::string temp;
  std::FILE* f = CreateTempSibling(path, &temp);
  if (f == nullptr) {
    return Status::IoError("cannot open snapshot file for writing: " + path +
                           ": " + std::strerror(errno));
  }
  const auto write_all = [f](const void* data, size_t len) {
    return len == 0 || std::fwrite(data, 1, len, f) == len;
  };
  static constexpr char kZeros[kPageAlignment] = {};
  bool ok = write_all(&header, sizeof(header)) &&
            write_all(table.data(), table_bytes);
  size_t written = sizeof(header) + table_bytes;
  for (size_t i = 0; ok && i < sections_.size(); ++i) {
    GSR_CHECK(table[i].offset >= written);
    ok = write_all(kZeros, table[i].offset - written);
    const auto& bytes = sections_[i].second.bytes();
    ok = ok && write_all(bytes.data(), bytes.size());
    written = table[i].offset + table[i].size;
  }
  if (ok && written < file_size) {
    ok = write_all(kZeros, file_size - written);
  }
  ok = std::fclose(f) == 0 && ok;
  if (!ok) {
    ::unlink(temp.c_str());
    return Status::IoError("short write while writing snapshot: " + path);
  }
  if (::rename(temp.c_str(), path.c_str()) != 0) {
    const std::string err = std::strerror(errno);
    ::unlink(temp.c_str());
    return Status::IoError("cannot replace snapshot file " + path + ": " +
                           err);
  }
  return Status::Ok();
}

}  // namespace gsr::snapshot
