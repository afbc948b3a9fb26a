#ifndef GSR_SNAPSHOT_MMAP_FILE_H_
#define GSR_SNAPSHOT_MMAP_FILE_H_

#include <cstddef>
#include <memory>
#include <span>
#include <string>

#include "common/status.h"

namespace gsr::snapshot {

/// A read-only memory-mapped file. The mapping lives as long as the
/// object; SnapshotReader hands it out as a shared_ptr so zero-copy
/// structures can pin it via their BorrowContext keepalive.
class MmapFile {
 public:
  /// Maps `path` read-only (POSIX mmap). Fails with IoError when the file
  /// cannot be opened or mapped.
  static Result<std::shared_ptr<MmapFile>> Map(const std::string& path);

  ~MmapFile();

  MmapFile(const MmapFile&) = delete;
  MmapFile& operator=(const MmapFile&) = delete;

  std::span<const std::byte> bytes() const {
    return {static_cast<const std::byte*>(addr_), len_};
  }

 private:
  MmapFile(void* addr, size_t len) : addr_(addr), len_(len) {}

  void* addr_ = nullptr;
  size_t len_ = 0;
};

}  // namespace gsr::snapshot

#endif  // GSR_SNAPSHOT_MMAP_FILE_H_
