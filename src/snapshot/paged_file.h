#ifndef GSR_SNAPSHOT_PAGED_FILE_H_
#define GSR_SNAPSHOT_PAGED_FILE_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>

#include "common/status.h"

namespace gsr::snapshot {

/// A read-only file accessed with positional reads (pread) instead of a
/// mapping — the raw IO layer under PageCache. Unlike MmapFile it never
/// charges the process address space with the whole index; every byte
/// that enters memory does so through an explicit ReadAt into a caller
/// buffer, which is what lets the cache enforce a hard budget.
///
/// ReadAt is stateless and thread-safe (positional reads share no file
/// offset), so one PagedFile serves any number of concurrent readers.
class PagedFile {
 public:
  /// Opens `path` read-only (POSIX open/pread). Fails with IoError when
  /// the file cannot be opened or stat'ed.
  static Result<std::shared_ptr<PagedFile>> Open(const std::string& path);

  ~PagedFile();

  PagedFile(const PagedFile&) = delete;
  PagedFile& operator=(const PagedFile&) = delete;

  uint64_t size() const { return size_; }
  const std::string& path() const { return path_; }

  /// Reads exactly `len` bytes at `offset` into `out`, looping over short
  /// reads. Reading past end-of-file is OutOfRange (a snapshot address
  /// outside the file means corruption, not a partial result).
  Status ReadAt(uint64_t offset, size_t len, void* out) const;

  /// Asks the kernel to start readahead for [offset, offset + len).
  /// Advisory only; never fails.
  void Advise(uint64_t offset, size_t len) const;

 private:
  PagedFile(int fd, uint64_t size, std::string path)
      : fd_(fd), size_(size), path_(std::move(path)) {}

  int fd_ = -1;
  uint64_t size_ = 0;
  std::string path_;
};

}  // namespace gsr::snapshot

#endif  // GSR_SNAPSHOT_PAGED_FILE_H_
