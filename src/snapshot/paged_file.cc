#include "snapshot/paged_file.h"

#include <cerrno>
#include <cstring>

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

namespace gsr::snapshot {

Result<std::shared_ptr<PagedFile>> PagedFile::Open(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    return Status::IoError("open failed for " + path + ": " +
                           std::strerror(errno));
  }
  struct stat st;
  if (::fstat(fd, &st) != 0) {
    const std::string err = std::strerror(errno);
    ::close(fd);
    return Status::IoError("fstat failed for " + path + ": " + err);
  }
  return std::shared_ptr<PagedFile>(
      new PagedFile(fd, static_cast<uint64_t>(st.st_size), path));
}

PagedFile::~PagedFile() {
  if (fd_ >= 0) ::close(fd_);
}

Status PagedFile::ReadAt(uint64_t offset, size_t len, void* out) const {
  if (offset > size_ || len > size_ - offset) {
    return Status::OutOfRange("read past end of " + path_);
  }
  char* dst = static_cast<char*>(out);
  while (len > 0) {
    const ssize_t n = ::pread(fd_, dst, len, static_cast<off_t>(offset));
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::IoError("pread failed for " + path_ + ": " +
                             std::strerror(errno));
    }
    if (n == 0) {
      // Shorter than fstat said: the file shrank underneath us.
      return Status::IoError("unexpected EOF in " + path_);
    }
    dst += n;
    offset += static_cast<uint64_t>(n);
    len -= static_cast<size_t>(n);
  }
  return Status::Ok();
}

void PagedFile::Advise(uint64_t offset, size_t len) const {
#if defined(POSIX_FADV_WILLNEED)
  ::posix_fadvise(fd_, static_cast<off_t>(offset), static_cast<off_t>(len),
                  POSIX_FADV_WILLNEED);
#else
  (void)offset;
  (void)len;
#endif
}

}  // namespace gsr::snapshot
