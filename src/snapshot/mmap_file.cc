#include "snapshot/mmap_file.h"

#include <cerrno>
#include <cstring>

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

namespace gsr::snapshot {

Result<std::shared_ptr<MmapFile>> MmapFile::Map(const std::string& path) {
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
  const size_t len = static_cast<size_t>(st.st_size);
  if (len == 0) {
    ::close(fd);
    return Status::IoError("cannot map empty file " + path);
  }
  void* addr = ::mmap(nullptr, len, PROT_READ, MAP_PRIVATE, fd, 0);
  // The mapping keeps its own reference to the file; the descriptor is no
  // longer needed either way.
  ::close(fd);
  if (addr == MAP_FAILED) {
    return Status::IoError("mmap failed for " + path + ": " +
                           std::strerror(errno));
  }
  return std::shared_ptr<MmapFile>(new MmapFile(addr, len));
}

MmapFile::~MmapFile() {
  if (addr_ != nullptr) ::munmap(addr_, len_);
}

}  // namespace gsr::snapshot
