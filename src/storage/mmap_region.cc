#include "storage/mmap_region.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

namespace light {

Status MmapRegion::Open(const std::string& path,
                        std::unique_ptr<MmapRegion>* out) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    return Status::IOError("cannot open " + path + ": " +
                           std::strerror(errno));
  }
  struct stat st;
  if (::fstat(fd, &st) != 0) {
    const std::string err = std::strerror(errno);
    ::close(fd);
    return Status::IOError("cannot stat " + path + ": " + err);
  }
  const uint64_t size = static_cast<uint64_t>(st.st_size);
  uint8_t* data = nullptr;
  if (size > 0) {
    void* mapped = ::mmap(nullptr, size, PROT_READ, MAP_SHARED, fd, 0);
    if (mapped == MAP_FAILED) {
      const std::string err = std::strerror(errno);
      ::close(fd);
      return Status::IOError("cannot mmap " + path + ": " + err);
    }
    data = static_cast<uint8_t*>(mapped);
  }
  // The mapping holds its own reference to the file; the fd is not needed
  // after mmap succeeds.
  ::close(fd);
  out->reset(new MmapRegion(data, size));
  return Status::OK();
}

Status MmapRegion::ReadPrivate(const std::string& path,
                               std::unique_ptr<MmapRegion>* out) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    return Status::IOError("cannot open " + path + ": " +
                           std::strerror(errno));
  }
  struct stat st;
  if (::fstat(fd, &st) != 0) {
    const std::string err = std::strerror(errno);
    ::close(fd);
    return Status::IOError("cannot stat " + path + ": " + err);
  }
  const uint64_t size = static_cast<uint64_t>(st.st_size);
  uint8_t* data = nullptr;
  if (size > 0) {
    void* mapped = ::mmap(nullptr, size, PROT_READ | PROT_WRITE,
                          MAP_PRIVATE | MAP_ANONYMOUS | MAP_POPULATE, -1, 0);
    if (mapped == MAP_FAILED) {
      const std::string err = std::strerror(errno);
      ::close(fd);
      return Status::IOError("cannot allocate " + std::to_string(size) +
                             " bytes for " + path + ": " + err);
    }
    data = static_cast<uint8_t*>(mapped);
    uint64_t done = 0;
    while (done < size) {
      const ssize_t got = ::pread(fd, data + done, size - done,
                                  static_cast<off_t>(done));
      if (got < 0 && errno == EINTR) continue;
      if (got <= 0) {
        const std::string err = got < 0 ? std::strerror(errno) : "short read";
        ::munmap(data, size);
        ::close(fd);
        return Status::IOError("cannot read " + path + ": " + err);
      }
      done += static_cast<uint64_t>(got);
    }
    ::mprotect(data, size, PROT_READ);
  }
  ::close(fd);
  out->reset(new MmapRegion(data, size));
  return Status::OK();
}

MmapRegion::~MmapRegion() {
  if (data_ != nullptr) ::munmap(data_, size_);
}

void MmapRegion::AdviseWillNeed(uint64_t offset, uint64_t length) const {
  if (data_ == nullptr || length == 0 || offset >= size_) return;
  const uint64_t page = static_cast<uint64_t>(::sysconf(_SC_PAGESIZE));
  const uint64_t begin = offset & ~(page - 1);
  const uint64_t end = std::min<uint64_t>(size_, offset + length);
  ::madvise(data_ + begin, end - begin, MADV_WILLNEED);
}

void MmapRegion::AdviseRandom(uint64_t offset, uint64_t length) const {
  if (data_ == nullptr || length == 0 || offset >= size_) return;
  const uint64_t page = static_cast<uint64_t>(::sysconf(_SC_PAGESIZE));
  const uint64_t begin = offset & ~(page - 1);
  const uint64_t end = std::min<uint64_t>(size_, offset + length);
  ::madvise(data_ + begin, end - begin, MADV_RANDOM);
}

}  // namespace light
