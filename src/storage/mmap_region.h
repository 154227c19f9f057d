#ifndef LIGHT_STORAGE_MMAP_REGION_H_
#define LIGHT_STORAGE_MMAP_REGION_H_

#include <cstdint>
#include <memory>
#include <string>

#include "common/status.h"

namespace light {

/// RAII read-only mapping of a whole file. Open() maps the file itself
/// (PROT_READ, MAP_SHARED): instant open regardless of file size, and every
/// process mapping the same snapshot shares one copy in the page cache.
/// Advises the kernel that access will be random (adjacency probes) unless
/// told otherwise. ReadPrivate() copies the file into anonymous memory
/// instead: private to the process and independent of the file once read.
class MmapRegion {
 public:
  /// Maps `path` read-only. Fails with a structured Status on open/stat/
  /// mmap errors; an empty file maps successfully with size() == 0.
  static Status Open(const std::string& path,
                     std::unique_ptr<MmapRegion>* out);

  /// Reads all of `path` into a private anonymous mapping, then makes it
  /// read-only. The copy bypasses malloc, so closing it returns the memory
  /// to the kernel at once: repeated opens and closes of large snapshots
  /// cannot fragment the heap or raise glibc's dynamic mmap threshold.
  /// Errors as Open(), plus a short read.
  static Status ReadPrivate(const std::string& path,
                            std::unique_ptr<MmapRegion>* out);

  ~MmapRegion();
  MmapRegion(const MmapRegion&) = delete;
  MmapRegion& operator=(const MmapRegion&) = delete;

  const uint8_t* data() const { return data_; }
  uint64_t size() const { return size_; }

  /// madvise hints for a sub-range (offsets: willneed; adjacency: random).
  void AdviseWillNeed(uint64_t offset, uint64_t length) const;
  void AdviseRandom(uint64_t offset, uint64_t length) const;

 private:
  MmapRegion(uint8_t* data, uint64_t size) : data_(data), size_(size) {}

  uint8_t* data_ = nullptr;
  uint64_t size_ = 0;
};

}  // namespace light

#endif  // LIGHT_STORAGE_MMAP_REGION_H_
