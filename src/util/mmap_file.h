#ifndef CADRL_UTIL_MMAP_FILE_H_
#define CADRL_UTIL_MMAP_FILE_H_

#include <cstddef>
#include <memory>
#include <string>

#include "util/status.h"

namespace cadrl {
namespace util {

// A whole file mapped read-only into the address space (MAP_PRIVATE), with
// a graceful fallback to a buffered read where mmap is unavailable, fails,
// or is disabled (CADRL_NO_MMAP=1). Either way `data()` is a stable,
// immutable, suitably aligned view of the file bytes for the lifetime of
// the object: mmap bases are page-aligned and the fallback buffer comes
// from operator new[] (aligned to the default new alignment), so callers
// may reinterpret section offsets that the writer aligned.
//
// Allocate() makes the same owned-buffer object without a file: the
// in-memory backing that CompiledModel::Build encodes its shard blobs into,
// so a heap snapshot and a mapped one differ only in where the bytes live.
//
// Instances are shared by shared_ptr: the sharded snapshot loader hands the
// same mapping to successive CompiledModel generations (delta reload), and
// POSIX keeps the pages valid even after the file is renamed over or
// unlinked — which is exactly what lets an in-flight request finish on the
// shard set it acquired while a publisher replaces the files on disk.
//
// Fault injection (tests):
//   mmap/open   the open itself fails (surfaces as an error)
//   mmap/map    the mapping fails (falls back to the buffered read)
class MmapFile {
 public:
  // Opens and maps `path`. On mapping failure (or CADRL_NO_MMAP=1) the file
  // is read into an owned heap buffer instead; only an unreadable file is
  // an error.
  static Status Open(const std::string& path,
                     std::shared_ptr<const MmapFile>* out);

  // A zero-filled owned buffer of `size` bytes (mapped() == false, empty
  // path), written through mutable_data() before it is shared.
  static std::unique_ptr<MmapFile> Allocate(size_t size);

  ~MmapFile();

  MmapFile(const MmapFile&) = delete;
  MmapFile& operator=(const MmapFile&) = delete;

  const char* data() const { return data_; }
  // Writable bytes of an owned buffer; null for a real mapping.
  char* mutable_data() { return fallback_.get(); }
  size_t size() const { return size_; }
  // True when the bytes are a real mapping; false on the buffered fallback.
  bool mapped() const { return mapped_; }
  const std::string& path() const { return path_; }

 private:
  MmapFile() = default;

  std::string path_;
  const char* data_ = nullptr;
  size_t size_ = 0;
  bool mapped_ = false;
  std::unique_ptr<char[]> fallback_;  // owns the bytes when !mapped_
};

}  // namespace util
}  // namespace cadrl

#endif  // CADRL_UTIL_MMAP_FILE_H_
