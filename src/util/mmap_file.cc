#include "util/mmap_file.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstdlib>
#include <cstring>

#include "util/failpoint.h"
#include "util/logging.h"

namespace cadrl {
namespace util {
namespace {

std::string Errno(const std::string& what) {
  return what + ": " + std::strerror(errno);
}

bool MmapDisabledByEnv() {
  const char* env = std::getenv("CADRL_NO_MMAP");
  return env != nullptr && env[0] != '\0' && env[0] != '0';
}

// Reads the already-open fd into an owned buffer (the mmap fallback).
Status ReadAll(int fd, const std::string& path, size_t size, char* out) {
  size_t off = 0;
  while (off < size) {
    const ssize_t n = ::pread(fd, out + off, size - off, off);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::IOError(Errno("read failed: " + path));
    }
    if (n == 0) {
      return Status::IOError("short read: " + path +
                             " (file shrank while opening)");
    }
    off += static_cast<size_t>(n);
  }
  return Status::OK();
}

}  // namespace

Status MmapFile::Open(const std::string& path,
                      std::shared_ptr<const MmapFile>* out) {
  CADRL_CHECK(out != nullptr);
  if (CADRL_FAILPOINT("mmap/open")) {
    return Status::IOError("cannot open " + path + " (injected)");
  }
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) return Status::IOError(Errno("cannot open " + path));

  struct stat st;
  if (::fstat(fd, &st) != 0) {
    const Status status = Status::IOError(Errno("fstat failed: " + path));
    ::close(fd);
    return status;
  }
  const size_t size = static_cast<size_t>(st.st_size);

  std::shared_ptr<MmapFile> file(new MmapFile());
  file->path_ = path;
  file->size_ = size;

  if (size == 0) {
    // Zero-length files have nothing to map; hand back an empty view.
    ::close(fd);
    *out = std::move(file);
    return Status::OK();
  }

  if (!MmapDisabledByEnv() && !CADRL_FAILPOINT("mmap/map")) {
    void* base = ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd, 0);
    if (base != MAP_FAILED) {
      file->data_ = static_cast<const char*>(base);
      file->mapped_ = true;
      ::close(fd);
      *out = std::move(file);
      return Status::OK();
    }
  }

  // Fallback: buffered read into a heap buffer. operator new[] guarantees
  // alignment to __STDCPP_DEFAULT_NEW_ALIGNMENT__ (>= 16 on the supported
  // toolchains), which satisfies every element type the shard format stores.
  file->fallback_.reset(new char[size]);
  const Status status = ReadAll(fd, path, size, file->fallback_.get());
  ::close(fd);
  if (!status.ok()) return status;
  file->data_ = file->fallback_.get();
  file->mapped_ = false;
  *out = std::move(file);
  return Status::OK();
}

std::unique_ptr<MmapFile> MmapFile::Allocate(size_t size) {
  std::unique_ptr<MmapFile> buffer(new MmapFile());
  buffer->fallback_.reset(new char[size]());
  buffer->data_ = buffer->fallback_.get();
  buffer->size_ = size;
  return buffer;
}

MmapFile::~MmapFile() {
  if (mapped_ && data_ != nullptr) {
    ::munmap(const_cast<char*>(data_), size_);
  }
}

}  // namespace util
}  // namespace cadrl
