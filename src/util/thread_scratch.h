#ifndef CADRL_UTIL_THREAD_SCRATCH_H_
#define CADRL_UTIL_THREAD_SCRATCH_H_

#include <memory>

namespace cadrl {
namespace util {

// Borrows this thread's cached instance of T for the scope's lifetime, so
// per-request scratch keeps its grown buffers across requests instead of
// reallocating them. Each T has one cached instance per thread; a second
// scope opened on the same thread while the first is alive (no caller
// nests today) gets a fresh instance rather than sharing, so nesting stays
// correct, only slower.
template <typename T>
class ThreadScratch {
 public:
  ThreadScratch() {
    thread_local T cached;
    thread_local bool busy = false;
    if (!busy) {
      busy = true;
      busy_ = &busy;
      value_ = &cached;
    } else {
      owned_ = std::make_unique<T>();
      value_ = owned_.get();
    }
  }
  ~ThreadScratch() {
    if (busy_ != nullptr) *busy_ = false;
  }

  ThreadScratch(const ThreadScratch&) = delete;
  ThreadScratch& operator=(const ThreadScratch&) = delete;

  T& operator*() const { return *value_; }
  T* operator->() const { return value_; }

 private:
  T* value_ = nullptr;
  bool* busy_ = nullptr;
  std::unique_ptr<T> owned_;
};

}  // namespace util
}  // namespace cadrl

#endif  // CADRL_UTIL_THREAD_SCRATCH_H_
