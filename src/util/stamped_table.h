#ifndef CADRL_UTIL_STAMPED_TABLE_H_
#define CADRL_UTIL_STAMPED_TABLE_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace cadrl {
namespace util {

// A map from dense integer keys [0, size) to T, cleared in O(1): a slot
// holds a live value only while its stamp equals the table's generation, so
// Reset just bumps the generation. The arrays keep their capacity across
// resets, which makes a table reused per request (per-thread scratch)
// allocation-free once it has grown to the key range. keys() lists the live
// keys in first-insertion order.
template <typename T>
class StampedTable {
 public:
  // Empties the table and sizes it for keys [0, size).
  void Reset(size_t size) {
    if (stamps_.size() < size) {
      stamps_.resize(size, 0);
      values_.resize(size);
    }
    if (++generation_ == 0) {  // wrapped: old stamps could alias
      std::fill(stamps_.begin(), stamps_.end(), 0u);
      generation_ = 1;
    }
    keys_.clear();
  }

  // The live value at `key`, or null.
  T* Find(size_t key) {
    return stamps_[key] == generation_ ? &values_[key] : nullptr;
  }

  // The slot at `key`; a key not yet live this generation is made live
  // with a value-initialised T and *inserted is set.
  T& Insert(size_t key, bool* inserted) {
    *inserted = stamps_[key] != generation_;
    if (*inserted) {
      stamps_[key] = generation_;
      values_[key] = T{};
      keys_.push_back(static_cast<uint32_t>(key));
    }
    return values_[key];
  }

  std::span<const uint32_t> keys() const { return keys_; }
  const T& at(size_t key) const { return values_[key]; }

 private:
  std::vector<T> values_;
  std::vector<uint32_t> stamps_;
  std::vector<uint32_t> keys_;
  uint32_t generation_ = 0;
};

}  // namespace util
}  // namespace cadrl

#endif  // CADRL_UTIL_STAMPED_TABLE_H_
