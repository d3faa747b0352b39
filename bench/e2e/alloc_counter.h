#ifndef CADRL_BENCH_E2E_ALLOC_COUNTER_H_
#define CADRL_BENCH_E2E_ALLOC_COUNTER_H_

#include <cstdint>

namespace cadrl {
namespace e2e {

// Heap allocations made through the global operator new on the calling
// thread since it started. alloc_counter.cc replaces operator new for the
// whole benchmark binary (library code included) to count them.
int64_t ThreadHeapAllocs();

}  // namespace e2e
}  // namespace cadrl

#endif  // CADRL_BENCH_E2E_ALLOC_COUNTER_H_
