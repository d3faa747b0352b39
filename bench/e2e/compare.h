#ifndef CADRL_BENCH_E2E_COMPARE_H_
#define CADRL_BENCH_E2E_COMPARE_H_

#include <string>
#include <vector>

namespace cadrl {
namespace e2e {

// `cadrl_e2e compare <base.jsonl...> -- <head.jsonl...> [--benchmark F]`:
// pairs the i-th base run with the i-th head run and prints one row per
// (metric, workload) with both sides' medians and quartiles, the head's
// wins and a verdict under the bounds in BENCHMARK.json:
//   gain        the head wins >= 9/10 of the pairs (ties count for
//               neither) and the medians differ by more than the base's
//               interquartile range;
//   regression  the head's median is worse than the base's by more than
//               the metric's bound (end-to-end metrics only);
//   unresolved  the spread of either side is wider than the bound and the
//               head does not beat every base run;
//   unchanged   otherwise (per-layer metrics, which have no bound, read
//               "-").
// Fewer than 10 pairs are refused. Returns 0, 1 when any row is a
// regression, 2 on bad input.
int RunCompare(const std::vector<std::string>& args);

}  // namespace e2e
}  // namespace cadrl

#endif  // CADRL_BENCH_E2E_COMPARE_H_
