#ifndef CADRL_BENCH_E2E_REPORT_H_
#define CADRL_BENCH_E2E_REPORT_H_

// Order statistics and the benchmark's output format: one JSON line per
// metric ({"workload","metric","value","unit","n","kind"}), and at the end
// one summary line {"correct","attempted","failed","metrics"}.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <iostream>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace cadrl {
namespace e2e {

// Linear-interpolation quantile (q in [0, 1]) between order statistics;
// 0 for an empty sample.
inline double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

inline double Median(const std::vector<double>& v) { return Quantile(v, 0.5); }

// The q-quantile of each of `slices` consecutive equal chunks of a sample
// in time order, then the median of those. A stall of the host (this runs
// on shared virtual machines) lands in one chunk and moves only that
// chunk's tail, not the reported one.
inline double SlicedQuantile(const std::vector<double>& in_time_order,
                             double q, int slices) {
  slices = std::max(1, slices);
  std::vector<double> per_slice;
  const size_t n = in_time_order.size();
  for (int s = 0; s < slices; ++s) {
    const auto begin = in_time_order.begin() + n * s / slices;
    const auto end = in_time_order.begin() + n * (s + 1) / slices;
    if (begin != end) per_slice.push_back(Quantile({begin, end}, q));
  }
  return Median(per_slice);
}

// Quartiles as Python's statistics.quantiles(v, n=4) computes them (the
// default "exclusive" method), so the compare tool and an external
// spread check agree. Needs at least two values.
struct Quartiles {
  double q1 = 0.0, median = 0.0, q3 = 0.0;
  double iqr() const { return q3 - q1; }
};
inline Quartiles QuartilesOf(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const double n = static_cast<double>(v.size());
  auto at = [&](int j) {
    const double m = (n + 1.0) * j / 4.0;
    const int i = std::clamp(static_cast<int>(std::floor(m)), 1,
                             static_cast<int>(v.size()) - 1);
    const double delta = m - i;
    return v[static_cast<size_t>(i - 1)] +
           delta * (v[static_cast<size_t>(i)] - v[static_cast<size_t>(i - 1)]);
  };
  if (v.size() < 2) {
    const double x = v.empty() ? 0.0 : v[0];
    return {x, x, x};
  }
  return {at(1), at(2), at(3)};
}

// Events per second in each whole `slice_s` slice of [begin_ns, end_ns),
// then the median slice: a stall of the host costs one slice.
inline double MedianSliceRate(const std::vector<int64_t>& event_ns,
                              int64_t begin_ns, int64_t end_ns, double slice_s,
                              int* slices) {
  const int64_t slice_ns = static_cast<int64_t>(slice_s * 1e9);
  *slices = static_cast<int>(std::max<int64_t>(1, (end_ns - begin_ns) /
                                                      slice_ns));
  std::vector<double> rate(static_cast<size_t>(*slices), 0.0);
  for (const int64_t t : event_ns) {
    if (t < begin_ns) continue;
    const int64_t slice = (t - begin_ns) / slice_ns;
    if (slice < *slices) rate[static_cast<size_t>(slice)] += 1.0 / slice_s;
  }
  return Median(rate);
}

inline std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

inline std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (static_cast<unsigned char>(c) >= 0x20) out.push_back(c);
  }
  return out + "\"";
}

enum class Kind { kE2e, kLayer, kDiag };

// Collects one workload run's metrics and correctness verdict. Every
// metric is printed as soon as it is known; the summary line is printed
// once by the caller after every workload ran.
class Report {
 public:
  Report(std::string workload, bool traced)
      : workload_(std::move(workload)), traced_(traced) {}

  const std::string& workload() const { return workload_; }
  bool traced() const { return traced_; }

  // `extra` holds additional numeric fields for the line (kernel probes
  // attach their computed FLOPs and bytes).
  void Add(Kind kind, const std::string& metric, double value,
           const std::string& unit, int64_t n,
           const std::vector<std::pair<std::string, double>>& extra = {}) {
    static const char* kNames[] = {"e2e", "layer", "diag"};
    std::string line = "{\"workload\":" + JsonString(workload_) +
                       ",\"metric\":" + JsonString(metric) +
                       ",\"value\":" + JsonNumber(value) +
                       ",\"unit\":" + JsonString(unit) +
                       ",\"n\":" + std::to_string(n) + ",\"kind\":\"" +
                       kNames[static_cast<int>(kind)] + "\"";
    for (const auto& [key, v] : extra) {
      line += "," + JsonString(key) + ":" + JsonNumber(v);
    }
    std::cout << line << "}\n";
    if (kind == (traced_ ? Kind::kLayer : Kind::kE2e)) {
      summary_[metric] = {value, unit};
    }
  }
  void E2e(const std::string& m, double v, const std::string& unit,
           int64_t n) {
    Add(Kind::kE2e, m, v, unit, n);
  }
  void Layer(const std::string& m, double v, const std::string& unit,
             int64_t n) {
    Add(Kind::kLayer, m, v, unit, n);
  }
  void Diag(const std::string& m, double v, const std::string& unit,
            int64_t n) {
    Add(Kind::kDiag, m, v, unit, n);
  }

  // A correctness check failed: the run's verdict becomes false.
  void Fail(const std::string& why) {
    if (failures_++ < 20) {
      std::cerr << "[" << workload_ << "] CHECK FAILED: " << why << "\n";
    }
  }
  bool correct() const { return failures_ == 0; }

  void Attempt(int64_t attempted, int64_t failed) {
    attempted_ += attempted;
    failed_ += failed;
  }
  int64_t attempted() const { return attempted_; }
  int64_t failed() const { return failed_; }

  // The metrics of the summary line: the end-to-end metrics of an
  // untraced run, the per-layer metrics of a traced one.
  const std::map<std::string, std::pair<double, std::string>>& summary()
      const {
    return summary_;
  }

 private:
  std::string workload_;
  bool traced_;
  int64_t failures_ = 0;
  int64_t attempted_ = 0;
  int64_t failed_ = 0;
  std::map<std::string, std::pair<double, std::string>> summary_;
};

}  // namespace e2e
}  // namespace cadrl

#endif  // CADRL_BENCH_E2E_REPORT_H_
