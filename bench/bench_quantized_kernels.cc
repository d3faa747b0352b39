// Microbenchmarks of the quantized kernel layer (DESIGN.md §14): each
// fused int8 / f16 kernel against its f32 counterpart at the serving
// shapes (dim 24 from BenchConfig, plus a wider dim to show the trend),
// over row counts spanning the cache-block edges. The quantized kernels
// dequantize on the accumulate — same 8-lane reduction order, 4x (int8)
// or 2x (f16) fewer row bytes — so the interesting number is throughput
// per gathered row, not FLOPs. A BenchJson ("quantized_kernels") records
// rows/s per kernel alongside the encoded bytes per row so the perf
// trajectory is diffable across commits.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "bench_json.h"
#include "util/kernels.h"

namespace cadrl {
namespace bench {
namespace {

// One quantized table: `rows` x `d` f32 values encoded once (as
// CompiledModel::Build does), reused by every iteration.
struct QuantTable {
  int rows = 0;
  int d = 0;
  std::vector<float> f32;
  std::vector<uint16_t> f16;
  std::vector<int8_t> q8;
  std::vector<float> scales, zps;  // decoded, as the scoring views hold them

  QuantTable(int rows_in, int d_in, uint32_t seed) : rows(rows_in), d(d_in) {
    std::mt19937 rng(seed);
    std::uniform_real_distribution<float> dist(-1.0f, 1.0f);
    f32.resize(static_cast<size_t>(rows) * d);
    for (float& v : f32) v = dist(rng);
    f16.resize(f32.size());
    kernels::QuantizeRowF16(f32.data(), static_cast<int>(f32.size()),
                            f16.data());
    q8.resize(f32.size());
    scales.resize(static_cast<size_t>(rows));
    zps.resize(static_cast<size_t>(rows));
    for (int r = 0; r < rows; ++r) {
      uint16_t scale_bits = 0, zp_bits = 0;
      kernels::QuantizeRowQ8(f32.data() + static_cast<size_t>(r) * d, d,
                             q8.data() + static_cast<size_t>(r) * d,
                             &scale_bits, &zp_bits);
      scales[static_cast<size_t>(r)] = kernels::F16ToF32(scale_bits);
      zps[static_cast<size_t>(r)] = kernels::F16ToF32(zp_bits);
    }
  }
};

const QuantTable& TableFor(const benchmark::State& state) {
  // Keyed by (rows, d); benchmarks share tables so setup cost is paid once.
  static std::vector<QuantTable>* tables = new std::vector<QuantTable>();
  const int rows = static_cast<int>(state.range(0));
  const int d = static_cast<int>(state.range(1));
  for (const QuantTable& t : *tables) {
    if (t.rows == rows && t.d == d) return t;
  }
  tables->emplace_back(rows, d, /*seed=*/0x51u + static_cast<uint32_t>(d));
  return tables->back();
}

void RecordRowRate(benchmark::State& state, const std::string& kernel,
                   double bytes_per_row) {
  const double rows_per_iter = static_cast<double>(state.range(0));
  state.counters["rows/s"] = benchmark::Counter(
      rows_per_iter, benchmark::Counter::kIsIterationInvariantRate);
  state.counters["B/row"] = benchmark::Counter(bytes_per_row);
  (void)kernel;
}

// ---------- NegSqDistRows: the beam-search scoring hot loop ----------

void BM_NegSqDistRowsF32(benchmark::State& state) {
  const QuantTable& t = TableFor(state);
  std::vector<float> u(static_cast<size_t>(t.d), 0.3f);
  std::vector<float> r(static_cast<size_t>(t.d), -0.1f);
  std::vector<float> out(static_cast<size_t>(t.rows));
  for (auto _ : state) {
    kernels::NegSqDistRows(t.f32.data(), t.rows, t.d, u.data(), r.data(),
                           out.data());
    benchmark::DoNotOptimize(out.data());
  }
  RecordRowRate(state, "negsqdist_f32", 4.0 * t.d);
}

void BM_NegSqDistRowsF16(benchmark::State& state) {
  const QuantTable& t = TableFor(state);
  std::vector<float> u(static_cast<size_t>(t.d), 0.3f);
  std::vector<float> r(static_cast<size_t>(t.d), -0.1f);
  std::vector<float> out(static_cast<size_t>(t.rows));
  for (auto _ : state) {
    kernels::NegSqDistRowsF16(t.f16.data(), t.rows, t.d, u.data(), r.data(),
                              out.data());
    benchmark::DoNotOptimize(out.data());
  }
  RecordRowRate(state, "negsqdist_f16", 2.0 * t.d);
}

void BM_NegSqDistRowsQ8(benchmark::State& state) {
  const QuantTable& t = TableFor(state);
  std::vector<float> u(static_cast<size_t>(t.d), 0.3f);
  std::vector<float> r(static_cast<size_t>(t.d), -0.1f);
  std::vector<float> out(static_cast<size_t>(t.rows));
  for (auto _ : state) {
    kernels::NegSqDistRowsQ8(t.q8.data(), t.scales.data(), t.zps.data(),
                             t.rows, t.d, u.data(), r.data(), out.data());
    benchmark::DoNotOptimize(out.data());
  }
  RecordRowRate(state, "negsqdist_q8", 1.0 * t.d + 4.0);
}

// ---------- Gemv over encoded rows: batched action scoring ----------

void BM_GemvF32(benchmark::State& state) {
  const QuantTable& t = TableFor(state);
  std::vector<float> x(static_cast<size_t>(t.d), 0.7f);
  std::vector<float> y(static_cast<size_t>(t.rows));
  for (auto _ : state) {
    kernels::Gemv(t.f32.data(), t.rows, t.d, x.data(), y.data());
    benchmark::DoNotOptimize(y.data());
  }
  RecordRowRate(state, "gemv_f32", 4.0 * t.d);
}

void BM_GemvF16(benchmark::State& state) {
  const QuantTable& t = TableFor(state);
  std::vector<float> x(static_cast<size_t>(t.d), 0.7f);
  std::vector<float> y(static_cast<size_t>(t.rows));
  for (auto _ : state) {
    kernels::GemvF16(t.f16.data(), t.rows, t.d, x.data(), y.data());
    benchmark::DoNotOptimize(y.data());
  }
  RecordRowRate(state, "gemv_f16", 2.0 * t.d);
}

void BM_GemvQ8(benchmark::State& state) {
  const QuantTable& t = TableFor(state);
  std::vector<float> x(static_cast<size_t>(t.d), 0.7f);
  std::vector<float> y(static_cast<size_t>(t.rows));
  for (auto _ : state) {
    kernels::GemvQ8(t.q8.data(), t.scales.data(), t.zps.data(), t.rows, t.d,
                    x.data(), y.data());
    benchmark::DoNotOptimize(y.data());
  }
  RecordRowRate(state, "gemv_q8", 1.0 * t.d + 4.0);
}

// ---------- encode/decode ----------

void BM_QuantizeRowQ8(benchmark::State& state) {
  const QuantTable& t = TableFor(state);
  std::vector<int8_t> q(static_cast<size_t>(t.rows) * t.d);
  std::vector<uint16_t> scales(static_cast<size_t>(t.rows));
  std::vector<uint16_t> zps(static_cast<size_t>(t.rows));
  for (auto _ : state) {
    for (int r = 0; r < t.rows; ++r) {
      kernels::QuantizeRowQ8(t.f32.data() + static_cast<size_t>(r) * t.d,
                             t.d, q.data() + static_cast<size_t>(r) * t.d,
                             &scales[static_cast<size_t>(r)],
                             &zps[static_cast<size_t>(r)]);
    }
    benchmark::DoNotOptimize(q.data());
  }
  RecordRowRate(state, "quantize_q8", 1.0 * t.d + 4.0);
}

void BM_DequantizeRowQ8(benchmark::State& state) {
  const QuantTable& t = TableFor(state);
  std::vector<float> out(static_cast<size_t>(t.d));
  int64_t cursor = 0;
  for (auto _ : state) {
    const int r = static_cast<int>(cursor++ % t.rows);
    kernels::DequantizeRowQ8(t.q8.data() + static_cast<size_t>(r) * t.d,
                             t.scales[static_cast<size_t>(r)],
                             t.zps[static_cast<size_t>(r)], t.d, out.data());
    benchmark::DoNotOptimize(out.data());
  }
  state.counters["rows/s"] =
      benchmark::Counter(1.0, benchmark::Counter::kIsIterationInvariantRate);
}

// Row counts straddle the m-block edge (kBlockM = 32) and the dims cover
// the serving configuration (24) and a wider table (64).
void QuantShapes(benchmark::internal::Benchmark* b) {
  for (const int rows : {31, 32, 33, 1024}) {
    for (const int d : {24, 64}) {
      b->Args({rows, d});
    }
  }
}

BENCHMARK(BM_NegSqDistRowsF32)->Apply(QuantShapes);
BENCHMARK(BM_NegSqDistRowsF16)->Apply(QuantShapes);
BENCHMARK(BM_NegSqDistRowsQ8)->Apply(QuantShapes);
BENCHMARK(BM_GemvF32)->Apply(QuantShapes);
BENCHMARK(BM_GemvF16)->Apply(QuantShapes);
BENCHMARK(BM_GemvQ8)->Apply(QuantShapes);
BENCHMARK(BM_QuantizeRowQ8)->Args({1024, 24});
BENCHMARK(BM_DequantizeRowQ8)->Args({1024, 24});

// ---------- JSON summary (manual timing, diffable across commits) ----------

template <typename Fn>
double MeasureRowsPerSec(int rows, Fn&& fn) {
  // Warm up, then time enough reps for ~10ms of work.
  for (int i = 0; i < 8; ++i) fn();
  int reps = 32;
  for (;;) {
    const auto t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < reps; ++i) fn();
    const double s = std::chrono::duration<double>(
        std::chrono::steady_clock::now() - t0).count();
    if (s >= 0.01 || reps >= (1 << 20)) {
      return static_cast<double>(rows) * reps / s;
    }
    reps *= 4;
  }
}

// rows/s for each precision of each fused kernel at the big-table shape,
// plus the int8:f32 and f16:f32 speedups — the numbers the "Quantized
// serving" docs quote.
void WriteJsonSummary(BenchJson& json) {
  constexpr int kRows = 1024;
  for (const int d : {24, 64}) {
    const QuantTable t(kRows, d, /*seed=*/0x51u + static_cast<uint32_t>(d));
    std::vector<float> u(static_cast<size_t>(d), 0.3f);
    std::vector<float> r(static_cast<size_t>(d), -0.1f);
    std::vector<float> x(static_cast<size_t>(d), 0.7f);
    std::vector<float> out(static_cast<size_t>(kRows));
    const std::string dkey = "d" + std::to_string(d);

    struct Variant {
      const char* name;
      double rows_per_s;
    };
    const Variant negsq[] = {
        {"f32", MeasureRowsPerSec(kRows, [&] {
           kernels::NegSqDistRows(t.f32.data(), kRows, d, u.data(), r.data(),
                                  out.data());
         })},
        {"f16", MeasureRowsPerSec(kRows, [&] {
           kernels::NegSqDistRowsF16(t.f16.data(), kRows, d, u.data(),
                                     r.data(), out.data());
         })},
        {"int8", MeasureRowsPerSec(kRows, [&] {
           kernels::NegSqDistRowsQ8(t.q8.data(), t.scales.data(),
                                    t.zps.data(), kRows, d, u.data(),
                                    r.data(), out.data());
         })},
    };
    const Variant gemv[] = {
        {"f32", MeasureRowsPerSec(kRows, [&] {
           kernels::Gemv(t.f32.data(), kRows, d, x.data(), out.data());
         })},
        {"f16", MeasureRowsPerSec(kRows, [&] {
           kernels::GemvF16(t.f16.data(), kRows, d, x.data(), out.data());
         })},
        {"int8", MeasureRowsPerSec(kRows, [&] {
           kernels::GemvQ8(t.q8.data(), t.scales.data(), t.zps.data(), kRows,
                           d, x.data(), out.data());
         })},
    };
    for (const auto& [kernel, variants] :
         {std::pair<const char*, const Variant*>{"negsqdist", negsq},
          std::pair<const char*, const Variant*>{"gemv", gemv}}) {
      for (int v = 0; v < 3; ++v) {
        json.Set(std::string(kernel) + "/" + dkey + "/" + variants[v].name +
                     "_rows_per_s",
                 variants[v].rows_per_s);
      }
      json.Set(std::string(kernel) + "/" + dkey + "/f16_speedup",
               variants[1].rows_per_s / variants[0].rows_per_s);
      json.Set(std::string(kernel) + "/" + dkey + "/int8_speedup",
               variants[2].rows_per_s / variants[0].rows_per_s);
    }
  }
}

}  // namespace
}  // namespace bench
}  // namespace cadrl

int main(int argc, char** argv) {
  cadrl::bench::BenchJson json("quantized_kernels");
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  cadrl::bench::WriteJsonSummary(json);
  return 0;
}
