#include "util/kernels.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <iostream>


// Both backends implement the identical summation order documented in the
// header; the blocked backend only adds `#pragma omp simd` (a no-op unless
// the build enables -fopenmp-simd), __restrict qualification and fixed
// cache blocks, none of which may reorder a floating-point reduction.
// Any change here that alters the order of additions for *either* backend
// breaks the cross-backend and thread-count bit-identity contracts —
// tests/kernels_test.cc and tests/thread_invariance_test.cc enforce both.

#if defined(_MSC_VER)
#define CADRL_RESTRICT __restrict
#else
#define CADRL_RESTRICT __restrict__
#endif

namespace cadrl {
namespace kernels {
namespace {

constexpr int kLanes = 8;

// Fixed cache blocks for GemmAcc. Values are perf-only: per-element sums
// still accumulate in ascending k regardless of the block sizes, so they
// may be retuned without re-baselining anything.
constexpr int kBlockM = 32;
constexpr int kBlockK = 128;

inline float Fold(const float s[kLanes]) {
  return ((s[0] + s[1]) + (s[2] + s[3])) + ((s[4] + s[5]) + (s[6] + s[7]));
}

Backend DefaultBackend() {
#ifdef CADRL_KERNELS_DEFAULT_SCALAR
  return Backend::kScalar;
#else
  return Backend::kBlocked;
#endif
}

Backend BackendFromEnv() {
  const char* env = std::getenv("CADRL_KERNELS");
  if (env == nullptr || env[0] == '\0') return DefaultBackend();
  const std::string value(env);
  if (value == "scalar") return Backend::kScalar;
  if (value == "blocked") return Backend::kBlocked;
  std::cerr << "CADRL_KERNELS: unknown backend \"" << value << "\", using "
            << BackendName(DefaultBackend()) << "\n";
  return DefaultBackend();
}

std::atomic<Backend>& BackendRef() {
  static std::atomic<Backend> backend{BackendFromEnv()};
  return backend;
}

// Dequantized element value shared by every Q8 kernel and DequantizeRowQ8;
// one expression so fused and dequantize-first paths are bit-identical.
inline float DequantQ8(int8_t q, float scale, float zp) {
  return (static_cast<float>(q) - zp) * scale;
}

// ---------------------------------------------------------------------------
// Scalar backend: the reference for the documented order.
// ---------------------------------------------------------------------------

float DotScalar(const float* x, const float* y, int n) {
  float s[kLanes] = {0.f, 0.f, 0.f, 0.f, 0.f, 0.f, 0.f, 0.f};
  int i = 0;
  for (; i + kLanes <= n; i += kLanes) {
    for (int l = 0; l < kLanes; ++l) s[l] += x[i + l] * y[i + l];
  }
  for (int l = 0; i < n; ++i, ++l) s[l] += x[i] * y[i];
  return Fold(s);
}

void AxpyScalar(int n, float alpha, const float* x, float* y) {
  for (int i = 0; i < n; ++i) y[i] += alpha * x[i];
}

void GemmAccScalar(const float* a, const float* b, float* c, int m, int k,
                   int p) {
  for (int i = 0; i < m; ++i) {
    for (int kk = 0; kk < k; ++kk) {
      const float aik = a[i * k + kk];
      const float* b_row = b + kk * p;
      float* c_row = c + i * p;
      for (int j = 0; j < p; ++j) c_row[j] += aik * b_row[j];
    }
  }
}

void NegSqDistRowsScalar(const float* rows, int num, int d, const float* u,
                         const float* r, float* out) {
  for (int i = 0; i < num; ++i) {
    const float* row = rows + static_cast<long>(i) * d;
    float s[kLanes] = {0.f, 0.f, 0.f, 0.f, 0.f, 0.f, 0.f, 0.f};
    int j = 0;
    for (; j + kLanes <= d; j += kLanes) {
      for (int l = 0; l < kLanes; ++l) {
        const float diff = (u[j + l] + r[j + l]) - row[j + l];
        s[l] += diff * diff;
      }
    }
    for (int l = 0; j < d; ++j, ++l) {
      const float diff = (u[j] + r[j]) - row[j];
      s[l] += diff * diff;
    }
    out[i] = -Fold(s);
  }
}

float DotQ8Scalar(const float* x, const int8_t* q, float scale, float zp,
                  int n) {
  float s[kLanes] = {0.f, 0.f, 0.f, 0.f, 0.f, 0.f, 0.f, 0.f};
  int i = 0;
  for (; i + kLanes <= n; i += kLanes) {
    for (int l = 0; l < kLanes; ++l) {
      s[l] += x[i + l] * DequantQ8(q[i + l], scale, zp);
    }
  }
  for (int l = 0; i < n; ++i, ++l) s[l] += x[i] * DequantQ8(q[i], scale, zp);
  return Fold(s);
}

float DotF16Scalar(const float* x, const uint16_t* h, int n) {
  float s[kLanes] = {0.f, 0.f, 0.f, 0.f, 0.f, 0.f, 0.f, 0.f};
  int i = 0;
  for (; i + kLanes <= n; i += kLanes) {
    for (int l = 0; l < kLanes; ++l) s[l] += x[i + l] * F16ToF32(h[i + l]);
  }
  for (int l = 0; i < n; ++i, ++l) s[l] += x[i] * F16ToF32(h[i]);
  return Fold(s);
}

void NegSqDistRowsQ8Scalar(const int8_t* rows, const float* scales,
                           const float* zps, int num, int d, const float* u,
                           const float* r, float* out) {
  for (int i = 0; i < num; ++i) {
    const int8_t* row = rows + static_cast<long>(i) * d;
    const float scale = scales[i];
    const float zp = zps[i];
    float s[kLanes] = {0.f, 0.f, 0.f, 0.f, 0.f, 0.f, 0.f, 0.f};
    int j = 0;
    for (; j + kLanes <= d; j += kLanes) {
      for (int l = 0; l < kLanes; ++l) {
        const float diff =
            (u[j + l] + r[j + l]) - DequantQ8(row[j + l], scale, zp);
        s[l] += diff * diff;
      }
    }
    for (int l = 0; j < d; ++j, ++l) {
      const float diff = (u[j] + r[j]) - DequantQ8(row[j], scale, zp);
      s[l] += diff * diff;
    }
    out[i] = -Fold(s);
  }
}

void NegSqDistRowsF16Scalar(const uint16_t* rows, int num, int d,
                            const float* u, const float* r, float* out) {
  for (int i = 0; i < num; ++i) {
    const uint16_t* row = rows + static_cast<long>(i) * d;
    float s[kLanes] = {0.f, 0.f, 0.f, 0.f, 0.f, 0.f, 0.f, 0.f};
    int j = 0;
    for (; j + kLanes <= d; j += kLanes) {
      for (int l = 0; l < kLanes; ++l) {
        const float diff = (u[j + l] + r[j + l]) - F16ToF32(row[j + l]);
        s[l] += diff * diff;
      }
    }
    for (int l = 0; j < d; ++j, ++l) {
      const float diff = (u[j] + r[j]) - F16ToF32(row[j]);
      s[l] += diff * diff;
    }
    out[i] = -Fold(s);
  }
}

// ---------------------------------------------------------------------------
// Blocked backend: identical arithmetic order, annotated for SIMD.
// ---------------------------------------------------------------------------

float DotBlocked(const float* CADRL_RESTRICT x, const float* CADRL_RESTRICT y,
                 int n) {
  float s[kLanes] = {0.f, 0.f, 0.f, 0.f, 0.f, 0.f, 0.f, 0.f};
  int i = 0;
  for (; i + kLanes <= n; i += kLanes) {
#pragma omp simd
    for (int l = 0; l < kLanes; ++l) s[l] += x[i + l] * y[i + l];
  }
  for (int l = 0; i < n; ++i, ++l) s[l] += x[i] * y[i];
  return Fold(s);
}

void AxpyBlocked(int n, float alpha, const float* CADRL_RESTRICT x,
                 float* CADRL_RESTRICT y) {
#pragma omp simd
  for (int i = 0; i < n; ++i) y[i] += alpha * x[i];
}

void GemmAccBlocked(const float* CADRL_RESTRICT a,
                    const float* CADRL_RESTRICT b, float* CADRL_RESTRICT c,
                    int m, int k, int p) {
  for (int i0 = 0; i0 < m; i0 += kBlockM) {
    const int i1 = i0 + kBlockM < m ? i0 + kBlockM : m;
    for (int k0 = 0; k0 < k; k0 += kBlockK) {
      const int k1 = k0 + kBlockK < k ? k0 + kBlockK : k;
      for (int i = i0; i < i1; ++i) {
        float* CADRL_RESTRICT c_row = c + static_cast<long>(i) * p;
        for (int kk = k0; kk < k1; ++kk) {
          const float aik = a[static_cast<long>(i) * k + kk];
          const float* CADRL_RESTRICT b_row = b + static_cast<long>(kk) * p;
#pragma omp simd
          for (int j = 0; j < p; ++j) c_row[j] += aik * b_row[j];
        }
      }
    }
  }
}

void NegSqDistRowsBlocked(const float* CADRL_RESTRICT rows, int num, int d,
                          const float* CADRL_RESTRICT u,
                          const float* CADRL_RESTRICT r,
                          float* CADRL_RESTRICT out) {
  for (int i = 0; i < num; ++i) {
    const float* CADRL_RESTRICT row = rows + static_cast<long>(i) * d;
    float s[kLanes] = {0.f, 0.f, 0.f, 0.f, 0.f, 0.f, 0.f, 0.f};
    int j = 0;
    for (; j + kLanes <= d; j += kLanes) {
#pragma omp simd
      for (int l = 0; l < kLanes; ++l) {
        const float diff = (u[j + l] + r[j + l]) - row[j + l];
        s[l] += diff * diff;
      }
    }
    for (int l = 0; j < d; ++j, ++l) {
      const float diff = (u[j] + r[j]) - row[j];
      s[l] += diff * diff;
    }
    out[i] = -Fold(s);
  }
}

float DotQ8Blocked(const float* CADRL_RESTRICT x,
                   const int8_t* CADRL_RESTRICT q, float scale, float zp,
                   int n) {
  float s[kLanes] = {0.f, 0.f, 0.f, 0.f, 0.f, 0.f, 0.f, 0.f};
  int i = 0;
  for (; i + kLanes <= n; i += kLanes) {
#pragma omp simd
    for (int l = 0; l < kLanes; ++l) {
      s[l] += x[i + l] * DequantQ8(q[i + l], scale, zp);
    }
  }
  for (int l = 0; i < n; ++i, ++l) s[l] += x[i] * DequantQ8(q[i], scale, zp);
  return Fold(s);
}

float DotF16Blocked(const float* CADRL_RESTRICT x,
                    const uint16_t* CADRL_RESTRICT h, int n) {
  float s[kLanes] = {0.f, 0.f, 0.f, 0.f, 0.f, 0.f, 0.f, 0.f};
  int i = 0;
  for (; i + kLanes <= n; i += kLanes) {
#pragma omp simd
    for (int l = 0; l < kLanes; ++l) s[l] += x[i + l] * F16ToF32(h[i + l]);
  }
  for (int l = 0; i < n; ++i, ++l) s[l] += x[i] * F16ToF32(h[i]);
  return Fold(s);
}

void NegSqDistRowsQ8Blocked(const int8_t* CADRL_RESTRICT rows,
                            const float* CADRL_RESTRICT scales,
                            const float* CADRL_RESTRICT zps, int num, int d,
                            const float* CADRL_RESTRICT u,
                            const float* CADRL_RESTRICT r,
                            float* CADRL_RESTRICT out) {
  for (int i = 0; i < num; ++i) {
    const int8_t* CADRL_RESTRICT row = rows + static_cast<long>(i) * d;
    const float scale = scales[i];
    const float zp = zps[i];
    float s[kLanes] = {0.f, 0.f, 0.f, 0.f, 0.f, 0.f, 0.f, 0.f};
    int j = 0;
    for (; j + kLanes <= d; j += kLanes) {
#pragma omp simd
      for (int l = 0; l < kLanes; ++l) {
        const float diff =
            (u[j + l] + r[j + l]) - DequantQ8(row[j + l], scale, zp);
        s[l] += diff * diff;
      }
    }
    for (int l = 0; j < d; ++j, ++l) {
      const float diff = (u[j] + r[j]) - DequantQ8(row[j], scale, zp);
      s[l] += diff * diff;
    }
    out[i] = -Fold(s);
  }
}

void NegSqDistRowsF16Blocked(const uint16_t* CADRL_RESTRICT rows, int num,
                             int d, const float* CADRL_RESTRICT u,
                             const float* CADRL_RESTRICT r,
                             float* CADRL_RESTRICT out) {
  for (int i = 0; i < num; ++i) {
    const uint16_t* CADRL_RESTRICT row = rows + static_cast<long>(i) * d;
    float s[kLanes] = {0.f, 0.f, 0.f, 0.f, 0.f, 0.f, 0.f, 0.f};
    int j = 0;
    for (; j + kLanes <= d; j += kLanes) {
#pragma omp simd
      for (int l = 0; l < kLanes; ++l) {
        const float diff = (u[j + l] + r[j + l]) - F16ToF32(row[j + l]);
        s[l] += diff * diff;
      }
    }
    for (int l = 0; j < d; ++j, ++l) {
      const float diff = (u[j] + r[j]) - F16ToF32(row[j]);
      s[l] += diff * diff;
    }
    out[i] = -Fold(s);
  }
}

}  // namespace

Backend ActiveBackend() {
  return BackendRef().load(std::memory_order_acquire);
}

void SetBackend(Backend backend) {
  BackendRef().store(backend, std::memory_order_release);
}

const char* BackendName(Backend backend) {
  return backend == Backend::kScalar ? "scalar" : "blocked";
}

float Dot(const float* x, const float* y, int n) {
  return ActiveBackend() == Backend::kScalar ? DotScalar(x, y, n)
                                             : DotBlocked(x, y, n);
}

void Axpy(int n, float alpha, const float* x, float* y) {
  if (ActiveBackend() == Backend::kScalar) {
    AxpyScalar(n, alpha, x, y);
  } else {
    AxpyBlocked(n, alpha, x, y);
  }
}

void Gemv(const float* a, int m, int n, const float* x, float* y) {
  if (ActiveBackend() == Backend::kScalar) {
    for (int i = 0; i < m; ++i) {
      y[i] = DotScalar(a + static_cast<long>(i) * n, x, n);
    }
  } else {
    for (int i = 0; i < m; ++i) {
      y[i] = DotBlocked(a + static_cast<long>(i) * n, x, n);
    }
  }
}

void GemvAcc(const float* a, int m, int n, const float* x, float* y) {
  if (ActiveBackend() == Backend::kScalar) {
    for (int i = 0; i < m; ++i) {
      y[i] += DotScalar(a + static_cast<long>(i) * n, x, n);
    }
  } else {
    for (int i = 0; i < m; ++i) {
      y[i] += DotBlocked(a + static_cast<long>(i) * n, x, n);
    }
  }
}

void GemvTAcc(const float* a, int m, int n, const float* x, float* y) {
  // Ascending-i Axpy rows: the same accumulation order for y[j] as the
  // historical i-outer/j-inner backward loops.
  if (ActiveBackend() == Backend::kScalar) {
    for (int i = 0; i < m; ++i) {
      AxpyScalar(n, x[i], a + static_cast<long>(i) * n, y);
    }
  } else {
    for (int i = 0; i < m; ++i) {
      AxpyBlocked(n, x[i], a + static_cast<long>(i) * n, y);
    }
  }
}

void GerAcc(int m, int n, const float* x, const float* y, float* a) {
  if (ActiveBackend() == Backend::kScalar) {
    for (int i = 0; i < m; ++i) {
      AxpyScalar(n, x[i], y, a + static_cast<long>(i) * n);
    }
  } else {
    for (int i = 0; i < m; ++i) {
      AxpyBlocked(n, x[i], y, a + static_cast<long>(i) * n);
    }
  }
}

void GemmAcc(const float* a, const float* b, float* c, int m, int k, int p) {
  if (ActiveBackend() == Backend::kScalar) {
    GemmAccScalar(a, b, c, m, k, p);
  } else {
    GemmAccBlocked(a, b, c, m, k, p);
  }
}

void GemmNTAcc(const float* a, const float* b, float* c, int m, int n,
               int k) {
  if (ActiveBackend() == Backend::kScalar) {
    for (int i = 0; i < m; ++i) {
      const float* a_row = a + static_cast<long>(i) * k;
      float* c_row = c + static_cast<long>(i) * n;
      for (int j = 0; j < n; ++j) {
        c_row[j] += DotScalar(a_row, b + static_cast<long>(j) * k, k);
      }
    }
  } else {
    for (int i = 0; i < m; ++i) {
      const float* a_row = a + static_cast<long>(i) * k;
      float* c_row = c + static_cast<long>(i) * n;
      for (int j = 0; j < n; ++j) {
        c_row[j] += DotBlocked(a_row, b + static_cast<long>(j) * k, k);
      }
    }
  }
}

void GemmTNAcc(const float* a, const float* b, float* c, int m, int k,
               int p) {
  // dB-style product: ascending-i Axpy rows, matching the historical
  // i-outer dB = A^T dC loop.
  if (ActiveBackend() == Backend::kScalar) {
    for (int i = 0; i < m; ++i) {
      const float* a_row = a + static_cast<long>(i) * k;
      const float* b_row = b + static_cast<long>(i) * p;
      for (int j = 0; j < k; ++j) {
        AxpyScalar(p, a_row[j], b_row, c + static_cast<long>(j) * p);
      }
    }
  } else {
    for (int i = 0; i < m; ++i) {
      const float* a_row = a + static_cast<long>(i) * k;
      const float* b_row = b + static_cast<long>(i) * p;
      for (int j = 0; j < k; ++j) {
        AxpyBlocked(p, a_row[j], b_row, c + static_cast<long>(j) * p);
      }
    }
  }
}

void NegSqDistRows(const float* rows, int num, int d, const float* u,
                   const float* r, float* out) {
  if (ActiveBackend() == Backend::kScalar) {
    NegSqDistRowsScalar(rows, num, d, u, r, out);
  } else {
    NegSqDistRowsBlocked(rows, num, d, u, r, out);
  }
}

// ---------------------------------------------------------------------------
// binary16 conversions. Pure bit manipulation — no compiler f16 extension,
// so both backends (and every build) convert identically.
// ---------------------------------------------------------------------------

float F16ToF32(uint16_t bits) {
  const uint32_t sign = static_cast<uint32_t>(bits & 0x8000u) << 16;
  uint32_t exp = (bits >> 10) & 0x1Fu;
  uint32_t mant = bits & 0x3FFu;
  uint32_t out;
  if (exp == 0) {
    if (mant == 0) {
      out = sign;  // signed zero
    } else {
      // Subnormal: renormalize into the f32 exponent range.
      int shift = 0;
      while ((mant & 0x400u) == 0) {
        mant <<= 1;
        ++shift;
      }
      mant &= 0x3FFu;
      out = sign | (static_cast<uint32_t>(112 - shift) << 23) | (mant << 13);
    }
  } else if (exp == 31) {
    out = sign | 0x7F800000u | (mant << 13);  // inf / nan
  } else {
    out = sign | ((exp + 112u) << 23) | (mant << 13);
  }
  float f;
  std::memcpy(&f, &out, sizeof(f));
  return f;
}

uint16_t F32ToF16(float value) {
  uint32_t bits;
  std::memcpy(&bits, &value, sizeof(bits));
  const uint16_t sign = static_cast<uint16_t>((bits >> 16) & 0x8000u);
  const uint32_t f32_exp = (bits >> 23) & 0xFFu;
  uint32_t mant = bits & 0x7FFFFFu;
  if (f32_exp == 0xFF) {  // inf / nan (nan keeps a payload bit)
    return sign | 0x7C00u | (mant != 0 ? 0x200u : 0u);
  }
  const int exp = static_cast<int>(f32_exp) - 127 + 15;
  if (exp >= 31) return sign | 0x7C00u;  // overflow -> inf
  if (exp <= 0) {
    if (exp < -10) return sign;  // underflows even the smallest subnormal
    // Subnormal result: shift the (implicit-1) mantissa into place with
    // round-to-nearest-even.
    mant |= 0x800000u;
    const int shift = 14 - exp;  // in [14, 24]
    uint16_t h = static_cast<uint16_t>(mant >> shift);
    const uint32_t rem = mant & ((1u << shift) - 1u);
    const uint32_t half = 1u << (shift - 1);
    if (rem > half || (rem == half && (h & 1u))) ++h;
    return sign | h;
  }
  // Normal result; rounding may carry into the exponent, which the packed
  // increment handles (including carry to inf).
  uint16_t h =
      static_cast<uint16_t>((static_cast<uint32_t>(exp) << 10) | (mant >> 13));
  const uint32_t rem = mant & 0x1FFFu;
  if (rem > 0x1000u || (rem == 0x1000u && (h & 1u))) ++h;
  return sign | h;
}

// ---------------------------------------------------------------------------
// Row quantization (snapshot build time; not on the serving hot path).
// ---------------------------------------------------------------------------

void QuantizeRowQ8(const float* x, int n, int8_t* q, uint16_t* scale_bits,
                   uint16_t* zp_bits) {
  float lo = x[0], hi = x[0];
  for (int i = 1; i < n; ++i) {
    lo = std::min(lo, x[i]);
    hi = std::max(hi, x[i]);
  }
  if (lo == hi) {
    // Constant row: encode the value in the scale so q=1, zp=0 reproduces
    // it to binary16 precision; all-zero rows (e.g. the self-loop relation)
    // reproduce exactly.
    if (lo == 0.0f) {
      *scale_bits = F32ToF16(1.0f);
      *zp_bits = F32ToF16(0.0f);
      std::fill(q, q + n, static_cast<int8_t>(0));
      return;
    }
    *scale_bits = F32ToF16(lo);
    *zp_bits = F32ToF16(0.0f);
    std::fill(q, q + n, static_cast<int8_t>(1));
    return;
  }
  // Map [lo, hi] onto codes [-127, 127]. The scale floor keeps
  // |zp| <= 127 + maxabs/scale_floor <= ~32k, safely inside binary16 range
  // even when the row's spread is tiny relative to its magnitude (the
  // resulting clamp error is < maxabs/64000, far below f16 precision).
  const float maxabs = std::max(std::fabs(lo), std::fabs(hi));
  float scale = std::max((hi - lo) / 254.0f, maxabs / 32000.0f);
  const float scale_s = F16ToF32(F32ToF16(scale));
  float zp = -127.0f - lo / scale_s;
  zp = std::min(std::max(zp, -65504.0f), 65504.0f);
  const uint16_t zp16 = F32ToF16(zp);
  const float zp_s = F16ToF32(zp16);
  for (int i = 0; i < n; ++i) {
    const float code = x[i] / scale_s + zp_s;
    int rounded = static_cast<int>(std::lround(code));
    rounded = std::min(std::max(rounded, -128), 127);
    q[i] = static_cast<int8_t>(rounded);
  }
  *scale_bits = F32ToF16(scale);
  *zp_bits = zp16;
}

void DequantizeRowQ8(const int8_t* q, float scale, float zp, int n,
                     float* out) {
  for (int i = 0; i < n; ++i) out[i] = DequantQ8(q[i], scale, zp);
}

void QuantizeRowF16(const float* x, int n, uint16_t* out) {
  for (int i = 0; i < n; ++i) out[i] = F32ToF16(x[i]);
}

void DequantizeRowF16(const uint16_t* h, int n, float* out) {
  for (int i = 0; i < n; ++i) out[i] = F16ToF32(h[i]);
}

// ---------------------------------------------------------------------------
// Quantized fused kernels: backend dispatch.
// ---------------------------------------------------------------------------

float DotQ8(const float* x, const int8_t* q, float scale, float zp, int n) {
  return ActiveBackend() == Backend::kScalar
             ? DotQ8Scalar(x, q, scale, zp, n)
             : DotQ8Blocked(x, q, scale, zp, n);
}

float DotF16(const float* x, const uint16_t* h, int n) {
  return ActiveBackend() == Backend::kScalar ? DotF16Scalar(x, h, n)
                                             : DotF16Blocked(x, h, n);
}

void GemvQ8(const int8_t* a, const float* scales, const float* zps, int m,
            int n, const float* x, float* y) {
  if (ActiveBackend() == Backend::kScalar) {
    for (int i = 0; i < m; ++i) {
      y[i] = DotQ8Scalar(x, a + static_cast<long>(i) * n, scales[i], zps[i],
                         n);
    }
  } else {
    for (int i = 0; i < m; ++i) {
      y[i] = DotQ8Blocked(x, a + static_cast<long>(i) * n, scales[i], zps[i],
                          n);
    }
  }
}

void GemvF16(const uint16_t* a, int m, int n, const float* x, float* y) {
  if (ActiveBackend() == Backend::kScalar) {
    for (int i = 0; i < m; ++i) {
      y[i] = DotF16Scalar(x, a + static_cast<long>(i) * n, n);
    }
  } else {
    for (int i = 0; i < m; ++i) {
      y[i] = DotF16Blocked(x, a + static_cast<long>(i) * n, n);
    }
  }
}

void NegSqDistRowsQ8(const int8_t* rows, const float* scales,
                     const float* zps, int num, int d, const float* u,
                     const float* r, float* out) {
  if (ActiveBackend() == Backend::kScalar) {
    NegSqDistRowsQ8Scalar(rows, scales, zps, num, d, u, r, out);
  } else {
    NegSqDistRowsQ8Blocked(rows, scales, zps, num, d, u, r, out);
  }
}

void NegSqDistRowsF16(const uint16_t* rows, int num, int d, const float* u,
                      const float* r, float* out) {
  if (ActiveBackend() == Backend::kScalar) {
    NegSqDistRowsF16Scalar(rows, num, d, u, r, out);
  } else {
    NegSqDistRowsF16Blocked(rows, num, d, u, r, out);
  }
}

}  // namespace kernels
}  // namespace cadrl
