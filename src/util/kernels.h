#ifndef CADRL_UTIL_KERNELS_H_
#define CADRL_UTIL_KERNELS_H_

#include <cstdint>
#include <string>

// Dense f32 kernels for the CADRL hot path (autograd MatMul, CGGNN
// aggregation, embedding scoring). Two backends share one *documented*
// floating-point summation order, so switching backends never changes a
// single bit of any result:
//
//   Every reduction of n terms runs 8 interleaved partial sums,
//   s[l] += t[i*8+l], with the ragged tail (n % 8 terms) folded into lanes
//   0..r-1 one term each, and the lanes combined as
//   ((s0+s1)+(s2+s3)) + ((s4+s5)+(s6+s7)).
//
// kScalar implements that order with plain loops; kBlocked implements the
// exact same order with `#pragma omp simd`, __restrict and fixed
// cache-block sizes. Fixed lane count + fixed block sizes mean results are
// also independent of thread count, preserving the PR 2 determinism
// contract. The backend toggle (CADRL_KERNELS=scalar|blocked, or
// SetBackend) therefore exists purely for bisection and sanitizer runs.
//
// Accumulating kernels (…Acc) add into the output; plain kernels overwrite.
// All matrices are row-major and dense. Pointers must not alias unless a
// kernel documents otherwise.

namespace cadrl {
namespace kernels {

enum class Backend {
  kScalar,   // plain loops, reference implementation
  kBlocked,  // simd pragmas + cache blocking; bit-identical to kScalar
};

// The process-wide backend, stored in an acquire/release atomic.
// Initialized once from the CADRL_KERNELS environment variable ("scalar"
// or "blocked"); unset/unknown values fall back to the compile-time
// default (kBlocked unless the build defines CADRL_KERNELS_DEFAULT_SCALAR).
Backend ActiveBackend();

// Overrides the active backend (tests and benchmarks only). The store is
// release-ordered against the acquire load in ActiveBackend.
void SetBackend(Backend backend);

const char* BackendName(Backend backend);

// ---------------------------------------------------------------------------
// Quantized row formats (DESIGN.md §14). Two compact embedding-row layouts
// for the serving arena, both dequantized on the fly inside the fused
// kernels below — never into a temporary row buffer on the hot path:
//
//   f16:  each element is IEEE binary16 (uint16_t bits). Conversion to f32
//         is exact (every binary16 value is representable), so the only
//         loss is the one-time f32 -> f16 rounding at snapshot build.
//   int8: each row stores dim int8 codes plus a per-row (scale, zero_point)
//         pair, both binary16: value = scale * (q - zp). zp is a float
//         offset (not an int8 code), so rows whose range is tiny relative
//         to their magnitude still quantize with ~2^-11 relative error
//         instead of collapsing.
//
// Every quantized kernel accumulates in f32 using the exact 8-lane order
// documented above, with the dequantized element value
// (float(q) - zp) * scale  (resp. F16ToF32(h)) in place of the f32 load.
// That expression is shared with DequantizeRow*, so a fused kernel is
// bit-identical to dequantizing the rows first and calling the f32 kernel
// — and therefore deterministic across thread counts and backends.
// ---------------------------------------------------------------------------

// IEEE binary16 <-> f32. F32ToF16 rounds to nearest-even, clamping
// overflow to +-inf; F16ToF32 is exact (subnormals included).
float F16ToF32(uint16_t bits);
uint16_t F32ToF16(float value);

// Quantizes one row of n f32 values to int8 codes plus binary16
// scale/zero-point bits. Constant rows degrade gracefully (all-zero rows
// reproduce exactly); the scale is floored so the zero-point magnitude
// always fits binary16.
void QuantizeRowQ8(const float* x, int n, int8_t* q, uint16_t* scale_bits,
                   uint16_t* zp_bits);

// out[i] = (float(q[i]) - zp) * scale — the kernels' element expression.
void DequantizeRowQ8(const int8_t* q, float scale, float zp, int n,
                     float* out);

void QuantizeRowF16(const float* x, int n, uint16_t* out);
void DequantizeRowF16(const uint16_t* h, int n, float* out);

// dot(x, dequant(q)) in the documented 8-lane order, dequantizing on the
// accumulate. Bit-identical to Dot(x, DequantizeRowQ8(q)).
float DotQ8(const float* x, const int8_t* q, float scale, float zp, int n);
float DotF16(const float* x, const uint16_t* h, int n);

// y[i] = DotQ8(x, A row i) for A (m x n) int8 rows with per-row
// scales/zps (batched action scoring over gathered quantized rows).
void GemvQ8(const int8_t* a, const float* scales, const float* zps, int m,
            int n, const float* x, float* y);
void GemvF16(const uint16_t* a, int m, int n, const float* x, float* y);

// out[i] = -||(u + r) - dequant(rows[i])||^2 over quantized rows: the
// fused TransE translation score, dequantize-on-accumulate.
void NegSqDistRowsQ8(const int8_t* rows, const float* scales,
                     const float* zps, int num, int d, const float* u,
                     const float* r, float* out);
void NegSqDistRowsF16(const uint16_t* rows, int num, int d, const float* u,
                      const float* r, float* out);

// dot(x, y) over n elements in the documented 8-lane order.
float Dot(const float* x, const float* y, int n);

// y += alpha * x over n elements (element-wise; no reduction).
void Axpy(int n, float alpha, const float* x, float* y);

// y[i] = dot(A row i, x) for A (m x n) row-major: one fused
// matrix-vector product per call instead of m separate Dot calls.
void Gemv(const float* a, int m, int n, const float* x, float* y);

// y[i] += dot(A row i, x).
void GemvAcc(const float* a, int m, int n, const float* x, float* y);

// y += A^T x for A (m x n): y[j] += sum_i x[i] * A[i][j], accumulated
// row-by-row in ascending i (each row is an Axpy), matching the
// historical i-outer/j-inner backward loops bit for bit.
void GemvTAcc(const float* a, int m, int n, const float* x, float* y);

// Rank-1 update A[i][j] += x[i] * y[j] for A (m x n).
void GerAcc(int m, int n, const float* x, const float* y, float* a);

// C += A * B for A (m x k), B (k x p), C (m x p). Per element of C the
// k terms accumulate in ascending order (i/k/j loop nest with fixed
// cache blocks), matching the historical ikj forward loop bit for bit.
void GemmAcc(const float* a, const float* b, float* c, int m, int k, int p);

// C[i][j] += dot(A row i, B row j) for A (m x k), B (n x k), C (m x n):
// C += A * B^T, each element a Dot in the documented 8-lane order. Used
// for dA = dC * B^T and for batched action scoring (scores = X * W^T).
void GemmNTAcc(const float* a, const float* b, float* c, int m, int n, int k);

// C += A^T * B for A (m x k), B (m x p), C (k x p): C[j][:] += A[i][j] *
// B[i][:], accumulated in ascending i (Axpy rows), matching the
// historical dB = A^T dC loop bit for bit.
void GemmTNAcc(const float* a, const float* b, float* c, int m, int k, int p);

// out[i] = -||(u + r) - rows[i]||^2 for `num` packed rows of width d:
// the fused TransE-style translation score, reduced in the documented
// 8-lane order.
void NegSqDistRows(const float* rows, int num, int d, const float* u,
                   const float* r, float* out);

}  // namespace kernels
}  // namespace cadrl

#endif  // CADRL_UTIL_KERNELS_H_
