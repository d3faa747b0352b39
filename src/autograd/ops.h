#ifndef CADRL_AUTOGRAD_OPS_H_
#define CADRL_AUTOGRAD_OPS_H_

#include <vector>

#include "autograd/tensor.h"

namespace cadrl {
namespace ag {

// Differentiable operations over Tensors. Unless stated otherwise,
// elementwise ops require operands of identical shape and work on any rank.
// Every op records the tape needed by Backward() unless inside a NoGradGuard.

// --- Elementwise binary ---
Tensor Add(const Tensor& a, const Tensor& b);
Tensor Sub(const Tensor& a, const Tensor& b);
Tensor Mul(const Tensor& a, const Tensor& b);

// Sum of n >= 1 equal-shaped tensors.
Tensor AddN(const std::vector<Tensor>& inputs);

// Mean of n >= 1 equal-shaped tensors, fused so the aggregation builds one
// tape node instead of AddN + MulScalar. Bit-identical to
// MulScalar(AddN(inputs), 1.0f / inputs.size()).
Tensor MeanRows(const std::vector<Tensor>& inputs);

// --- Scalar-argument ---
Tensor MulScalar(const Tensor& a, float c);
Tensor AddScalar(const Tensor& a, float c);

// --- Elementwise unary ---
Tensor Neg(const Tensor& a);
Tensor Sigmoid(const Tensor& a);
Tensor Tanh(const Tensor& a);
Tensor Relu(const Tensor& a);
Tensor LeakyRelu(const Tensor& a, float negative_slope = 0.01f);
Tensor Exp(const Tensor& a);
// Natural log; inputs must be strictly positive.
Tensor Log(const Tensor& a);

// Scales every element of `a` by a differentiable scalar `s` (rank 0 or a
// 1-element rank-1 tensor), e.g. attention-weighting a message vector.
Tensor Scale(const Tensor& a, const Tensor& s);

// --- Linear algebra ---
// (m x n)·(n x k) -> (m x k), or (m x n)·(n) -> (m).
Tensor MatMul(const Tensor& a, const Tensor& b);
// Inner product of two rank-1 tensors -> scalar.
Tensor Dot(const Tensor& a, const Tensor& b);

// x (n x k) times w^T for w (m x k) -> (n x m). Row i equals
// MatMul(w, row_i of x) bit for bit: each element is a kernel Dot in the
// documented 8-lane order, and per-element products commute exactly. The
// batched form of applying one Linear to n stacked inputs.
Tensor MatMulNT(const Tensor& x, const Tensor& w);

// Scales row i of m (n x d) by s[i] for rank-1 s (n); the batched form of
// Scale() across stacked rows.
Tensor RowScale(const Tensor& m, const Tensor& s);

// Column sums of m (n x d) -> (d), accumulated over rows in ascending
// order — bit-identical to AddN of the n rows.
Tensor SumRows(const Tensor& m);

// Adds a differentiable scalar `s` (rank 0 or 1-element rank-1) to every
// element of `a`; the tensor-valued AddScalar (e.g. a 1-wide bias
// broadcast over a batch of logits).
Tensor Shift(const Tensor& a, const Tensor& s);

// --- Reductions ---
Tensor Sum(const Tensor& a);   // -> scalar
Tensor Mean(const Tensor& a);  // -> scalar

// --- Shape manipulation (rank-1 oriented) ---
// Concatenates rank-1 tensors into one rank-1 tensor.
Tensor Concat(const std::vector<Tensor>& parts);
// Contiguous sub-vector [begin, begin+len) of a rank-1 tensor.
Tensor Slice(const Tensor& a, int64_t begin, int64_t len);
// Stacks equal-length rank-1 tensors as the rows of a rank-2 tensor.
Tensor StackRows(const std::vector<Tensor>& rows);
// Row `index` of a rank-2 tensor as a rank-1 tensor (embedding lookup).
Tensor GatherRow(const Tensor& table, int64_t index);
// Same data under a new shape with identical element count.
Tensor Reshape(const Tensor& a, Shape shape);

// --- Distributions ---
// Numerically stable softmax / log-softmax over a rank-1 tensor.
Tensor Softmax(const Tensor& logits);
Tensor LogSoftmax(const Tensor& logits);

// Cosine similarity of two rank-1 tensors -> scalar in [-1, 1].
// Norms are clamped at `eps` for stability.
Tensor CosineSimilarity(const Tensor& a, const Tensor& b, float eps = 1e-8f);

}  // namespace ag
}  // namespace cadrl

#endif  // CADRL_AUTOGRAD_OPS_H_
