#ifndef CADRL_AUTOGRAD_TENSOR_H_
#define CADRL_AUTOGRAD_TENSOR_H_

#include <cstdint>
#include <initializer_list>
#include <memory>
#include <vector>

#include "util/alloc_stats.h"
#include "util/logging.h"
#include "util/rng.h"

namespace cadrl {
namespace ag {

// Dimensions of a rank 0-2 tensor, held inline (no heap block). Converts
// implicitly from a braced list ({}, {n}, {m, n}) or a vector of dims.
class Shape {
 public:
  Shape() = default;
  Shape(std::initializer_list<int64_t> dims);
  Shape(const std::vector<int64_t>& dims);

  int rank() const { return rank_; }
  int64_t operator[](int i) const { return dims_[i]; }
  int64_t numel() const;
  bool operator==(const Shape&) const = default;

 private:
  int64_t dims_[2] = {0, 0};
  int rank_ = 0;
};

// Storage + tape node behind a Tensor handle: one make_shared block plus
// the data buffer (DESIGN.md §17). Not used directly by clients; exposed so
// op implementations (ops.cc) can build the graph.
struct TensorImpl {
  // Accumulates `node`'s grad into the grads of its parents that require
  // grad, reading the parents and attributes stored in the node.
  using BackwardFn = void (*)(TensorImpl& node);

  TensorImpl() { util::NoteTensorAlloc(); }

  Shape shape;
  std::vector<float> data;
  // Allocated lazily (zeros), with as many elements as data; null before.
  std::unique_ptr<float[]> grad;
  // Null for leaves.
  BackwardFn backward_fn = nullptr;
  // Parents of a tracked op: unary and binary ops keep them inline in
  // parent[], the n-ary ops (AddN, MeanRows, Concat, StackRows) in inputs.
  std::shared_ptr<TensorImpl> parent[2];
  std::vector<std::shared_ptr<TensorImpl>> inputs;
  // Scalar attributes backward_fn reads: Slice's begin or GatherRow's row
  // in `index`; MulScalar's factor, LeakyRelu's slope, MeanRows' 1/n or
  // CosineSimilarity's two norms and result in `float_attr`.
  int64_t index = 0;
  float float_attr[3] = {0.0f, 0.0f, 0.0f};
  bool requires_grad = false;
  // Set once Backward has run backward_fn and freed the grad and the
  // parents; a later Backward that reaches this node fails.
  bool released = false;
  // Last Backward() traversal that visited this node. Comparing against a
  // process-wide epoch replaces a per-call hash set in the hot tape walk;
  // safe for concurrent Backward() calls because disjoint graphs never
  // share nodes and each call draws a unique epoch.
  uint64_t visit_mark = 0;

  size_t num_parents() const {
    if (!inputs.empty()) return inputs.size();
    return parent[1] ? 2 : (parent[0] ? 1 : 0);
  }
  const std::shared_ptr<TensorImpl>& parent_at(size_t i) const {
    return inputs.empty() ? parent[i] : inputs[i];
  }

  void EnsureGrad() {
    if (grad == nullptr) grad = std::make_unique<float[]>(data.size());
  }
};

// A dense float tensor of rank 0-2 with reverse-mode automatic
// differentiation. Tensor is a cheap value-semantic handle: copies share the
// underlying storage and tape node. Build computations with the free
// functions in ops.h, then call Backward() on a scalar result.
class Tensor {
 public:
  Tensor() = default;

  // --- Factory functions ---
  static Tensor Scalar(float value, bool requires_grad = false);
  static Tensor Zeros(Shape shape, bool requires_grad = false);
  static Tensor Full(Shape shape, float value, bool requires_grad = false);
  static Tensor FromVector(std::vector<float> values, Shape shape,
                           bool requires_grad = false);
  // I.i.d. Gaussian entries with the given standard deviation.
  static Tensor Randn(Shape shape, Rng* rng, float stddev,
                      bool requires_grad = false);

  bool defined() const { return impl_ != nullptr; }

  // --- Shape accessors ---
  int rank() const { return impl_->shape.rank(); }
  const Shape& shape() const { return impl_->shape; }
  int64_t numel() const { return static_cast<int64_t>(impl_->data.size()); }
  // Rank-2 helpers.
  int64_t rows() const;
  int64_t cols() const;

  // --- Data access ---
  float* data() { return impl_->data.data(); }
  const float* data() const { return impl_->data.data(); }
  float* grad();
  const float* grad() const;
  // Scalar value; requires rank 0 or numel()==1.
  float item() const;
  float at(int64_t i) const;          // rank-1 element
  float at(int64_t r, int64_t c) const;  // rank-2 element

  bool requires_grad() const { return impl_->requires_grad; }
  void set_requires_grad(bool value) { impl_->requires_grad = value; }
  void ZeroGrad();

  // Deep copy of the values only (result is a leaf with no history).
  Tensor Detach() const;

  const std::shared_ptr<TensorImpl>& impl() const { return impl_; }

 private:
  friend Tensor MakeFromImpl(std::shared_ptr<TensorImpl> impl);
  explicit Tensor(std::shared_ptr<TensorImpl> impl) : impl_(std::move(impl)) {}

  std::shared_ptr<TensorImpl> impl_;
};

// Internal: wraps an impl in a handle (used by ops.cc).
Tensor MakeFromImpl(std::shared_ptr<TensorImpl> impl);

// Runs reverse-mode differentiation from `root` (must be a scalar),
// accumulating into .grad() of every reachable leaf that requires grad.
// Leaf grads accumulate across calls; use Optimizer::ZeroGrad between
// steps. Backward frees the graph as it goes: once a node's backward has
// run, its grad and its references to its parents are released, so nodes
// no handle holds are destroyed before the walk ends. Leaves keep their
// grads and every node keeps its value. Backward through a graph that an
// earlier Backward freed fails a CHECK.
void Backward(const Tensor& root);

// While alive, newly created ops record no tape (inference mode). Nestable.
class NoGradGuard {
 public:
  NoGradGuard();
  ~NoGradGuard();
  NoGradGuard(const NoGradGuard&) = delete;
  NoGradGuard& operator=(const NoGradGuard&) = delete;
};

// True unless inside a NoGradGuard.
bool GradEnabled();

}  // namespace ag
}  // namespace cadrl

#endif  // CADRL_AUTOGRAD_TENSOR_H_
