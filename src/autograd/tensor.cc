#include "autograd/tensor.h"

#include <algorithm>
#include <atomic>
#include <deque>

namespace cadrl {
namespace ag {
namespace {

// Element count of a factory shape, whose every dimension must be positive.
int64_t NumelOf(const Shape& shape) {
  for (int i = 0; i < shape.rank(); ++i) CADRL_CHECK_GT(shape[i], 0);
  return shape.numel();
}

thread_local int g_no_grad_depth = 0;

}  // namespace

Shape::Shape(std::initializer_list<int64_t> dims) {
  CADRL_CHECK_LE(dims.size(), 2u) << "tensors are rank 0-2";
  for (int64_t d : dims) dims_[rank_++] = d;
}

Shape::Shape(const std::vector<int64_t>& dims) {
  CADRL_CHECK_LE(dims.size(), 2u) << "tensors are rank 0-2";
  for (int64_t d : dims) dims_[rank_++] = d;
}

int64_t Shape::numel() const {
  int64_t n = 1;
  for (int i = 0; i < rank_; ++i) n *= dims_[i];
  return n;
}

Tensor MakeFromImpl(std::shared_ptr<TensorImpl> impl) {
  return Tensor(std::move(impl));
}

Tensor Tensor::Scalar(float value, bool requires_grad) {
  return FromVector({value}, {}, requires_grad);
}

Tensor Tensor::Zeros(Shape shape, bool requires_grad) {
  return Full(shape, 0.0f, requires_grad);
}

Tensor Tensor::Full(Shape shape, float value, bool requires_grad) {
  auto impl = std::make_shared<TensorImpl>();
  impl->data.assign(NumelOf(shape), value);
  impl->shape = shape;
  impl->requires_grad = requires_grad;
  return MakeFromImpl(std::move(impl));
}

Tensor Tensor::FromVector(std::vector<float> values, Shape shape,
                          bool requires_grad) {
  CADRL_CHECK_EQ(static_cast<int64_t>(values.size()), NumelOf(shape));
  auto impl = std::make_shared<TensorImpl>();
  impl->data = std::move(values);
  impl->shape = shape;
  impl->requires_grad = requires_grad;
  return MakeFromImpl(std::move(impl));
}

Tensor Tensor::Randn(Shape shape, Rng* rng, float stddev, bool requires_grad) {
  CADRL_CHECK(rng != nullptr);
  Tensor t = Zeros(shape, requires_grad);
  float* d = t.data();
  for (int64_t i = 0; i < t.numel(); ++i) {
    d[i] = static_cast<float>(rng->Gaussian(0.0, stddev));
  }
  return t;
}

int64_t Tensor::rows() const {
  CADRL_CHECK_EQ(rank(), 2);
  return impl_->shape[0];
}

int64_t Tensor::cols() const {
  CADRL_CHECK_EQ(rank(), 2);
  return impl_->shape[1];
}

float* Tensor::grad() {
  impl_->EnsureGrad();
  return impl_->grad.get();
}

const float* Tensor::grad() const {
  impl_->EnsureGrad();
  return impl_->grad.get();
}

float Tensor::item() const {
  CADRL_CHECK_EQ(numel(), 1);
  return impl_->data[0];
}

float Tensor::at(int64_t i) const {
  CADRL_CHECK_EQ(rank(), 1);
  CADRL_CHECK_GE(i, 0);
  CADRL_CHECK_LT(i, numel());
  return impl_->data[static_cast<size_t>(i)];
}

float Tensor::at(int64_t r, int64_t c) const {
  CADRL_CHECK_EQ(rank(), 2);
  CADRL_CHECK_GE(r, 0);
  CADRL_CHECK_LT(r, rows());
  CADRL_CHECK_GE(c, 0);
  CADRL_CHECK_LT(c, cols());
  return impl_->data[static_cast<size_t>(r * cols() + c)];
}

void Tensor::ZeroGrad() {
  impl_->EnsureGrad();
  std::fill_n(impl_->grad.get(), impl_->data.size(), 0.0f);
}

Tensor Tensor::Detach() const {
  return FromVector(impl_->data, impl_->shape, /*requires_grad=*/false);
}

namespace {

// Frees what only Backward needed once `node`'s backward has run: its grad
// and its references to its parents.
void ReleaseBackwardState(TensorImpl& node) {
  node.grad.reset();
  node.parent[0].reset();
  node.parent[1].reset();
  std::vector<std::shared_ptr<TensorImpl>>().swap(node.inputs);
  node.backward_fn = nullptr;
  node.released = true;
}

}  // namespace

void Backward(const Tensor& root) {
  CADRL_CHECK(root.defined());
  CADRL_CHECK_EQ(root.numel(), 1) << "Backward requires a scalar root";
  constexpr const char* kFreed =
      "Backward through a graph that an earlier Backward freed";
  CADRL_CHECK(!root.impl()->released) << kFreed;
  // Iterative post-order DFS over the nodes that require grad, to get a
  // reverse topological order. Nodes are deduplicated by stamping them
  // with this call's epoch instead of inserting into a hash set — the
  // traversal is hot enough that the hashing showed up in training
  // profiles. `order` holds a reference to each node, so a node outlives
  // its children's release of their parents until its own turn; a deque
  // grows without the copy spike of a vector's reallocation and gives its
  // blocks back as the walk pops it.
  static std::atomic<uint64_t> backward_epoch{0};
  const uint64_t epoch = ++backward_epoch;
  std::deque<std::shared_ptr<TensorImpl>> order;
  struct Frame {
    const std::shared_ptr<TensorImpl>* node;
    size_t next_parent;
  };
  std::vector<Frame> stack;
  stack.push_back({&root.impl(), 0});
  root.impl()->visit_mark = epoch;
  while (!stack.empty()) {
    Frame& f = stack.back();
    const TensorImpl& node = **f.node;
    if (f.next_parent < node.num_parents()) {
      const std::shared_ptr<TensorImpl>& parent =
          node.parent_at(f.next_parent++);
      if (parent->requires_grad && parent->visit_mark != epoch) {
        CADRL_CHECK(!parent->released) << kFreed;
        parent->visit_mark = epoch;
        stack.push_back({&parent, 0});
      }
    } else {
      order.push_back(*f.node);
      stack.pop_back();
    }
  }
  // Seed d(root)/d(root) = 1 and propagate in reverse topological order.
  // Each node's parents come after it, so a released node is never read
  // again; dropping its reference destroys it unless a handle holds it.
  root.impl()->EnsureGrad();
  root.impl()->grad[0] += 1.0f;
  while (!order.empty()) {
    TensorImpl& node = *order.back();
    if (node.backward_fn != nullptr) {
      node.backward_fn(node);
      ReleaseBackwardState(node);
    }
    order.pop_back();
  }
}

NoGradGuard::NoGradGuard() { ++g_no_grad_depth; }
NoGradGuard::~NoGradGuard() { --g_no_grad_depth; }

bool GradEnabled() { return g_no_grad_depth == 0; }

}  // namespace ag
}  // namespace cadrl
