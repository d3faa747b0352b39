#include "autograd/ops.h"

#include <algorithm>
#include <cmath>

#include "util/elemwise.h"
#include "util/kernels.h"

namespace cadrl {
namespace ag {
namespace {

using ImplPtr = std::shared_ptr<TensorImpl>;
using BackwardFn = TensorImpl::BackwardFn;

ImplPtr NewImpl(Shape shape) {
  auto impl = std::make_shared<TensorImpl>();
  impl->shape = shape;
  impl->data.assign(static_cast<size_t>(shape.numel()), 0.0f);
  return impl;
}

// Each Track attaches the tape node if gradients are needed: grad mode is on
// and some input requires grad. `fn` must accumulate out's grad into each
// parent that requires grad.
void Track(TensorImpl& out, const Tensor& a, BackwardFn fn) {
  if (!GradEnabled() || !a.requires_grad()) return;
  out.requires_grad = true;
  out.backward_fn = fn;
  out.parent[0] = a.impl();
}

void Track(TensorImpl& out, const Tensor& a, const Tensor& b, BackwardFn fn) {
  if (!GradEnabled() || (!a.requires_grad() && !b.requires_grad())) return;
  out.requires_grad = true;
  out.backward_fn = fn;
  out.parent[0] = a.impl();
  out.parent[1] = b.impl();
}

void TrackN(TensorImpl& out, const std::vector<Tensor>& inputs,
            BackwardFn fn) {
  if (!GradEnabled() ||
      std::none_of(inputs.begin(), inputs.end(),
                   [](const Tensor& t) { return t.requires_grad(); })) {
    return;
  }
  out.requires_grad = true;
  out.backward_fn = fn;
  out.inputs.reserve(inputs.size());
  for (const Tensor& t : inputs) out.inputs.push_back(t.impl());
}

void CheckSameShape(const Tensor& a, const Tensor& b) {
  CADRL_CHECK(a.shape() == b.shape()) << "shape mismatch";
}

}  // namespace

Tensor Add(const Tensor& a, const Tensor& b) {
  CheckSameShape(a, b);
  auto out = NewImpl(a.shape());
  const size_t n = out->data.size();
  elemwise::AddVec(a.data(), b.data(), out->data.data(), n);
  Track(*out, a, b, [](TensorImpl& o) {
    TensorImpl& pa = *o.parent[0];
    TensorImpl& pb = *o.parent[1];
    const size_t n = o.data.size();
    o.EnsureGrad();
    if (pa.requires_grad) {
      pa.EnsureGrad();
      for (size_t i = 0; i < n; ++i) pa.grad[i] += o.grad[i];
    }
    if (pb.requires_grad) {
      pb.EnsureGrad();
      for (size_t i = 0; i < n; ++i) pb.grad[i] += o.grad[i];
    }
  });
  return MakeFromImpl(std::move(out));
}

Tensor Sub(const Tensor& a, const Tensor& b) {
  CheckSameShape(a, b);
  auto out = NewImpl(a.shape());
  const size_t n = out->data.size();
  elemwise::SubVec(a.data(), b.data(), out->data.data(), n);
  Track(*out, a, b, [](TensorImpl& o) {
    TensorImpl& pa = *o.parent[0];
    TensorImpl& pb = *o.parent[1];
    const size_t n = o.data.size();
    o.EnsureGrad();
    if (pa.requires_grad) {
      pa.EnsureGrad();
      for (size_t i = 0; i < n; ++i) pa.grad[i] += o.grad[i];
    }
    if (pb.requires_grad) {
      pb.EnsureGrad();
      for (size_t i = 0; i < n; ++i) pb.grad[i] -= o.grad[i];
    }
  });
  return MakeFromImpl(std::move(out));
}

Tensor Mul(const Tensor& a, const Tensor& b) {
  CheckSameShape(a, b);
  auto out = NewImpl(a.shape());
  const size_t n = out->data.size();
  elemwise::MulVec(a.data(), b.data(), out->data.data(), n);
  Track(*out, a, b, [](TensorImpl& o) {
    TensorImpl& pa = *o.parent[0];
    TensorImpl& pb = *o.parent[1];
    const size_t n = o.data.size();
    o.EnsureGrad();
    if (pa.requires_grad) {
      pa.EnsureGrad();
      for (size_t i = 0; i < n; ++i) pa.grad[i] += o.grad[i] * pb.data[i];
    }
    if (pb.requires_grad) {
      pb.EnsureGrad();
      for (size_t i = 0; i < n; ++i) pb.grad[i] += o.grad[i] * pa.data[i];
    }
  });
  return MakeFromImpl(std::move(out));
}

Tensor AddN(const std::vector<Tensor>& inputs) {
  CADRL_CHECK(!inputs.empty());
  auto out = NewImpl(inputs[0].shape());
  const size_t n = out->data.size();
  for (const Tensor& t : inputs) {
    CADRL_CHECK(t.shape() == inputs[0].shape()) << "AddN shape mismatch";
    kernels::Axpy(static_cast<int>(n), 1.0f, t.data(), out->data.data());
  }
  TrackN(*out, inputs, [](TensorImpl& o) {
    const size_t n = o.data.size();
    o.EnsureGrad();
    for (const auto& p : o.inputs) {
      if (!p->requires_grad) continue;
      p->EnsureGrad();
      for (size_t i = 0; i < n; ++i) p->grad[i] += o.grad[i];
    }
  });
  return MakeFromImpl(std::move(out));
}

Tensor MeanRows(const std::vector<Tensor>& inputs) {
  CADRL_CHECK(!inputs.empty());
  auto out = NewImpl(inputs[0].shape());
  const size_t n = out->data.size();
  const float inv = 1.0f / static_cast<float>(inputs.size());
  for (const Tensor& t : inputs) {
    CADRL_CHECK(t.shape() == inputs[0].shape()) << "MeanRows shape mismatch";
    kernels::Axpy(static_cast<int>(n), 1.0f, t.data(), out->data.data());
  }
  for (size_t i = 0; i < n; ++i) out->data[i] *= inv;
  out->float_attr[0] = inv;
  TrackN(*out, inputs, [](TensorImpl& o) {
    const size_t n = o.data.size();
    const float inv = o.float_attr[0];
    o.EnsureGrad();
    for (const auto& p : o.inputs) {
      if (!p->requires_grad) continue;
      p->EnsureGrad();
      kernels::Axpy(static_cast<int>(n), inv, o.grad.get(), p->grad.get());
    }
  });
  return MakeFromImpl(std::move(out));
}

Tensor MulScalar(const Tensor& a, float c) {
  auto out = NewImpl(a.shape());
  const size_t n = out->data.size();
  elemwise::MulScalarVec(a.data(), c, out->data.data(), n);
  out->float_attr[0] = c;
  Track(*out, a, [](TensorImpl& o) {
    TensorImpl& pa = *o.parent[0];
    const size_t n = o.data.size();
    const float c = o.float_attr[0];
    o.EnsureGrad();
    pa.EnsureGrad();
    for (size_t i = 0; i < n; ++i) pa.grad[i] += o.grad[i] * c;
  });
  return MakeFromImpl(std::move(out));
}

Tensor AddScalar(const Tensor& a, float c) {
  auto out = NewImpl(a.shape());
  const size_t n = out->data.size();
  elemwise::AddScalarVec(a.data(), c, out->data.data(), n);
  Track(*out, a, [](TensorImpl& o) {
    TensorImpl& pa = *o.parent[0];
    const size_t n = o.data.size();
    o.EnsureGrad();
    pa.EnsureGrad();
    for (size_t i = 0; i < n; ++i) pa.grad[i] += o.grad[i];
  });
  return MakeFromImpl(std::move(out));
}

Tensor Neg(const Tensor& a) { return MulScalar(a, -1.0f); }

Tensor Scale(const Tensor& a, const Tensor& s) {
  CADRL_CHECK_EQ(s.numel(), 1);
  auto out = NewImpl(a.shape());
  const size_t n = out->data.size();
  const float sv = s.data()[0];
  elemwise::MulScalarVec(a.data(), sv, out->data.data(), n);
  Track(*out, a, s, [](TensorImpl& o) {
    TensorImpl& pa = *o.parent[0];
    TensorImpl& ps = *o.parent[1];
    const size_t n = o.data.size();
    o.EnsureGrad();
    const float sv2 = ps.data[0];
    if (pa.requires_grad) {
      pa.EnsureGrad();
      for (size_t i = 0; i < n; ++i) pa.grad[i] += o.grad[i] * sv2;
    }
    if (ps.requires_grad) {
      ps.EnsureGrad();
      float acc = 0.0f;
      for (size_t i = 0; i < n; ++i) acc += o.grad[i] * pa.data[i];
      ps.grad[0] += acc;
    }
  });
  return MakeFromImpl(std::move(out));
}

Tensor Sigmoid(const Tensor& a) {
  auto out = NewImpl(a.shape());
  const size_t n = out->data.size();
  elemwise::SigmoidVec(a.data(), out->data.data(), n);
  Track(*out, a, [](TensorImpl& o) {
    TensorImpl& pa = *o.parent[0];
    const size_t n = o.data.size();
    o.EnsureGrad();
    pa.EnsureGrad();
    for (size_t i = 0; i < n; ++i) {
      const float y = o.data[i];
      pa.grad[i] += o.grad[i] * y * (1.0f - y);
    }
  });
  return MakeFromImpl(std::move(out));
}

Tensor Tanh(const Tensor& a) {
  auto out = NewImpl(a.shape());
  const size_t n = out->data.size();
  elemwise::TanhVec(a.data(), out->data.data(), n);
  Track(*out, a, [](TensorImpl& o) {
    TensorImpl& pa = *o.parent[0];
    const size_t n = o.data.size();
    o.EnsureGrad();
    pa.EnsureGrad();
    for (size_t i = 0; i < n; ++i) {
      const float y = o.data[i];
      pa.grad[i] += o.grad[i] * (1.0f - y * y);
    }
  });
  return MakeFromImpl(std::move(out));
}

Tensor Relu(const Tensor& a) {
  auto out = NewImpl(a.shape());
  const size_t n = out->data.size();
  elemwise::ReluVec(a.data(), out->data.data(), n);
  Track(*out, a, [](TensorImpl& o) {
    TensorImpl& pa = *o.parent[0];
    const size_t n = o.data.size();
    o.EnsureGrad();
    pa.EnsureGrad();
    for (size_t i = 0; i < n; ++i) {
      if (pa.data[i] > 0.0f) pa.grad[i] += o.grad[i];
    }
  });
  return MakeFromImpl(std::move(out));
}

Tensor LeakyRelu(const Tensor& a, float negative_slope) {
  auto out = NewImpl(a.shape());
  const size_t n = out->data.size();
  elemwise::LeakyReluVec(a.data(), negative_slope, out->data.data(), n);
  out->float_attr[0] = negative_slope;
  Track(*out, a, [](TensorImpl& o) {
    TensorImpl& pa = *o.parent[0];
    const size_t n = o.data.size();
    const float negative_slope = o.float_attr[0];
    o.EnsureGrad();
    pa.EnsureGrad();
    for (size_t i = 0; i < n; ++i) {
      pa.grad[i] +=
          o.grad[i] * (pa.data[i] > 0.0f ? 1.0f : negative_slope);
    }
  });
  return MakeFromImpl(std::move(out));
}

Tensor Exp(const Tensor& a) {
  auto out = NewImpl(a.shape());
  const size_t n = out->data.size();
  elemwise::ExpVec(a.data(), out->data.data(), n);
  Track(*out, a, [](TensorImpl& o) {
    TensorImpl& pa = *o.parent[0];
    const size_t n = o.data.size();
    o.EnsureGrad();
    pa.EnsureGrad();
    for (size_t i = 0; i < n; ++i) pa.grad[i] += o.grad[i] * o.data[i];
  });
  return MakeFromImpl(std::move(out));
}

Tensor Log(const Tensor& a) {
  auto out = NewImpl(a.shape());
  const size_t n = out->data.size();
  for (size_t i = 0; i < n; ++i) {
    CADRL_CHECK_GT(a.data()[i], 0.0f) << "Log requires positive inputs";
    out->data[i] = std::log(a.data()[i]);
  }
  Track(*out, a, [](TensorImpl& o) {
    TensorImpl& pa = *o.parent[0];
    const size_t n = o.data.size();
    o.EnsureGrad();
    pa.EnsureGrad();
    for (size_t i = 0; i < n; ++i) pa.grad[i] += o.grad[i] / pa.data[i];
  });
  return MakeFromImpl(std::move(out));
}

Tensor MatMul(const Tensor& a, const Tensor& b) {
  CADRL_CHECK_EQ(a.rank(), 2);
  const int64_t m = a.rows(), k = a.cols();
  if (b.rank() == 1) {
    CADRL_CHECK_EQ(b.numel(), k);
    auto out = NewImpl({m});
    kernels::Gemv(a.data(), static_cast<int>(m), static_cast<int>(k),
                  b.data(), out->data.data());
    Track(*out, a, b, [](TensorImpl& o) {
      TensorImpl& pa = *o.parent[0];
      TensorImpl& pb = *o.parent[1];
      const int m = static_cast<int>(pa.shape[0]);
      const int k = static_cast<int>(pa.shape[1]);
      o.EnsureGrad();
      if (pa.requires_grad) {
        // dA += g y^T (rank-1 update).
        pa.EnsureGrad();
        kernels::GerAcc(m, k, o.grad.get(), pb.data.data(), pa.grad.get());
      }
      if (pb.requires_grad) {
        // db += A^T g. The kernel hoists each A row pointer once instead
        // of re-deriving pa.data.data() per element.
        pb.EnsureGrad();
        kernels::GemvTAcc(pa.data.data(), m, k, o.grad.get(),
                          pb.grad.get());
      }
    });
    return MakeFromImpl(std::move(out));
  }
  CADRL_CHECK_EQ(b.rank(), 2);
  CADRL_CHECK_EQ(b.rows(), k);
  const int64_t p = b.cols();
  auto out = NewImpl({m, p});
  kernels::GemmAcc(a.data(), b.data(), out->data.data(), static_cast<int>(m),
                   static_cast<int>(k), static_cast<int>(p));
  Track(*out, a, b, [](TensorImpl& o) {
    TensorImpl& pa = *o.parent[0];
    TensorImpl& pb = *o.parent[1];
    const int m = static_cast<int>(pa.shape[0]);
    const int k = static_cast<int>(pa.shape[1]);
    const int p = static_cast<int>(pb.shape[1]);
    o.EnsureGrad();
    if (pa.requires_grad) {
      // dA += dC * B^T
      pa.EnsureGrad();
      kernels::GemmNTAcc(o.grad.get(), pb.data.data(), pa.grad.get(), m, k,
                         p);
    }
    if (pb.requires_grad) {
      // dB += A^T * dC
      pb.EnsureGrad();
      kernels::GemmTNAcc(pa.data.data(), o.grad.get(), pb.grad.get(), m, k,
                         p);
    }
  });
  return MakeFromImpl(std::move(out));
}

Tensor Dot(const Tensor& a, const Tensor& b) {
  CADRL_CHECK_EQ(a.rank(), 1);
  CADRL_CHECK_EQ(b.rank(), 1);
  CADRL_CHECK_EQ(a.numel(), b.numel());
  const size_t n = static_cast<size_t>(a.numel());
  auto out = NewImpl({});
  out->data[0] = kernels::Dot(a.data(), b.data(), static_cast<int>(n));
  Track(*out, a, b, [](TensorImpl& o) {
    TensorImpl& pa = *o.parent[0];
    TensorImpl& pb = *o.parent[1];
    const int n = static_cast<int>(pa.data.size());
    o.EnsureGrad();
    const float g = o.grad[0];
    if (pa.requires_grad) {
      pa.EnsureGrad();
      kernels::Axpy(n, g, pb.data.data(), pa.grad.get());
    }
    if (pb.requires_grad) {
      pb.EnsureGrad();
      kernels::Axpy(n, g, pa.data.data(), pb.grad.get());
    }
  });
  return MakeFromImpl(std::move(out));
}

Tensor MatMulNT(const Tensor& x, const Tensor& w) {
  CADRL_CHECK_EQ(x.rank(), 2);
  CADRL_CHECK_EQ(w.rank(), 2);
  const int64_t n = x.rows(), k = x.cols(), m = w.rows();
  CADRL_CHECK_EQ(w.cols(), k);
  auto out = NewImpl({n, m});
  kernels::GemmNTAcc(x.data(), w.data(), out->data.data(),
                     static_cast<int>(n), static_cast<int>(m),
                     static_cast<int>(k));
  Track(*out, x, w, [](TensorImpl& o) {
    TensorImpl& px = *o.parent[0];
    TensorImpl& pw = *o.parent[1];
    const int n = static_cast<int>(px.shape[0]);
    const int k = static_cast<int>(px.shape[1]);
    const int m = static_cast<int>(pw.shape[0]);
    o.EnsureGrad();
    if (px.requires_grad) {
      // dX += dC * W
      px.EnsureGrad();
      kernels::GemmAcc(o.grad.get(), pw.data.data(), px.grad.get(), n, m,
                       k);
    }
    if (pw.requires_grad) {
      // dW += dC^T * X
      pw.EnsureGrad();
      kernels::GemmTNAcc(o.grad.get(), px.data.data(), pw.grad.get(), n, m,
                         k);
    }
  });
  return MakeFromImpl(std::move(out));
}

Tensor RowScale(const Tensor& m, const Tensor& s) {
  CADRL_CHECK_EQ(m.rank(), 2);
  CADRL_CHECK_EQ(s.rank(), 1);
  const int64_t rows = m.rows(), d = m.cols();
  CADRL_CHECK_EQ(s.numel(), rows);
  auto out = NewImpl({rows, d});
  elemwise::RowScaleMat(m.data(), s.data(), out->data.data(), rows, d);
  Track(*out, m, s, [](TensorImpl& o) {
    TensorImpl& pm = *o.parent[0];
    TensorImpl& ps = *o.parent[1];
    const int64_t rows = pm.shape[0], d = pm.shape[1];
    o.EnsureGrad();
    if (pm.requires_grad) {
      pm.EnsureGrad();
      for (int64_t i = 0; i < rows; ++i) {
        kernels::Axpy(static_cast<int>(d), ps.data[static_cast<size_t>(i)],
                      o.grad.get() + i * d, pm.grad.get() + i * d);
      }
    }
    if (ps.requires_grad) {
      ps.EnsureGrad();
      for (int64_t i = 0; i < rows; ++i) {
        ps.grad[static_cast<size_t>(i)] +=
            kernels::Dot(o.grad.get() + i * d, pm.data.data() + i * d,
                         static_cast<int>(d));
      }
    }
  });
  return MakeFromImpl(std::move(out));
}

Tensor SumRows(const Tensor& m) {
  CADRL_CHECK_EQ(m.rank(), 2);
  const int64_t rows = m.rows(), d = m.cols();
  auto out = NewImpl({d});
  elemwise::SumRowsAcc(m.data(), out->data.data(), rows, d);
  Track(*out, m, [](TensorImpl& o) {
    TensorImpl& pm = *o.parent[0];
    const int64_t rows = pm.shape[0], d = pm.shape[1];
    o.EnsureGrad();
    pm.EnsureGrad();
    for (int64_t i = 0; i < rows; ++i) {
      kernels::Axpy(static_cast<int>(d), 1.0f, o.grad.get(),
                    pm.grad.get() + i * d);
    }
  });
  return MakeFromImpl(std::move(out));
}

Tensor Shift(const Tensor& a, const Tensor& s) {
  CADRL_CHECK_EQ(s.numel(), 1);
  auto out = NewImpl(a.shape());
  const size_t n = out->data.size();
  const float sv = s.data()[0];
  elemwise::AddScalarVec(a.data(), sv, out->data.data(), n);
  Track(*out, a, s, [](TensorImpl& o) {
    TensorImpl& pa = *o.parent[0];
    TensorImpl& ps = *o.parent[1];
    const size_t n = o.data.size();
    o.EnsureGrad();
    if (pa.requires_grad) {
      pa.EnsureGrad();
      kernels::Axpy(static_cast<int>(n), 1.0f, o.grad.get(),
                    pa.grad.get());
    }
    if (ps.requires_grad) {
      ps.EnsureGrad();
      float acc = 0.0f;
      for (size_t i = 0; i < n; ++i) acc += o.grad[i];
      ps.grad[0] += acc;
    }
  });
  return MakeFromImpl(std::move(out));
}

Tensor Sum(const Tensor& a) {
  auto out = NewImpl({});
  const size_t n = static_cast<size_t>(a.numel());
  float acc = 0.0f;
  for (size_t i = 0; i < n; ++i) acc += a.data()[i];
  out->data[0] = acc;
  Track(*out, a, [](TensorImpl& o) {
    TensorImpl& pa = *o.parent[0];
    const size_t n = pa.data.size();
    o.EnsureGrad();
    pa.EnsureGrad();
    const float g = o.grad[0];
    for (size_t i = 0; i < n; ++i) pa.grad[i] += g;
  });
  return MakeFromImpl(std::move(out));
}

Tensor Mean(const Tensor& a) {
  return MulScalar(Sum(a), 1.0f / static_cast<float>(a.numel()));
}

Tensor Concat(const std::vector<Tensor>& parts) {
  CADRL_CHECK(!parts.empty());
  int64_t total = 0;
  for (const Tensor& t : parts) {
    CADRL_CHECK_EQ(t.rank(), 1);
    total += t.numel();
  }
  auto out = NewImpl({total});
  size_t offset = 0;
  for (const Tensor& t : parts) {
    std::copy(t.data(), t.data() + t.numel(), out->data.begin() + offset);
    offset += static_cast<size_t>(t.numel());
  }
  TrackN(*out, parts, [](TensorImpl& o) {
    o.EnsureGrad();
    size_t off = 0;
    for (const auto& p : o.inputs) {
      const size_t n = p->data.size();
      if (p->requires_grad) {
        p->EnsureGrad();
        for (size_t i = 0; i < n; ++i) p->grad[i] += o.grad[off + i];
      }
      off += n;
    }
  });
  return MakeFromImpl(std::move(out));
}

Tensor Slice(const Tensor& a, int64_t begin, int64_t len) {
  CADRL_CHECK_EQ(a.rank(), 1);
  CADRL_CHECK_GE(begin, 0);
  CADRL_CHECK_GT(len, 0);
  CADRL_CHECK_LE(begin + len, a.numel());
  auto out = NewImpl({len});
  std::copy(a.data() + begin, a.data() + begin + len, out->data.begin());
  out->index = begin;
  Track(*out, a, [](TensorImpl& o) {
    TensorImpl& pa = *o.parent[0];
    const int64_t begin = o.index;
    const int64_t len = o.shape[0];
    o.EnsureGrad();
    pa.EnsureGrad();
    for (int64_t i = 0; i < len; ++i) {
      pa.grad[static_cast<size_t>(begin + i)] +=
          o.grad[static_cast<size_t>(i)];
    }
  });
  return MakeFromImpl(std::move(out));
}

Tensor StackRows(const std::vector<Tensor>& rows) {
  CADRL_CHECK(!rows.empty());
  const int64_t d = rows[0].numel();
  const int64_t m = static_cast<int64_t>(rows.size());
  auto out = NewImpl({m, d});
  for (int64_t r = 0; r < m; ++r) {
    const Tensor& row = rows[static_cast<size_t>(r)];
    CADRL_CHECK_EQ(row.rank(), 1);
    CADRL_CHECK_EQ(row.numel(), d);
    std::copy(row.data(), row.data() + d, out->data.begin() + r * d);
  }
  TrackN(*out, rows, [](TensorImpl& o) {
    const int64_t d = o.shape[1];
    o.EnsureGrad();
    for (size_t r = 0; r < o.inputs.size(); ++r) {
      TensorImpl& p = *o.inputs[r];
      if (!p.requires_grad) continue;
      p.EnsureGrad();
      const float* grow = o.grad.get() + static_cast<int64_t>(r) * d;
      for (int64_t i = 0; i < d; ++i) p.grad[static_cast<size_t>(i)] += grow[i];
    }
  });
  return MakeFromImpl(std::move(out));
}

Tensor GatherRow(const Tensor& table, int64_t index) {
  CADRL_CHECK_EQ(table.rank(), 2);
  CADRL_CHECK_GE(index, 0);
  CADRL_CHECK_LT(index, table.rows());
  const int64_t d = table.cols();
  auto out = NewImpl({d});
  std::copy(table.data() + index * d, table.data() + (index + 1) * d,
            out->data.begin());
  out->index = index;
  Track(*out, table, [](TensorImpl& o) {
    TensorImpl& pt = *o.parent[0];
    const int64_t index = o.index;
    const int64_t d = o.shape[0];
    o.EnsureGrad();
    pt.EnsureGrad();
    float* trow = pt.grad.get() + index * d;
    for (int64_t i = 0; i < d; ++i) trow[i] += o.grad[static_cast<size_t>(i)];
  });
  return MakeFromImpl(std::move(out));
}

Tensor Reshape(const Tensor& a, Shape shape) {
  auto out = NewImpl(shape);
  CADRL_CHECK_EQ(out->data.size(), static_cast<size_t>(a.numel()));
  std::copy(a.data(), a.data() + a.numel(), out->data.begin());
  Track(*out, a, [](TensorImpl& o) {
    TensorImpl& pa = *o.parent[0];
    const size_t n = o.data.size();
    o.EnsureGrad();
    pa.EnsureGrad();
    for (size_t i = 0; i < n; ++i) pa.grad[i] += o.grad[i];
  });
  return MakeFromImpl(std::move(out));
}

Tensor Softmax(const Tensor& logits) {
  CADRL_CHECK_EQ(logits.rank(), 1);
  const int64_t n = logits.numel();
  auto out = NewImpl({n});
  elemwise::SoftmaxVec(logits.data(), out->data.data(), n);
  Track(*out, logits, [](TensorImpl& o) {
    TensorImpl& pl = *o.parent[0];
    const size_t n = o.data.size();
    o.EnsureGrad();
    pl.EnsureGrad();
    float dot = 0.0f;
    for (size_t i = 0; i < n; ++i) dot += o.grad[i] * o.data[i];
    for (size_t i = 0; i < n; ++i) {
      pl.grad[i] += o.data[i] * (o.grad[i] - dot);
    }
  });
  return MakeFromImpl(std::move(out));
}

Tensor LogSoftmax(const Tensor& logits) {
  CADRL_CHECK_EQ(logits.rank(), 1);
  const int64_t n = logits.numel();
  auto out = NewImpl({n});
  elemwise::LogSoftmaxVec(logits.data(), out->data.data(), n);
  Track(*out, logits, [](TensorImpl& o) {
    TensorImpl& pl = *o.parent[0];
    const size_t n = o.data.size();
    o.EnsureGrad();
    pl.EnsureGrad();
    float grad_sum = 0.0f;
    for (size_t i = 0; i < n; ++i) grad_sum += o.grad[i];
    for (size_t i = 0; i < n; ++i) {
      const float softmax_i = std::exp(o.data[i]);
      pl.grad[i] += o.grad[i] - grad_sum * softmax_i;
    }
  });
  return MakeFromImpl(std::move(out));
}

Tensor CosineSimilarity(const Tensor& a, const Tensor& b, float eps) {
  CADRL_CHECK_EQ(a.rank(), 1);
  CADRL_CHECK_EQ(b.rank(), 1);
  CADRL_CHECK_EQ(a.numel(), b.numel());
  const size_t n = static_cast<size_t>(a.numel());
  float dot = 0.0f, na2 = 0.0f, nb2 = 0.0f;
  for (size_t i = 0; i < n; ++i) {
    dot += a.data()[i] * b.data()[i];
    na2 += a.data()[i] * a.data()[i];
    nb2 += b.data()[i] * b.data()[i];
  }
  const float na = std::max(std::sqrt(na2), eps);
  const float nb = std::max(std::sqrt(nb2), eps);
  auto out = NewImpl({});
  const float cos = dot / (na * nb);
  out->data[0] = cos;
  out->float_attr[0] = na;
  out->float_attr[1] = nb;
  out->float_attr[2] = cos;
  Track(*out, a, b, [](TensorImpl& o) {
    TensorImpl& pa = *o.parent[0];
    TensorImpl& pb = *o.parent[1];
    const size_t n = pa.data.size();
    const float na = o.float_attr[0], nb = o.float_attr[1];
    const float cos = o.float_attr[2];
    o.EnsureGrad();
    const float g = o.grad[0];
    if (pa.requires_grad) {
      pa.EnsureGrad();
      for (size_t i = 0; i < n; ++i) {
        pa.grad[i] +=
            g * (pb.data[i] / (na * nb) - cos * pa.data[i] / (na * na));
      }
    }
    if (pb.requires_grad) {
      pb.EnsureGrad();
      for (size_t i = 0; i < n; ++i) {
        pb.grad[i] +=
            g * (pa.data[i] / (na * nb) - cos * pb.data[i] / (nb * nb));
      }
    }
  });
  return MakeFromImpl(std::move(out));
}

}  // namespace ag
}  // namespace cadrl
