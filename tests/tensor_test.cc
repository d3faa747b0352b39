#include <cmath>
#include <memory>

#include <gtest/gtest.h>

#include "autograd/ops.h"
#include "autograd/tensor.h"

namespace cadrl {
namespace ag {
namespace {

TEST(TensorTest, DefaultIsUndefined) {
  Tensor t;
  EXPECT_FALSE(t.defined());
}

TEST(TensorTest, ScalarFactory) {
  Tensor t = Tensor::Scalar(2.5f);
  EXPECT_TRUE(t.defined());
  EXPECT_EQ(t.rank(), 0);
  EXPECT_EQ(t.numel(), 1);
  EXPECT_FLOAT_EQ(t.item(), 2.5f);
}

TEST(TensorTest, ZerosAndFull) {
  Tensor z = Tensor::Zeros({3});
  for (int64_t i = 0; i < 3; ++i) EXPECT_FLOAT_EQ(z.at(i), 0.0f);
  Tensor f = Tensor::Full({2, 2}, 7.0f);
  EXPECT_EQ(f.rows(), 2);
  EXPECT_EQ(f.cols(), 2);
  EXPECT_FLOAT_EQ(f.at(1, 1), 7.0f);
}

TEST(TensorTest, FromVectorChecksShape) {
  Tensor t = Tensor::FromVector({1, 2, 3, 4, 5, 6}, {2, 3});
  EXPECT_EQ(t.rank(), 2);
  EXPECT_FLOAT_EQ(t.at(0, 2), 3.0f);
  EXPECT_FLOAT_EQ(t.at(1, 0), 4.0f);
}

TEST(TensorTest, RandnStatistics) {
  Rng rng(5);
  Tensor t = Tensor::Randn({100, 10}, &rng, 0.5f);
  double sum = 0.0, sum_sq = 0.0;
  for (int64_t i = 0; i < t.numel(); ++i) {
    sum += t.data()[i];
    sum_sq += static_cast<double>(t.data()[i]) * t.data()[i];
  }
  const double mean = sum / t.numel();
  const double var = sum_sq / t.numel() - mean * mean;
  EXPECT_NEAR(mean, 0.0, 0.05);
  EXPECT_NEAR(var, 0.25, 0.05);
}

TEST(TensorTest, CopyIsShallow) {
  Tensor a = Tensor::Zeros({2});
  Tensor b = a;
  b.data()[0] = 9.0f;
  EXPECT_FLOAT_EQ(a.at(0), 9.0f);
}

TEST(TensorTest, DetachCopiesValuesDropsGradHistory) {
  Tensor a = Tensor::FromVector({1, 2}, {2}, /*requires_grad=*/true);
  Tensor b = MulScalar(a, 2.0f);
  Tensor d = b.Detach();
  EXPECT_FALSE(d.requires_grad());
  EXPECT_FLOAT_EQ(d.at(1), 4.0f);
  d.data()[0] = 100.0f;
  EXPECT_FLOAT_EQ(b.at(0), 2.0f) << "detach must deep-copy values";
}

TEST(TensorTest, ZeroGradClears) {
  Tensor a = Tensor::FromVector({1, 2}, {2}, /*requires_grad=*/true);
  Tensor loss = Sum(a);
  Backward(loss);
  EXPECT_FLOAT_EQ(a.grad()[0], 1.0f);
  a.ZeroGrad();
  EXPECT_FLOAT_EQ(a.grad()[0], 0.0f);
}

TEST(BackwardTest, GradAccumulatesAcrossCalls) {
  Tensor a = Tensor::FromVector({3}, {1}, /*requires_grad=*/true);
  Tensor loss1 = Sum(a);
  Backward(loss1);
  Tensor loss2 = Sum(a);
  Backward(loss2);
  EXPECT_FLOAT_EQ(a.grad()[0], 2.0f);
}

TEST(BackwardTest, DiamondGraphAccumulatesOnce) {
  // loss = sum(a*a + a*a) -> d/da = 4a
  Tensor a = Tensor::FromVector({2.0f}, {1}, /*requires_grad=*/true);
  Tensor sq = Mul(a, a);
  Tensor loss = Sum(Add(sq, sq));
  Backward(loss);
  EXPECT_FLOAT_EQ(a.grad()[0], 8.0f);
}

TEST(BackwardTest, FreesInteriorNodesKeepsLeafGradsAndValues) {
  // loss = sum(tanh(a * b)) with leaves a, b and interior prod, act.
  Tensor a = Tensor::FromVector({0.5f, -1.0f}, {2}, /*requires_grad=*/true);
  Tensor b = Tensor::FromVector({2.0f, 0.25f}, {2}, /*requires_grad=*/true);
  Tensor prod = Mul(a, b);
  Tensor act = Tanh(prod);
  Tensor loss = Sum(act);
  const float value = loss.item();
  Backward(loss);

  const float d0 = 1.0f - std::tanh(1.0f) * std::tanh(1.0f);
  EXPECT_FLOAT_EQ(a.grad()[0], 2.0f * d0);
  EXPECT_FLOAT_EQ(b.grad()[0], 0.5f * d0);
  EXPECT_EQ(loss.item(), value);
  EXPECT_FLOAT_EQ(prod.at(1), -0.25f);
  for (const Tensor* t : {&prod, &act, &loss}) {
    EXPECT_TRUE(t->impl()->released);
    EXPECT_EQ(t->impl()->grad, nullptr);
    EXPECT_EQ(t->impl()->num_parents(), 0u);
    EXPECT_EQ(t->impl()->backward_fn, nullptr);
  }
  EXPECT_FALSE(a.impl()->released);
}

TEST(BackwardTest, DestroysFreedNodesThatNoHandleHolds) {
  Tensor a = Tensor::FromVector({1.0f, 2.0f}, {2}, /*requires_grad=*/true);
  std::weak_ptr<TensorImpl> interior;
  Tensor loss;
  {
    Tensor x = MulScalar(a, 3.0f);
    interior = x.impl();
    loss = Sum(AddScalar(x, 1.0f));
  }
  EXPECT_FALSE(interior.expired()) << "the tape holds x until Backward";
  Backward(loss);
  EXPECT_TRUE(interior.expired());
  EXPECT_FLOAT_EQ(a.grad()[1], 3.0f);
}

TEST(BackwardDeathTest, SecondBackwardThroughAFreedGraphFails) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  Tensor a = Tensor::FromVector({1.0f}, {1}, /*requires_grad=*/true);
  Tensor loss = Sum(MulScalar(a, 2.0f));
  Backward(loss);
  EXPECT_DEATH(Backward(loss), "an earlier Backward freed");

  // A new graph built on a freed node reaches it too.
  Tensor x = MulScalar(a, 2.0f);
  Backward(Sum(x));
  EXPECT_DEATH(Backward(Sum(x)), "an earlier Backward freed");
}

TEST(BackwardTest, ChainThroughManyOps) {
  Tensor a = Tensor::FromVector({0.5f}, {1}, /*requires_grad=*/true);
  // loss = sum(2 * a) repeated through a 10-op chain of +0 noops.
  Tensor x = MulScalar(a, 2.0f);
  for (int i = 0; i < 10; ++i) x = AddScalar(x, 0.0f);
  Backward(Sum(x));
  EXPECT_FLOAT_EQ(a.grad()[0], 2.0f);
}

TEST(NoGradTest, GuardDisablesTape) {
  Tensor a = Tensor::FromVector({1.0f}, {1}, /*requires_grad=*/true);
  {
    NoGradGuard guard;
    EXPECT_FALSE(GradEnabled());
    Tensor b = MulScalar(a, 3.0f);
    EXPECT_FALSE(b.requires_grad());
  }
  EXPECT_TRUE(GradEnabled());
  Tensor c = MulScalar(a, 3.0f);
  EXPECT_TRUE(c.requires_grad());
}

TEST(NoGradTest, GuardsNest) {
  NoGradGuard g1;
  {
    NoGradGuard g2;
    EXPECT_FALSE(GradEnabled());
  }
  EXPECT_FALSE(GradEnabled());
}

TEST(TensorTest, LeafWithoutRequiresGradGetsNoGradient) {
  Tensor a = Tensor::FromVector({1.0f}, {1}, /*requires_grad=*/true);
  Tensor b = Tensor::FromVector({2.0f}, {1}, /*requires_grad=*/false);
  Tensor loss = Sum(Mul(a, b));
  Backward(loss);
  EXPECT_FLOAT_EQ(a.grad()[0], 2.0f);
  EXPECT_FLOAT_EQ(b.grad()[0], 0.0f);
}

}  // namespace
}  // namespace ag
}  // namespace cadrl
