// Heap-allocation budgets: of a warmed compiled beam search, and of one
// autograd tape node. The binary replaces the global operator new with a
// per-thread counter, so it is kept apart from cadrl_tests.
//
// Once a thread has served every user once (its scratch has grown to the
// world's working sizes), Recommend(k) may allocate only its answer: the
// result vector and one step vector per returned path, k + 1 in all. The
// budget is k + 6 (n + 6 for FindPaths(n)), which leaves a little room
// without letting any per-element or per-hop allocation back in.

#include <cstdint>
#include <cstdlib>
#include <new>
#include <vector>

#include <gtest/gtest.h>

#include "autograd/ops.h"
#include "core/cadrl.h"
#include "data/generator.h"
#include "infer/precision.h"
#include "util/deadline.h"

namespace {

thread_local int64_t t_allocs = 0;

void* CountedAlloc(std::size_t n) {
  ++t_allocs;
  return std::malloc(n == 0 ? 1 : n);
}

}  // namespace

// GCC pairs the inlined malloc of one replacement with the free of another
// and warns; both sides of every pair here are malloc/free.
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"

void* operator new(std::size_t n) {
  if (void* p = CountedAlloc(n)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) {
  if (void* p = CountedAlloc(n)) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  return CountedAlloc(n);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return CountedAlloc(n);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace cadrl {
namespace core {
namespace {

constexpr int kSlack = 6;

class AllocBudgetTest : public ::testing::TestWithParam<infer::Precision> {
 protected:
  static void SetUpTestSuite() {
    dataset_ = new data::Dataset(
        data::MustGenerateDataset(data::SyntheticConfig::Tiny()));
    CadrlOptions o;
    o.transe.dim = 12;
    o.transe.epochs = 4;
    o.cggnn.epochs = 2;
    o.cggnn.pairs_per_epoch = 32;
    o.policy_hidden = 24;
    o.episodes_per_user = 2;
    o.seed = 31;
    model_ = new CadrlRecommender(o);
    ASSERT_TRUE(model_->Fit(*dataset_).ok());
  }
  static void TearDownTestSuite() {
    delete model_;
    delete dataset_;
    model_ = nullptr;
    dataset_ = nullptr;
  }
  void SetUp() override {
    model_->set_snapshot_precision(GetParam());
    model_->RepublishSnapshot();
    // Warm-up: one pass over every user grows this thread's scratch to
    // the world's largest neighbourhoods and beams.
    for (kg::EntityId user : dataset_->users) {
      (void)model_->Recommend(user, 10);
      (void)model_->FindPaths(user, 100);
    }
  }

  static data::Dataset* dataset_;
  static CadrlRecommender* model_;
};

data::Dataset* AllocBudgetTest::dataset_ = nullptr;
CadrlRecommender* AllocBudgetTest::model_ = nullptr;

TEST_P(AllocBudgetTest, RecommendAllocatesOnlyItsAnswer) {
  for (const int k : {1, 10}) {
    for (kg::EntityId user : dataset_->users) {
      const int64_t before = t_allocs;
      const std::vector<eval::Recommendation> recs =
          model_->Recommend(user, k);
      const int64_t allocs = t_allocs - before;
      ASSERT_FALSE(recs.empty());
      EXPECT_LE(allocs, k + kSlack) << "user " << user << " k " << k;
    }
  }
}

TEST_P(AllocBudgetTest, FindPathsAllocatesOnlyItsAnswer) {
  for (const int n : {5, 100}) {
    for (kg::EntityId user : dataset_->users) {
      const int64_t before = t_allocs;
      const std::vector<eval::RecommendationPath> paths =
          model_->FindPaths(user, n);
      const int64_t allocs = t_allocs - before;
      ASSERT_FALSE(paths.empty());
      EXPECT_LE(allocs, n + kSlack) << "user " << user << " n " << n;
    }
  }
}

// The serving entry points: deadline checks and the unarmed "cadrl/score"
// and "cadrl/find-paths" failpoints add no allocation.
TEST_P(AllocBudgetTest, DeadlineAwareCallsStayWithinBudget) {
  const RequestContext ctx =
      RequestContext::WithTimeout(std::chrono::minutes(10));
  std::vector<eval::Recommendation> recs;
  std::vector<eval::RecommendationPath> paths;
  for (kg::EntityId user : dataset_->users) {
    int64_t before = t_allocs;
    ASSERT_TRUE(model_->Recommend(user, 10, ctx, &recs).ok());
    EXPECT_LE(t_allocs - before, 10 + kSlack) << "user " << user;
    before = t_allocs;
    ASSERT_TRUE(model_->FindPaths(user, 10, ctx, &paths).ok());
    EXPECT_LE(t_allocs - before, 10 + kSlack) << "user " << user;
  }
}

// The autograd tape's cost per node (DESIGN.md §17): a tracked op makes
// its node block (shape, parents and backward state inline) and its data
// block, and an n-ary op one more block for its parent list. The grad is
// allocated later, by Backward.
TEST(TapeAllocBudgetTest, TrackedBinaryOpMakesTwoAllocations) {
  const ag::Tensor a = ag::Tensor::Full({24}, 0.5f, /*requires_grad=*/true);
  const ag::Tensor b = ag::Tensor::Full({24}, 2.0f, /*requires_grad=*/true);
  const int64_t before = t_allocs;
  const ag::Tensor c = ag::Mul(a, b);
  EXPECT_LE(t_allocs - before, 2);
  EXPECT_TRUE(c.requires_grad());
}

TEST(TapeAllocBudgetTest, ConcatOfFourMakesThreeAllocations) {
  std::vector<ag::Tensor> parts;
  for (int i = 0; i < 4; ++i) {
    parts.push_back(ag::Tensor::Full({6}, 1.0f, /*requires_grad=*/true));
  }
  const int64_t before = t_allocs;
  const ag::Tensor c = ag::Concat(parts);
  EXPECT_LE(t_allocs - before, 3);
  EXPECT_TRUE(c.requires_grad());
}

INSTANTIATE_TEST_SUITE_P(Precisions, AllocBudgetTest,
                         ::testing::Values(infer::Precision::kF32,
                                           infer::Precision::kInt8),
                         [](const auto& info) {
                           return info.param == infer::Precision::kF32
                                      ? std::string("F32")
                                      : std::string("Int8");
                         });

}  // namespace
}  // namespace core
}  // namespace cadrl
