// Thread-count invariance golden tests: the determinism contract of the
// concurrency substrate is that the thread count is a pure performance knob
// — every stochastic decision is keyed by logical index (Rng::Fork) and all
// reductions run in index order, so training at threads=4 must produce the
// SAME bits as threads=1. These tests train the same model at both settings
// from the same seed and require exact equality of parameters, loss/reward
// histories, serialized models and evaluation metrics. Any scheduling-
// dependent RNG draw, out-of-order reduction, or shared mutable state that
// changes results will fail here even on a single-core machine.

#include <chrono>
#include <cstdio>
#include <fstream>
#include <future>
#include <iterator>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/cadrl.h"
#include "data/generator.h"
#include "embed/transe.h"
#include "eval/evaluator.h"
#include "infer/precision.h"
#include "serve/recommend_service.h"
#include "util/kernels.h"

namespace cadrl {
namespace {

std::string ReadAll(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

core::CadrlOptions BaseOptions() {
  core::CadrlOptions o;
  o.use_cggnn = false;
  o.transe.dim = 8;
  o.transe.epochs = 4;
  o.policy_hidden = 16;
  o.episodes_per_user = 4;
  o.max_path_length = 4;
  o.beam_width = 6;
  o.beam_expand = 3;
  o.seed = 43;
  return o;
}

class ThreadInvarianceTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    dataset_ = new data::Dataset();
    ASSERT_TRUE(
        data::GenerateDataset(data::SyntheticConfig::Tiny(), dataset_).ok());
  }
  static void TearDownTestSuite() {
    delete dataset_;
    dataset_ = nullptr;
  }
  static data::Dataset* dataset_;
};

data::Dataset* ThreadInvarianceTest::dataset_ = nullptr;

TEST_F(ThreadInvarianceTest, TransETrainingIsThreadCountInvariant) {
  embed::TransEOptions opts = BaseOptions().transe;

  opts.threads = 1;
  const embed::TransEModel sequential =
      embed::TransEModel::Train(dataset_->graph, opts);

  opts.threads = 4;
  const embed::TransEModel parallel =
      embed::TransEModel::Train(dataset_->graph, opts);

  EXPECT_EQ(parallel.EntityTable(), sequential.EntityTable());
  EXPECT_EQ(parallel.RelationTable(), sequential.RelationTable());
  EXPECT_EQ(parallel.CategoryTable(), sequential.CategoryTable());
  EXPECT_EQ(parallel.epoch_losses(), sequential.epoch_losses());
}

TEST_F(ThreadInvarianceTest, TransEAutoThreadsMatchesSequential) {
  embed::TransEOptions opts = BaseOptions().transe;

  opts.threads = 1;
  const embed::TransEModel sequential =
      embed::TransEModel::Train(dataset_->graph, opts);

  opts.threads = 0;  // one worker per hardware thread, whatever that is here
  const embed::TransEModel parallel =
      embed::TransEModel::Train(dataset_->graph, opts);

  EXPECT_EQ(parallel.EntityTable(), sequential.EntityTable());
  EXPECT_EQ(parallel.epoch_losses(), sequential.epoch_losses());
}

TEST_F(ThreadInvarianceTest, CadrlFitIsThreadCountInvariant) {
  const std::string model_seq =
      ::testing::TempDir() + "/cadrl_inv_model_seq";
  const std::string model_par =
      ::testing::TempDir() + "/cadrl_inv_model_par";

  core::CadrlOptions opts = BaseOptions();
  opts.threads = 1;
  opts.transe.threads = 1;
  core::CadrlRecommender sequential(opts);
  ASSERT_TRUE(sequential.Fit(*dataset_).ok());
  ASSERT_TRUE(sequential.SaveModel(model_seq).ok());

  opts.threads = 4;
  opts.transe.threads = 4;
  core::CadrlRecommender parallel(opts);
  ASSERT_TRUE(parallel.Fit(*dataset_).ok());
  ASSERT_TRUE(parallel.SaveModel(model_par).ok());

  // Reward history, the full serialized inference state (embedding tables,
  // policy parameters, score config), and the eval metrics all match bit
  // for bit.
  EXPECT_EQ(parallel.epoch_rewards(), sequential.epoch_rewards());
  EXPECT_EQ(ReadAll(model_par), ReadAll(model_seq));

  const eval::EvalResult eval_seq =
      eval::EvaluateRecommender(&sequential, *dataset_, 10);
  const eval::EvalResult eval_par =
      eval::EvaluateRecommender(&parallel, *dataset_, 10, 0, /*threads=*/4);
  EXPECT_EQ(eval_par.users_evaluated, eval_seq.users_evaluated);
  EXPECT_EQ(eval_par.ndcg, eval_seq.ndcg);
  EXPECT_EQ(eval_par.recall, eval_seq.recall);
  EXPECT_EQ(eval_par.hit_rate, eval_seq.hit_rate);
  EXPECT_EQ(eval_par.precision, eval_seq.precision);

  std::remove(model_seq.c_str());
  std::remove(model_par.c_str());
}

TEST_F(ThreadInvarianceTest, FullPipelineWithKernelsIsThreadCountInvariant) {
  // The full stack — TransE, CGGNN (batched GEMM propagation), dual-agent
  // RL with batched action scoring — every stage routed through the kernel
  // layer. Fixed 8-lane reductions and fixed block sizes mean the kernels
  // contribute no thread- or shape-dependent summation order, so the
  // serialized models must still match byte for byte.
  const std::string model_seq =
      ::testing::TempDir() + "/cadrl_kinv_model_seq";
  const std::string model_par =
      ::testing::TempDir() + "/cadrl_kinv_model_par";

  core::CadrlOptions opts = BaseOptions();
  opts.use_cggnn = true;
  opts.cggnn.epochs = 3;
  opts.cggnn.pairs_per_epoch = 64;

  opts.threads = 1;
  opts.transe.threads = 1;
  core::CadrlRecommender sequential(opts);
  ASSERT_TRUE(sequential.Fit(*dataset_).ok());
  ASSERT_TRUE(sequential.SaveModel(model_seq).ok());

  opts.threads = 4;
  opts.transe.threads = 4;
  core::CadrlRecommender parallel(opts);
  ASSERT_TRUE(parallel.Fit(*dataset_).ok());
  ASSERT_TRUE(parallel.SaveModel(model_par).ok());

  EXPECT_EQ(parallel.epoch_rewards(), sequential.epoch_rewards());
  EXPECT_EQ(ReadAll(model_par), ReadAll(model_seq));

  const eval::EvalResult eval_seq =
      eval::EvaluateRecommender(&sequential, *dataset_, 10);
  const eval::EvalResult eval_par =
      eval::EvaluateRecommender(&parallel, *dataset_, 10, 0, /*threads=*/4);
  EXPECT_EQ(eval_par.ndcg, eval_seq.ndcg);
  EXPECT_EQ(eval_par.recall, eval_seq.recall);

  std::remove(model_seq.c_str());
  std::remove(model_par.c_str());
}

TEST_F(ThreadInvarianceTest, KernelBackendsProduceIdenticalModels) {
  // The backend toggle is pure implementation choice: a full fit under the
  // scalar fallback must serialize the exact bytes of a blocked-backend
  // fit (the cross-backend half of the kernel determinism contract; the
  // per-kernel half lives in kernels_test.cc).
  const std::string model_scalar =
      ::testing::TempDir() + "/cadrl_kb_model_scalar";
  const std::string model_blocked =
      ::testing::TempDir() + "/cadrl_kb_model_blocked";

  core::CadrlOptions opts = BaseOptions();
  opts.use_cggnn = true;
  opts.cggnn.epochs = 2;
  opts.cggnn.pairs_per_epoch = 64;

  const kernels::Backend saved = kernels::ActiveBackend();
  kernels::SetBackend(kernels::Backend::kScalar);
  core::CadrlRecommender scalar_fit(opts);
  ASSERT_TRUE(scalar_fit.Fit(*dataset_).ok());
  ASSERT_TRUE(scalar_fit.SaveModel(model_scalar).ok());

  kernels::SetBackend(kernels::Backend::kBlocked);
  core::CadrlRecommender blocked_fit(opts);
  ASSERT_TRUE(blocked_fit.Fit(*dataset_).ok());
  ASSERT_TRUE(blocked_fit.SaveModel(model_blocked).ok());
  kernels::SetBackend(saved);

  EXPECT_EQ(scalar_fit.epoch_rewards(), blocked_fit.epoch_rewards());
  EXPECT_EQ(ReadAll(model_scalar), ReadAll(model_blocked));

  std::remove(model_scalar.c_str());
  std::remove(model_blocked.c_str());
}

// Serves every user twice through a RecommendService at 1 and 4 workers
// and checks each response against `model`'s direct single-threaded
// Recommend, byte for byte: item ids, scores and explanation paths.
// `quantized` also checks that the quantized arena footprint surfaces
// through the service stats.
void ExpectServingMatchesDirect(core::CadrlRecommender* model,
                                const data::Dataset& dataset,
                                bool quantized) {
  constexpr int kTopK = 5;
  std::vector<std::vector<eval::Recommendation>> baseline;
  for (kg::EntityId user : dataset.users) {
    baseline.push_back(model->Recommend(user, kTopK));
  }

  for (const int workers : {1, 4}) {
    serve::ServeOptions options;
    options.threads = workers;
    options.queue_capacity = 256;
    options.top_k = kTopK;
    serve::RecommendService service(model, dataset, options);
    ASSERT_TRUE(service.Start().ok());
    std::vector<std::future<serve::ServeResponse>> futures;
    std::vector<size_t> indices;
    for (int round = 0; round < 2; ++round) {
      for (size_t u = 0; u < dataset.users.size(); ++u) {
        serve::ServeRequest req;
        req.user = dataset.users[u];
        req.k = kTopK;
        req.timeout = std::chrono::microseconds{-1};  // no deadline
        futures.push_back(service.Submit(req));
        indices.push_back(u);
      }
    }
    for (size_t i = 0; i < futures.size(); ++i) {
      const serve::ServeResponse resp = futures[i].get();
      ASSERT_TRUE(resp.status.ok()) << resp.status.ToString();
      ASSERT_EQ(resp.level, serve::DegradationLevel::kFull);
      const auto& want = baseline[indices[i]];
      ASSERT_EQ(want.size(), resp.recs.size());
      for (size_t r = 0; r < want.size(); ++r) {
        EXPECT_EQ(want[r].item, resp.recs[r].item);
        EXPECT_EQ(want[r].score, resp.recs[r].score);
        EXPECT_EQ(want[r].path.steps, resp.recs[r].path.steps);
      }
    }
    service.Stop();
    if (quantized) {
      const serve::RecommendService::Stats stats = service.stats();
      EXPECT_GT(stats.arena_store_row_bytes, 0);
      EXPECT_GT(stats.arena_store_scale_bytes, 0);
      EXPECT_GT(stats.arena_policy_param_bytes, 0);
    }
  }
}

TEST_F(ThreadInvarianceTest, ServingIsWorkerCountInvariant) {
  // The serving-side face of the same contract: the worker count is a
  // pure performance knob.
  core::CadrlOptions opts = BaseOptions();
  opts.threads = 1;
  opts.transe.threads = 1;
  core::CadrlRecommender model(opts);
  ASSERT_TRUE(model.Fit(*dataset_).ok());
  ExpectServingMatchesDirect(&model, *dataset_, /*quantized=*/false);
}

TEST_F(ThreadInvarianceTest, QuantizedServingIsWorkerCountInvariant) {
  // The serving contract survives quantization: with the snapshot
  // re-encoded as int8 rows, every response still matches the direct
  // single-threaded int8 Recommend byte for byte.
  core::CadrlOptions opts = BaseOptions();
  opts.threads = 1;
  opts.transe.threads = 1;
  core::CadrlRecommender model(opts);
  ASSERT_TRUE(model.Fit(*dataset_).ok());
  model.set_snapshot_precision(infer::Precision::kInt8);
  model.RepublishSnapshot();
  ASSERT_EQ(model.CurrentSnapshot()->precision(), infer::Precision::kInt8);
  ExpectServingMatchesDirect(&model, *dataset_, /*quantized=*/true);
}

TEST_F(ThreadInvarianceTest, RolloutBatchIsPartOfTheAlgorithm) {
  // Negative control for the determinism contract: the *batch size* is
  // allowed to change results (one optimizer step per batch), only the
  // thread count is not. Guard that the invariance tests above cannot pass
  // vacuously because training ignores batching altogether.
  core::CadrlOptions a = BaseOptions();
  a.rollout_batch = 1;
  core::CadrlRecommender batch1(a);
  ASSERT_TRUE(batch1.Fit(*dataset_).ok());

  core::CadrlOptions b = BaseOptions();
  b.rollout_batch = 8;
  core::CadrlRecommender batch8(b);
  ASSERT_TRUE(batch8.Fit(*dataset_).ok());

  EXPECT_NE(batch8.epoch_rewards(), batch1.epoch_rewards());
}

}  // namespace
}  // namespace cadrl
