// Golden tests for the tape-free compiled inference layer (src/infer/,
// DESIGN.md §12). The contract has three legs:
//
//   1. byte identity — Recommend / FindPaths / eval metrics and the CGGNN
//      forward are bit-for-bit identical between the compiled snapshot and
//      the legacy autograd tape (the same floats, the same paths, the same
//      tie-breaks), under every kernel backend and thread count the suite
//      runs with (the whole binary re-runs with CADRL_KERNELS=scalar);
//   2. zero graph allocations — a compiled Recommend in steady state
//      allocates no ag::TensorImpl at all (util/alloc_stats), while the
//      tape path demonstrably does;
//   3. snapshot lifecycle — Fit/LoadModel publish a snapshot,
//      ReloadFromCheckpoint atomically swaps it (and leaves the old one
//      serving on any parse failure), and recommenders without live reload
//      report kFailedPrecondition.
//
// The swap-under-concurrent-load half of the contract lives in
// serve_chaos_test.cc (SnapshotSwapUnderLoad).

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "autograd/tensor.h"
#include "core/cadrl.h"
#include "core/cggnn.h"
#include "data/generator.h"
#include "eval/evaluator.h"
#include "infer/cggnn_forward.h"
#include "infer/compiled_model.h"
#include "util/alloc_stats.h"

namespace cadrl {
namespace core {
namespace {

CadrlOptions GoldenOptions() {
  CadrlOptions o;
  o.transe.dim = 12;
  o.transe.epochs = 4;
  o.cggnn.ggnn_layers = 1;
  o.cggnn.cgan_layers = 1;
  o.cggnn.epochs = 2;
  o.cggnn.pairs_per_epoch = 32;
  o.policy_hidden = 24;
  o.episodes_per_user = 2;
  o.max_path_length = 4;
  o.beam_width = 8;
  o.beam_expand = 4;
  o.seed = 23;
  return o;
}

// Bitwise comparison: same items, same doubles, same explanation paths.
void ExpectSameRecs(const std::vector<eval::Recommendation>& a,
                    const std::vector<eval::Recommendation>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].item, b[i].item) << "rank " << i;
    EXPECT_EQ(a[i].score, b[i].score) << "rank " << i;
    EXPECT_EQ(a[i].path.steps, b[i].path.steps) << "rank " << i;
  }
}

void ExpectSamePaths(const std::vector<eval::RecommendationPath>& a,
                     const std::vector<eval::RecommendationPath>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].user, b[i].user) << "path " << i;
    EXPECT_EQ(a[i].steps, b[i].steps) << "path " << i;
  }
}

class CompiledInferenceTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    dataset_ = new data::Dataset(
        data::MustGenerateDataset(data::SyntheticConfig::Tiny()));
    model_ = new CadrlRecommender(GoldenOptions());
    // Compiled-vs-tape byte identity is an f32 contract: the tape computes
    // in f32, so the snapshot must too, whatever CADRL_PRECISION says (the
    // quantized-snapshot contract lives in quantized_inference_test.cc).
    model_->set_snapshot_precision(infer::Precision::kF32);
    ASSERT_TRUE(model_->Fit(*dataset_).ok());
  }
  static void TearDownTestSuite() {
    delete model_;
    delete dataset_;
    model_ = nullptr;
    dataset_ = nullptr;
  }
  // Every test must leave the shared model on the compiled path.
  void TearDown() override { model_->set_use_compiled_inference(true); }

  static data::Dataset* dataset_;
  static CadrlRecommender* model_;
};

data::Dataset* CompiledInferenceTest::dataset_ = nullptr;
CadrlRecommender* CompiledInferenceTest::model_ = nullptr;

// ---------- 1. Byte identity ----------

TEST_F(CompiledInferenceTest, RecommendMatchesTapeByteForByte) {
  for (kg::EntityId user : dataset_->users) {
    model_->set_use_compiled_inference(true);
    const auto compiled = model_->Recommend(user, 10);
    model_->set_use_compiled_inference(false);
    const auto tape = model_->Recommend(user, 10);
    ASSERT_FALSE(compiled.empty()) << "user " << user;
    ExpectSameRecs(compiled, tape);
  }
}

TEST_F(CompiledInferenceTest, FindPathsMatchesTapeByteForByte) {
  for (size_t u = 0; u < dataset_->users.size(); u += 2) {
    const kg::EntityId user = dataset_->users[u];
    model_->set_use_compiled_inference(true);
    const auto compiled = model_->FindPaths(user, 5);
    model_->set_use_compiled_inference(false);
    const auto tape = model_->FindPaths(user, 5);
    ExpectSamePaths(compiled, tape);
  }
}

TEST_F(CompiledInferenceTest, EvalMetricsMatchTapeExactly) {
  model_->set_use_compiled_inference(true);
  const eval::EvalResult compiled =
      eval::EvaluateRecommender(model_, *dataset_, /*k=*/10);
  model_->set_use_compiled_inference(false);
  const eval::EvalResult tape =
      eval::EvaluateRecommender(model_, *dataset_, /*k=*/10);
  EXPECT_EQ(compiled.users_evaluated, tape.users_evaluated);
  EXPECT_EQ(compiled.ndcg, tape.ndcg);
  EXPECT_EQ(compiled.recall, tape.recall);
  EXPECT_EQ(compiled.hit_rate, tape.hit_rate);
  EXPECT_EQ(compiled.precision, tape.precision);
}

// Multi-threaded eval on the compiled path equals single-threaded tape
// eval: snapshot reads are safe under concurrency and still bit-identical.
TEST_F(CompiledInferenceTest, ThreadedCompiledEvalMatchesSequentialTape) {
  model_->set_use_compiled_inference(true);
  const eval::EvalResult threaded =
      eval::EvaluateRecommender(model_, *dataset_, /*k=*/10,
                                /*max_users=*/0, /*threads=*/4);
  model_->set_use_compiled_inference(false);
  const eval::EvalResult tape =
      eval::EvaluateRecommender(model_, *dataset_, /*k=*/10);
  EXPECT_EQ(threaded.ndcg, tape.ndcg);
  EXPECT_EQ(threaded.recall, tape.recall);
  EXPECT_EQ(threaded.hit_rate, tape.hit_rate);
  EXPECT_EQ(threaded.precision, tape.precision);
}

TEST(CggnnCompiledForwardTest, MatchesAutogradByteForByte) {
  const data::Dataset dataset =
      data::MustGenerateDataset(data::SyntheticConfig::Tiny());
  embed::TransEOptions topt;
  topt.dim = 12;
  topt.epochs = 4;
  const embed::TransEModel transe =
      embed::TransEModel::Train(dataset.graph, topt);

  CggnnOptions options;
  options.ggnn_layers = 2;
  options.cgan_layers = 2;
  options.epochs = 0;
  const Cggnn cggnn(&dataset.graph, &transe, options);

  ag::NoGradGuard guard;
  const std::vector<ag::Tensor> tape = cggnn.ComputeItemRepresentations();
  std::vector<float> compiled;
  infer::CggnnForward(cggnn.ForwardView(), &compiled);

  ASSERT_EQ(static_cast<int64_t>(tape.size()), cggnn.num_items());
  ASSERT_EQ(static_cast<int64_t>(compiled.size()),
            cggnn.num_items() * cggnn.dim());
  for (size_t pos = 0; pos < tape.size(); ++pos) {
    const float* row = compiled.data() + pos * cggnn.dim();
    for (int64_t i = 0; i < cggnn.dim(); ++i) {
      EXPECT_EQ(tape[pos].at(i), row[i])
          << "item pos " << pos << " component " << i;
    }
  }
}

// ---------- 2. Zero tensor-graph allocations in steady state ----------

TEST_F(CompiledInferenceTest, CompiledRecommendAllocatesNoGraphNodes) {
  const kg::EntityId user = dataset_->users[0];
  model_->set_use_compiled_inference(true);
  model_->Recommend(user, 10);  // warm-up (snapshot already built by Fit)

  util::TensorAllocScope scope;
  const auto recs = model_->Recommend(user, 10);
  EXPECT_EQ(scope.delta(), 0)
      << "a compiled Recommend must not allocate any ag::TensorImpl";
  EXPECT_FALSE(recs.empty());

  // The tape path allocates a graph node per op — the counter works and
  // the compiled path's zero is not vacuous.
  model_->set_use_compiled_inference(false);
  util::TensorAllocScope tape_scope;
  model_->Recommend(user, 10);
  EXPECT_GT(tape_scope.delta(), 0);
}

TEST_F(CompiledInferenceTest, CompiledFindPathsAllocatesNoGraphNodes) {
  const kg::EntityId user = dataset_->users[1];
  model_->set_use_compiled_inference(true);
  model_->FindPaths(user, 5);  // warm-up

  util::TensorAllocScope scope;
  const auto paths = model_->FindPaths(user, 5);
  EXPECT_EQ(scope.delta(), 0);
  (void)paths;
}

// ---------- 3. Snapshot lifecycle ----------

TEST(CompiledSnapshotTest, FitPublishesAndReloadSwapsAtomically) {
  const data::Dataset dataset =
      data::MustGenerateDataset(data::SyntheticConfig::Tiny());

  CadrlRecommender a(GoldenOptions());
  EXPECT_EQ(a.CurrentSnapshot(), nullptr) << "no snapshot before Fit";
  ASSERT_TRUE(a.Fit(dataset).ok());
  const auto snap_a = a.CurrentSnapshot();
  ASSERT_NE(snap_a, nullptr);
  EXPECT_GT(snap_a->arena_bytes().total(), 0u);

  CadrlOptions other = GoldenOptions();
  other.seed = 91;  // same shapes, different weights
  CadrlRecommender b(other);
  ASSERT_TRUE(b.Fit(dataset).ok());

  const std::string path_a = ::testing::TempDir() + "/compiled_reload_a.bin";
  const std::string path_b = ::testing::TempDir() + "/compiled_reload_b.bin";
  ASSERT_TRUE(a.SaveModel(path_a).ok());
  ASSERT_TRUE(b.SaveModel(path_b).ok());

  const kg::EntityId user = dataset.users[0];
  const auto recs_a = a.Recommend(user, 10);
  const auto recs_b = b.Recommend(user, 10);

  // Swap a's serving snapshot to b's checkpoint: a now answers exactly as
  // b does, without retraining and without touching a's training state.
  ASSERT_TRUE(a.ReloadFromCheckpoint(path_b).ok());
  EXPECT_NE(a.CurrentSnapshot(), snap_a) << "reload must publish a new snapshot";
  ExpectSameRecs(a.Recommend(user, 10), recs_b);

  // In-flight semantics: a snapshot acquired before the swap keeps
  // serving the old model (RCU read side).
  const auto held = a.CurrentSnapshot();
  ASSERT_TRUE(a.ReloadFromCheckpoint(path_a).ok());
  EXPECT_NE(a.CurrentSnapshot(), held);
  ExpectSameRecs(a.Recommend(user, 10), recs_a);

  std::remove(path_a.c_str());
  std::remove(path_b.c_str());
}

TEST(CompiledSnapshotTest, ReloadFailuresLeaveOldSnapshotServing) {
  const data::Dataset dataset =
      data::MustGenerateDataset(data::SyntheticConfig::Tiny());
  CadrlRecommender model(GoldenOptions());

  // Before Fit there is nothing to swap into.
  EXPECT_TRUE(model.ReloadFromCheckpoint("/nonexistent").IsFailedPrecondition());

  ASSERT_TRUE(model.Fit(dataset).ok());
  const kg::EntityId user = dataset.users[0];
  const auto before = model.Recommend(user, 10);
  const auto snap = model.CurrentSnapshot();

  // Missing file and corrupt payload both fail without disturbing the
  // published snapshot.
  EXPECT_FALSE(model.ReloadFromCheckpoint("/nonexistent/model.bin").ok());
  const std::string junk = ::testing::TempDir() + "/compiled_reload_junk.bin";
  {
    FILE* f = std::fopen(junk.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fputs("definitely not a cadrl_model file", f);
    std::fclose(f);
  }
  EXPECT_FALSE(model.ReloadFromCheckpoint(junk).ok());
  std::remove(junk.c_str());

  EXPECT_EQ(model.CurrentSnapshot(), snap);
  ExpectSameRecs(model.Recommend(user, 10), before);
}

TEST(CompiledSnapshotTest, RecommendersWithoutReloadReportFailedPrecondition) {
  // The eval::Recommender default keeps models honest: anything that does
  // not implement live reload refuses rather than silently ignoring it.
  struct NoReload : eval::Recommender {
    std::string name() const override { return "no-reload"; }
    Status Fit(const data::Dataset&) override { return Status::OK(); }
    std::vector<eval::Recommendation> Recommend(kg::EntityId, int) override {
      return {};
    }
  } model;
  const Status s = model.ReloadFromCheckpoint("anywhere.bin");
  EXPECT_TRUE(s.IsFailedPrecondition()) << s.ToString();
}

}  // namespace
}  // namespace core
}  // namespace cadrl
