// Golden tests for the quantized serving arena (DESIGN.md §14): int8 / f16
// row formats for the compiled snapshot's embedding tables. The contract
// has four legs:
//
//   1. footprint — an int8 snapshot's embedding sections (rows + per-row
//      scale/zero-point metadata) cost at most 0.30x the f32 rows at the
//      serving dim, f16 exactly 0.50x, and the section accounting
//      (CompiledModel::arena_bytes / Recommender::ServingArenaBytes) adds
//      up — the memory claim is an asserted number, not a bench note;
//   2. determinism — a quantized snapshot is as deterministic as an f32
//      one: Recommend / FindPaths / eval metrics are byte-identical across
//      kernel backends, eval thread counts, and repeated calls (the fused
//      quantized kernels share one dequantize formula and the 8-lane
//      reduction order, so there is no "approximately equal" anywhere);
//   3. accuracy drift — quantizing the arena moves NDCG@10 / HR@10 by a
//      bounded amount relative to f32 (f16 is tighter than int8);
//   4. lifecycle — RepublishSnapshot() re-encodes the training-side f32
//      parameters under the current precision without retraining, an
//      f32 -> int8 -> f32 round trip restores the exact f32 bytes, and
//      checkpoint reload preserves the configured precision.
//
// The threading face of leg 2 lives in thread_invariance_test.cc; the
// per-kernel bit-identity contract lives in kernels_test.cc.

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/cadrl.h"
#include "core/cggnn.h"
#include "data/generator.h"
#include "embed/transe.h"
#include "eval/evaluator.h"
#include "infer/cggnn_forward.h"
#include "infer/compiled_model.h"
#include "infer/precision.h"
#include "util/kernels.h"

namespace cadrl {
namespace core {
namespace {

using infer::Precision;

// dim = 24 is the serving configuration the footprint claim is made at:
// int8 rows cost 24 bytes + 4 bytes of scale/zp metadata = 28 bytes versus
// 96 f32 bytes, i.e. 0.2917 <= 0.30. (At tiny dims the fixed 4-byte
// overhead dominates and the ratio claim would be vacuous.)
CadrlOptions QuantOptions() {
  CadrlOptions o;
  o.transe.dim = 24;
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
  o.seed = 29;
  return o;
}

void ExpectSameRecs(const std::vector<eval::Recommendation>& a,
                    const std::vector<eval::Recommendation>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].item, b[i].item) << "rank " << i;
    EXPECT_EQ(a[i].score, b[i].score) << "rank " << i;
    EXPECT_EQ(a[i].path.steps, b[i].path.steps) << "rank " << i;
  }
}

class QuantizedInferenceTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    dataset_ = new data::Dataset(
        data::MustGenerateDataset(data::SyntheticConfig::Tiny()));
    model_ = new CadrlRecommender(QuantOptions());
    // The suite republishes under several precisions; the training state
    // itself is precision-independent, so one Fit serves every test.
    model_->set_snapshot_precision(Precision::kF32);
    ASSERT_TRUE(model_->Fit(*dataset_).ok());
  }
  static void TearDownTestSuite() {
    delete model_;
    delete dataset_;
    model_ = nullptr;
    dataset_ = nullptr;
  }
  // Every test must leave the shared model on the compiled f32 snapshot.
  void TearDown() override {
    model_->set_use_compiled_inference(true);
    SetPrecision(Precision::kF32);
  }

  static void SetPrecision(Precision p) {
    model_->set_snapshot_precision(p);
    model_->RepublishSnapshot();
    ASSERT_NE(model_->CurrentSnapshot(), nullptr);
    ASSERT_EQ(model_->CurrentSnapshot()->precision(), p);
  }

  static std::vector<std::vector<eval::Recommendation>> RecommendAll() {
    std::vector<std::vector<eval::Recommendation>> out;
    for (kg::EntityId user : dataset_->users) {
      out.push_back(model_->Recommend(user, 10));
    }
    return out;
  }

  static data::Dataset* dataset_;
  static CadrlRecommender* model_;
};

data::Dataset* QuantizedInferenceTest::dataset_ = nullptr;
CadrlRecommender* QuantizedInferenceTest::model_ = nullptr;

// ---------- 1. Footprint ----------

TEST_F(QuantizedInferenceTest, Int8EmbeddingSectionsAtMost30PercentOfF32) {
  SetPrecision(Precision::kF32);
  const infer::ArenaBytes f32 = model_->CurrentSnapshot()->arena_bytes();
  ASSERT_GT(f32.store_rows, 0u);
  EXPECT_EQ(f32.store_scales, 0u) << "f32 rows carry no quant metadata";

  SetPrecision(Precision::kInt8);
  const infer::ArenaBytes q8 = model_->CurrentSnapshot()->arena_bytes();
  // ISSUE acceptance bound: embedding sections (rows + scales) at most
  // 0.30x the f32 rows. At dim 24 the exact ratio is 28/96 = 0.29166...
  EXPECT_LE(static_cast<double>(q8.store_rows + q8.store_scales),
            0.30 * static_cast<double>(f32.store_rows))
      << "int8 " << q8.store_rows << "+" << q8.store_scales << " vs f32 "
      << f32.store_rows;
  EXPECT_EQ(q8.store_rows * 4, f32.store_rows) << "1 byte vs 4 per element";
  EXPECT_GT(q8.store_scales, 0u);
  // Policy parameters stay f32 under every precision.
  EXPECT_EQ(q8.policy_params, f32.policy_params);

  SetPrecision(Precision::kF16);
  const infer::ArenaBytes f16 = model_->CurrentSnapshot()->arena_bytes();
  EXPECT_EQ(f16.store_rows * 2, f32.store_rows) << "f16 is exactly half";
  EXPECT_EQ(f16.store_scales, 0u);
  EXPECT_EQ(f16.policy_params, f32.policy_params);
}

TEST_F(QuantizedInferenceTest, ServingArenaBytesMirrorsSnapshotSections) {
  for (const Precision p :
       {Precision::kF32, Precision::kF16, Precision::kInt8}) {
    SetPrecision(p);
    const infer::ArenaBytes ab = model_->CurrentSnapshot()->arena_bytes();
    const eval::Recommender::ServingArena sa = model_->ServingArenaBytes();
    EXPECT_EQ(sa.store_row_bytes, ab.store_rows) << infer::PrecisionName(p);
    EXPECT_EQ(sa.store_scale_bytes, ab.store_scales);
    EXPECT_EQ(sa.policy_param_bytes, ab.policy_params);
    EXPECT_EQ(sa.total(), ab.total());
  }
  // Models without a compiled arena (or before Fit) report zeros, not junk.
  CadrlRecommender unfitted(QuantOptions());
  EXPECT_EQ(unfitted.ServingArenaBytes().total(), 0u);
}

// ---------- 2. Determinism ----------

TEST_F(QuantizedInferenceTest, QuantizedRecommendIsBackendInvariant) {
  const kernels::Backend saved = kernels::ActiveBackend();
  for (const Precision p : {Precision::kF16, Precision::kInt8}) {
    SetPrecision(p);
    kernels::SetBackend(kernels::Backend::kBlocked);
    const auto blocked = RecommendAll();
    kernels::SetBackend(kernels::Backend::kScalar);
    const auto scalar = RecommendAll();
    kernels::SetBackend(saved);
    ASSERT_EQ(blocked.size(), scalar.size());
    for (size_t u = 0; u < blocked.size(); ++u) {
      ASSERT_FALSE(blocked[u].empty()) << "user index " << u;
      ExpectSameRecs(blocked[u], scalar[u]);
    }
  }
}

TEST_F(QuantizedInferenceTest, QuantizedEvalIsThreadCountInvariant) {
  SetPrecision(Precision::kInt8);
  const eval::EvalResult seq =
      eval::EvaluateRecommender(model_, *dataset_, /*k=*/10);
  const eval::EvalResult par =
      eval::EvaluateRecommender(model_, *dataset_, /*k=*/10,
                                /*max_users=*/0, /*threads=*/4);
  EXPECT_EQ(par.users_evaluated, seq.users_evaluated);
  EXPECT_EQ(par.ndcg, seq.ndcg);
  EXPECT_EQ(par.recall, seq.recall);
  EXPECT_EQ(par.hit_rate, seq.hit_rate);
  EXPECT_EQ(par.precision, seq.precision);
}

TEST_F(QuantizedInferenceTest, QuantizedFindPathsIsRepeatable) {
  SetPrecision(Precision::kInt8);
  for (size_t u = 0; u < dataset_->users.size(); u += 2) {
    const kg::EntityId user = dataset_->users[u];
    const auto first = model_->FindPaths(user, 5);
    const auto second = model_->FindPaths(user, 5);
    ASSERT_EQ(first.size(), second.size());
    for (size_t i = 0; i < first.size(); ++i) {
      EXPECT_EQ(first[i].user, second[i].user);
      EXPECT_EQ(first[i].steps, second[i].steps);
    }
  }
}

// ---------- 3. Accuracy drift ----------

TEST_F(QuantizedInferenceTest, QuantizationDriftIsBounded) {
  SetPrecision(Precision::kF32);
  const eval::EvalResult f32 =
      eval::EvaluateRecommender(model_, *dataset_, /*k=*/10);
  ASSERT_GT(f32.users_evaluated, 0);

  SetPrecision(Precision::kF16);
  const eval::EvalResult f16 =
      eval::EvaluateRecommender(model_, *dataset_, /*k=*/10);
  EXPECT_EQ(f16.users_evaluated, f32.users_evaluated);
  // Metrics are x100 (percentage points). binary16 keeps ~3 decimal digits
  // of each embedding element; ranking metrics on the tiny suite barely
  // move (measured drift is < 0.1 point).
  EXPECT_LE(std::abs(f16.ndcg - f32.ndcg), 1.0) << "f16 ndcg " << f16.ndcg
                                                << " vs f32 " << f32.ndcg;
  EXPECT_LE(std::abs(f16.hit_rate - f32.hit_rate), 5.0);

  SetPrecision(Precision::kInt8);
  const eval::EvalResult q8 =
      eval::EvaluateRecommender(model_, *dataset_, /*k=*/10);
  EXPECT_EQ(q8.users_evaluated, f32.users_evaluated);
  // 8-bit rows carry ~2 decimal digits per element; the beam search has
  // margin, so top-10 ranking stays within a few points. The hit-rate
  // bound must absorb one user flipping on the tiny suite (100 / 12 users
  // = 8.33 points of granularity); measured int8 drift is 1.5 NDCG points.
  EXPECT_LE(std::abs(q8.ndcg - f32.ndcg), 4.0) << "int8 ndcg " << q8.ndcg
                                               << " vs f32 " << f32.ndcg;
  EXPECT_LE(std::abs(q8.hit_rate - f32.hit_rate), 12.0);
}

// ---------- 4. Lifecycle ----------

TEST_F(QuantizedInferenceTest, RepublishRoundTripRestoresF32Bytes) {
  SetPrecision(Precision::kF32);
  const auto before = RecommendAll();
  const auto snap_before = model_->CurrentSnapshot();

  SetPrecision(Precision::kInt8);
  EXPECT_NE(model_->CurrentSnapshot(), snap_before)
      << "republish must publish a fresh snapshot";
  const auto quant = RecommendAll();
  for (size_t u = 0; u < quant.size(); ++u) {
    ASSERT_FALSE(quant[u].empty()) << "user index " << u;
  }

  // Quantization lives only in the snapshot: training-side f32 parameters
  // are untouched, so switching back restores the exact f32 answers.
  SetPrecision(Precision::kF32);
  const auto after = RecommendAll();
  ASSERT_EQ(before.size(), after.size());
  for (size_t u = 0; u < before.size(); ++u) {
    ExpectSameRecs(before[u], after[u]);
  }
}

TEST_F(QuantizedInferenceTest, CheckpointReloadKeepsConfiguredPrecision) {
  const std::string path =
      ::testing::TempDir() + "/quantized_reload_model.bin";
  ASSERT_TRUE(model_->SaveModel(path).ok());

  SetPrecision(Precision::kInt8);
  const auto before = RecommendAll();
  // The checkpoint stores f32 training parameters; reload re-encodes them
  // under the recommender's configured precision, so a hot swap does not
  // silently change the serving row format.
  ASSERT_TRUE(model_->ReloadFromCheckpoint(path).ok());
  ASSERT_EQ(model_->CurrentSnapshot()->precision(), Precision::kInt8);
  const auto after = RecommendAll();
  ASSERT_EQ(before.size(), after.size());
  for (size_t u = 0; u < before.size(); ++u) {
    ExpectSameRecs(before[u], after[u]);
  }

  // LoadModel into a fresh recommender honors that instance's precision.
  CadrlRecommender loaded(QuantOptions());
  loaded.set_snapshot_precision(Precision::kInt8);
  ASSERT_TRUE(loaded.LoadModel(*dataset_, path).ok());
  ASSERT_NE(loaded.CurrentSnapshot(), nullptr);
  EXPECT_EQ(loaded.CurrentSnapshot()->precision(), Precision::kInt8);
  for (size_t u = 0; u < dataset_->users.size(); ++u) {
    ExpectSameRecs(after[u], loaded.Recommend(dataset_->users[u], 10));
  }
  std::remove(path.c_str());
}

// ---------- quantized CGGNN forward ----------

// The precision-aware CGGNN bake: running the forward over an int8 / f16
// entity table must equal running the f32 forward over the *dequantized*
// table bit for bit — MaterializeRow and the fused kernels share one
// dequantize formula, so encoding is the only approximation and the
// forward adds none of its own.
TEST(QuantizedCggnnForwardTest, EncodedEntityTableMatchesDequantizedF32) {
  const data::Dataset dataset =
      data::MustGenerateDataset(data::SyntheticConfig::Tiny());
  embed::TransEOptions topt;
  topt.dim = 12;
  topt.epochs = 4;
  const embed::TransEModel transe =
      embed::TransEModel::Train(dataset.graph, topt);

  CggnnOptions options;
  options.ggnn_layers = 1;
  options.cgan_layers = 1;
  options.epochs = 0;
  const Cggnn cggnn(&dataset.graph, &transe, options);
  infer::CggnnView view = cggnn.ForwardView();
  ASSERT_EQ(view.entity_precision, Precision::kF32);

  const int64_t rows = dataset.graph.num_entities();
  const int d = view.dim;
  const float* f32_table = view.entity_table.f32;

  // int8: encode every row, then dequantize back into an f32 shadow table.
  std::vector<int8_t> q8(static_cast<size_t>(rows) * d);
  std::vector<uint16_t> scales(static_cast<size_t>(rows));
  std::vector<uint16_t> zps(static_cast<size_t>(rows));
  std::vector<float> dequant(static_cast<size_t>(rows) * d);
  for (int64_t r = 0; r < rows; ++r) {
    kernels::QuantizeRowQ8(f32_table + r * d, d, q8.data() + r * d,
                           &scales[static_cast<size_t>(r)],
                           &zps[static_cast<size_t>(r)]);
    kernels::DequantizeRowQ8(q8.data() + r * d,
                             kernels::F16ToF32(scales[static_cast<size_t>(r)]),
                             kernels::F16ToF32(zps[static_cast<size_t>(r)]),
                             d, dequant.data() + r * d);
  }

  infer::CggnnView quant_view = view;
  quant_view.entity_table = {};
  quant_view.entity_table.q8 = q8.data();
  quant_view.entity_table.q8_scale = scales.data();
  quant_view.entity_table.q8_zp = zps.data();
  quant_view.entity_precision = Precision::kInt8;

  infer::CggnnView shadow_view = view;
  shadow_view.entity_table = {};
  shadow_view.entity_table.f32 = dequant.data();
  shadow_view.entity_precision = Precision::kF32;

  std::vector<float> got, want;
  infer::CggnnForward(quant_view, &got);
  infer::CggnnForward(shadow_view, &want);
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got[i], want[i]) << "int8 component " << i;
  }

  // f16: same shadow-table construction via the exact F16ToF32 decode.
  std::vector<uint16_t> half(static_cast<size_t>(rows) * d);
  kernels::QuantizeRowF16(f32_table, static_cast<int>(rows * d), half.data());
  std::vector<float> half_dec(half.size());
  for (size_t i = 0; i < half.size(); ++i) {
    half_dec[i] = kernels::F16ToF32(half[i]);
  }
  quant_view.entity_table = {};
  quant_view.entity_table.f16 = half.data();
  quant_view.entity_precision = Precision::kF16;
  shadow_view.entity_table.f32 = half_dec.data();

  infer::CggnnForward(quant_view, &got);
  infer::CggnnForward(shadow_view, &want);
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got[i], want[i]) << "f16 component " << i;
  }
}

}  // namespace
}  // namespace core
}  // namespace cadrl
