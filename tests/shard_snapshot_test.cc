// Contract tests for the relocatable shard-dir snapshot format
// (infer/shard_layout.h, DESIGN.md §16). The claims under test:
//
//   1. byte identity — a shard-dir-backed (mmap'ed) snapshot answers
//      Recommend / FindPaths / eval metrics byte-for-byte like the heap
//      snapshot (CompiledModel::Build) it was compiled from, at every
//      precision (f32/f16/int8), across eval thread counts, and under the
//      buffered-read fallback. The two share one encoder: a heap snapshot's
//      blobs carry the CRCs a one-shard shard dir records in its manifest.
//      (Both kernel backends are covered because this whole binary re-runs
//      under CADRL_KERNELS=scalar as the cadrl_tests_scalar_kernels ctest
//      entry.)
//   2. zero-parse reload — LoadFromShardDir performs no full-model parse:
//      no ag::Tensor is ever allocated, and every byte lives in the file
//      mappings, which outlive the directory they were mapped from.
//   3. delta — recompiling after a localized change rewrites exactly the
//      changed shard, a delta reload remaps only that shard and inherits
//      every other mapping from the previous model, and an unchanged
//      recompile/poll is a complete no-op (same generation, no republish).
//   4. corruption — bit flips in a shard header, a payload (with
//      verify_payload), or the manifest are rejected, and a failed reload
//      leaves the previous snapshot serving.

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <system_error>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/cadrl.h"
#include "data/generator.h"
#include "eval/evaluator.h"
#include "infer/compiled_model.h"
#include "infer/precision.h"
#include "infer/shard_layout.h"
#include "util/alloc_stats.h"
#include "util/failpoint.h"
#include "util/io.h"

namespace cadrl {
namespace core {
namespace {

using infer::Precision;

// Small enough to train in test time, dim 24 so int8 rows are non-trivial.
CadrlOptions ShardTestOptions() {
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

// Tiny has ~130 entity rows; 16-row shards force a real multi-shard set
// with a ragged tail, so shard boundaries sit inside every gather.
constexpr int64_t kShardRows = 16;

void ExpectSameRecs(const std::vector<eval::Recommendation>& a,
                    const std::vector<eval::Recommendation>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].item, b[i].item) << "rank " << i;
    EXPECT_EQ(a[i].score, b[i].score) << "rank " << i;
    EXPECT_EQ(a[i].path.steps, b[i].path.steps) << "rank " << i;
  }
}

// In-place bit flip at `offset` of `path`, bypassing WriteFileAtomic (the
// point is to damage the file, not to write a well-formed one).
void FlipByteAt(const std::string& path, size_t offset) {
  std::string contents;
  ASSERT_TRUE(ReadFileRaw(path, &contents).ok());
  ASSERT_LT(offset, contents.size());
  contents[offset] = static_cast<char>(contents[offset] ^ 0x40);
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(contents.data(), static_cast<std::streamsize>(contents.size()));
  ASSERT_TRUE(out.good());
}

class ShardSnapshotTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    Failpoints::Instance().DisarmAll();
    dataset_ = new data::Dataset(
        data::MustGenerateDataset(data::SyntheticConfig::Tiny()));
    model_ = new CadrlRecommender(ShardTestOptions());
    model_->set_snapshot_precision(Precision::kF32);
    ASSERT_TRUE(model_->Fit(*dataset_).ok());
  }

  static void TearDownTestSuite() {
    delete model_;
    model_ = nullptr;
    delete dataset_;
    dataset_ = nullptr;
  }

  void TearDown() override {
    Failpoints::Instance().DisarmAll();
    // Every test leaves the shared model back on a fresh f32 heap arena.
    model_->set_snapshot_precision(Precision::kF32);
    model_->RepublishSnapshot();
  }

  // Actually fresh: a leftover directory from a previous run would turn
  // the first compile into a delta against stale shards (or leave flipped
  // bytes behind) and invalidate every generation/no-op assertion.
  static std::string FreshDir(const std::string& name) {
    const std::string dir = ::testing::TempDir() + "/shard_" + name;
    std::error_code ec;
    std::filesystem::remove_all(dir, ec);
    return dir;
  }

  static data::Dataset* dataset_;
  static CadrlRecommender* model_;
};

data::Dataset* ShardSnapshotTest::dataset_ = nullptr;
CadrlRecommender* ShardSnapshotTest::model_ = nullptr;

// ---------- 1. byte identity ----------

TEST_F(ShardSnapshotTest, MappedSnapshotIsByteIdenticalAtEveryPrecision) {
  for (const Precision p :
       {Precision::kF32, Precision::kF16, Precision::kInt8}) {
    SCOPED_TRACE(infer::PrecisionName(p));
    model_->set_snapshot_precision(p);
    model_->RepublishSnapshot();
    const auto heap = model_->CurrentSnapshot();
    ASSERT_FALSE(heap->mapped());

    // One encoder: with one shard covering every row, CompileToShardDir
    // writes exactly the heap snapshot's blobs.
    {
      const std::string one =
          FreshDir(std::string("one_shard_") + infer::PrecisionName(p));
      ASSERT_TRUE(model_->CompileSnapshotToDir(
                      one, heap->scoring().num_entities, nullptr)
                      .ok());
      std::shared_ptr<const infer::CompiledModel> loaded;
      ASSERT_TRUE(infer::LoadFromShardDir(one, {}, nullptr, &loaded).ok());
      ASSERT_EQ(heap->shard_infos().size(), 1u);
      ASSERT_EQ(loaded->shard_infos().size(), 1u);
      EXPECT_EQ(heap->shard_infos()[0].crc, loaded->shard_infos()[0].crc)
          << "entity blob";
      EXPECT_EQ(heap->meta_crc(), loaded->meta_crc()) << "meta blob";
      EXPECT_EQ(heap->arena_bytes().total(), loaded->arena_bytes().total());
    }

    // Heap snapshot answers first: per-user recs + paths and whole-dataset
    // eval metrics at two thread counts.
    std::vector<std::vector<eval::Recommendation>> heap_recs;
    std::vector<std::vector<eval::RecommendationPath>> heap_paths;
    for (int u = 0; u < 3; ++u) {
      const kg::EntityId user = dataset_->users[static_cast<size_t>(u)];
      heap_recs.push_back(model_->Recommend(user, 10));
      heap_paths.push_back(model_->FindPaths(user, 5));
    }
    const eval::EvalResult heap_t1 =
        eval::EvaluateRecommender(model_, *dataset_, 10, 0, /*threads=*/1);
    const eval::EvalResult heap_t3 =
        eval::EvaluateRecommender(model_, *dataset_, 10, 0, /*threads=*/3);

    const std::string dir =
        FreshDir(std::string("identity_") + infer::PrecisionName(p));
    infer::ShardWriteStats wstats;
    ASSERT_TRUE(model_->CompileSnapshotToDir(dir, kShardRows, &wstats).ok());
    EXPECT_GE(wstats.shards_total, 2) << "tiny must still split into shards";
    ASSERT_TRUE(model_->ReloadFromShardDir(dir).ok());
    const auto snap = model_->CurrentSnapshot();
    ASSERT_TRUE(snap->mapped());
    EXPECT_EQ(snap->precision(), p);

    for (int u = 0; u < 3; ++u) {
      const kg::EntityId user = dataset_->users[static_cast<size_t>(u)];
      ExpectSameRecs(heap_recs[static_cast<size_t>(u)],
                     model_->Recommend(user, 10));
      EXPECT_EQ(heap_paths[static_cast<size_t>(u)].size(),
                model_->FindPaths(user, 5).size());
      const auto paths = model_->FindPaths(user, 5);
      for (size_t i = 0; i < paths.size(); ++i) {
        EXPECT_EQ(paths[i].steps,
                  heap_paths[static_cast<size_t>(u)][i].steps);
      }
    }
    const eval::EvalResult map_t1 =
        eval::EvaluateRecommender(model_, *dataset_, 10, 0, /*threads=*/1);
    const eval::EvalResult map_t3 =
        eval::EvaluateRecommender(model_, *dataset_, 10, 0, /*threads=*/3);
    EXPECT_EQ(heap_t1.ndcg, map_t1.ndcg);
    EXPECT_EQ(heap_t1.recall, map_t1.recall);
    EXPECT_EQ(heap_t1.hit_rate, map_t1.hit_rate);
    EXPECT_EQ(heap_t1.precision, map_t1.precision);
    EXPECT_EQ(heap_t3.ndcg, map_t3.ndcg);
    EXPECT_EQ(heap_t3.hit_rate, map_t3.hit_rate);
    EXPECT_EQ(map_t1.ndcg, map_t3.ndcg) << "thread-count invariance";
  }
}

TEST_F(ShardSnapshotTest, BufferedFallbackIsByteIdentical) {
  const std::string dir = FreshDir("fallback");
  ASSERT_TRUE(model_->CompileSnapshotToDir(dir, kShardRows, nullptr).ok());

  const kg::EntityId user = dataset_->users[0];
  const auto heap_recs = model_->Recommend(user, 10);

  // Force every mapping onto the pread fallback path.
  Failpoints::Instance().Arm("mmap/map", /*count=*/-1);
  std::shared_ptr<const infer::CompiledModel> buffered;
  ASSERT_TRUE(infer::LoadFromShardDir(dir, {}, nullptr, &buffered).ok());
  Failpoints::Instance().Disarm("mmap/map");
  EXPECT_TRUE(buffered->shard_stats().fallback_buffered);

  ASSERT_TRUE(model_->ReloadFromShardDir(dir).ok());  // mapped, for contrast
  ExpectSameRecs(heap_recs, model_->Recommend(user, 10));

  // The buffered model itself scores identically: same entity rows.
  const auto mapped = model_->CurrentSnapshot();
  EXPECT_FALSE(mapped->shard_stats().fallback_buffered);
  std::vector<float> a(static_cast<size_t>(mapped->scoring().dim));
  std::vector<float> b(a.size());
  for (const int64_t row : {int64_t{0}, kShardRows, kShardRows + 1}) {
    infer::MaterializeRow(mapped->scoring().entities, mapped->precision(),
                          mapped->scoring().dim, row, a.data());
    infer::MaterializeRow(buffered->scoring().entities,
                          buffered->precision(), buffered->scoring().dim, row,
                          b.data());
    EXPECT_EQ(a, b) << "row " << row;
  }
}

// ---------- 2. zero-parse reload ----------

TEST_F(ShardSnapshotTest, ReloadIsZeroParse) {
  const std::string dir = FreshDir("zeroparse");
  ASSERT_TRUE(model_->CompileSnapshotToDir(dir, kShardRows, nullptr).ok());

  // The reload must never touch the tensor graph — a contiguous checkpoint
  // parse (ReloadFromCheckpoint) rebuilds policy tensors; this path may
  // not.
  util::TensorAllocScope scope;
  ASSERT_TRUE(model_->ReloadFromShardDir(dir).ok());
  EXPECT_EQ(scope.delta(), 0) << "shard reload allocated ag::Tensors";

  const auto snap = model_->CurrentSnapshot();
  ASSERT_TRUE(snap->mapped());
  // No heap backing: every parameter byte lives in the mappings.
  EXPECT_FALSE(snap->shard_stats().fallback_buffered);
  EXPECT_GT(snap->arena_bytes().total(), 0u) << "logical accounting intact";
  EXPECT_GT(snap->shard_stats().mapped_bytes, 0u);
  EXPECT_GE(snap->shard_stats().shard_count, 2);
  EXPECT_EQ(snap->shard_stats().shards_remapped,
            snap->shard_stats().shard_count)
      << "cold load maps every shard";

  const eval::Recommender::ShardServingStatus status = model_->ShardStatus();
  EXPECT_EQ(status.shard_count, snap->shard_stats().shard_count);
  EXPECT_GT(status.mapped_bytes, 0u);
  EXPECT_EQ(status.shard_generations.size(),
            static_cast<size_t>(status.shard_count));
}

// POSIX keeps a mapping's pages valid after its file is unlinked, so an
// acquired mapped snapshot answers unchanged after its whole directory is
// removed (the asan/ubsan job runs this against use-after-unmap).
TEST_F(ShardSnapshotTest, MappedSnapshotOutlivesItsDirectory) {
  const std::string dir = FreshDir("outlives");
  ASSERT_TRUE(model_->CompileSnapshotToDir(dir, kShardRows, nullptr).ok());
  ASSERT_TRUE(model_->ReloadFromShardDir(dir).ok());
  const auto snap = model_->CurrentSnapshot();
  ASSERT_TRUE(snap->mapped());
  ASSERT_FALSE(snap->shard_stats().fallback_buffered)
      << "a buffered read would not exercise the mappings";

  std::vector<std::vector<eval::Recommendation>> recs;
  std::vector<std::vector<eval::RecommendationPath>> paths;
  for (int u = 0; u < 3; ++u) {
    const kg::EntityId user = dataset_->users[static_cast<size_t>(u)];
    recs.push_back(model_->Recommend(user, 10));
    paths.push_back(model_->FindPaths(user, 5));
  }

  std::filesystem::remove_all(dir);
  ASSERT_FALSE(std::filesystem::exists(dir));

  EXPECT_EQ(model_->CurrentSnapshot(), snap);
  for (int u = 0; u < 3; ++u) {
    const kg::EntityId user = dataset_->users[static_cast<size_t>(u)];
    ExpectSameRecs(recs[static_cast<size_t>(u)], model_->Recommend(user, 10));
    const auto after = model_->FindPaths(user, 5);
    ASSERT_EQ(after.size(), paths[static_cast<size_t>(u)].size());
    for (size_t i = 0; i < after.size(); ++i) {
      EXPECT_EQ(after[i].steps, paths[static_cast<size_t>(u)][i].steps);
    }
  }
}

// ---------- 3. delta ----------

TEST_F(ShardSnapshotTest, DeltaCompileRewritesOnlyTheChangedShard) {
  const std::string dir = FreshDir("delta");
  ASSERT_TRUE(model_->CompileSnapshotToDir(dir, kShardRows, nullptr).ok());
  ASSERT_TRUE(model_->ReloadFromShardDir(dir).ok());
  const auto before = model_->CurrentSnapshot();
  ASSERT_TRUE(before->mapped());
  const int total = before->shard_stats().shard_count;
  ASSERT_GE(total, 3);

  // Perturb one entity row that lives in shard 1, then recompile the same
  // view into the same directory.
  EmbeddingStore perturbed = *model_->store();
  const kg::EntityId victim = static_cast<kg::EntityId>(kShardRows + 3);
  std::vector<float> row(perturbed.Entity(victim).begin(),
                         perturbed.Entity(victim).end());
  row[0] += 0.5f;
  perturbed.SetEntityRow(victim, row);

  infer::ShardWriteOptions wopts;
  wopts.shard_rows = kShardRows;
  infer::ShardWriteStats wstats;
  ASSERT_TRUE(infer::CompileToShardDir(
                  perturbed.View(), before->policy(), before->score_scale(),
                  infer::CompiledModelOptions{before->precision()}, dir,
                  wopts, &wstats)
                  .ok());
  EXPECT_EQ(wstats.shards_total, total);
  EXPECT_EQ(wstats.shards_written, 1) << "exactly the victim's shard";
  EXPECT_EQ(wstats.shards_reused, total - 1);
  EXPECT_FALSE(wstats.meta_written) << "policy/meta unchanged";
  EXPECT_TRUE(wstats.manifest_written);

  // The delta reload remaps only that shard and inherits the rest.
  ASSERT_TRUE(model_->ReloadFromShardDir(dir).ok());
  const auto after = model_->CurrentSnapshot();
  ASSERT_NE(after, before) << "a changed dir must republish";
  EXPECT_EQ(after->shard_stats().shards_remapped, 1);
  EXPECT_EQ(after->shard_stats().shards_reused, total - 1);
  EXPECT_EQ(after->shard_stats().generation,
            before->shard_stats().generation + 1);
  int remapped = 0;
  for (const infer::ShardSetInfo& info : after->shard_infos()) {
    remapped += info.remapped ? 1 : 0;
  }
  EXPECT_EQ(remapped, 1);

  // The perturbation (and nothing else) shows up in the mapped rows.
  const int dim = after->scoring().dim;
  std::vector<float> a(static_cast<size_t>(dim)), b(a.size());
  infer::MaterializeRow(before->scoring().entities, before->precision(), dim,
                        victim, a.data());
  infer::MaterializeRow(after->scoring().entities, after->precision(), dim,
                        victim, b.data());
  EXPECT_NE(a, b) << "victim row changed";
  infer::MaterializeRow(before->scoring().entities, before->precision(), dim,
                        victim + 1, a.data());
  infer::MaterializeRow(after->scoring().entities, after->precision(), dim,
                        victim + 1, b.data());
  EXPECT_EQ(a, b) << "neighbor row (same rewritten shard) is unchanged";
}

TEST_F(ShardSnapshotTest, UnchangedRecompileAndPollAreNoOps) {
  const std::string dir = FreshDir("noop");
  infer::ShardWriteStats first;
  ASSERT_TRUE(model_->CompileSnapshotToDir(dir, kShardRows, &first).ok());
  EXPECT_TRUE(first.manifest_written);

  infer::ShardWriteStats second;
  ASSERT_TRUE(model_->CompileSnapshotToDir(dir, kShardRows, &second).ok());
  EXPECT_EQ(second.shards_written, 0);
  EXPECT_EQ(second.shards_reused, second.shards_total);
  EXPECT_FALSE(second.meta_written);
  EXPECT_FALSE(second.manifest_written) << "nothing changed, nothing moved";
  EXPECT_EQ(second.generation, first.generation);
  EXPECT_EQ(second.bytes_written, 0u);

  ASSERT_TRUE(model_->ReloadFromShardDir(dir).ok());
  const auto published = model_->CurrentSnapshot();
  ASSERT_TRUE(published->mapped());
  // Polling the unchanged directory republishes nothing: the serving
  // snapshot pointer does not move.
  ASSERT_TRUE(model_->ReloadFromShardDir(dir).ok());
  EXPECT_EQ(model_->CurrentSnapshot(), published);
}

// ---------- 4. corruption ----------

TEST_F(ShardSnapshotTest, CorruptionIsRejectedAndOldSnapshotKeepsServing) {
  const std::string dir = FreshDir("corrupt");
  ASSERT_TRUE(model_->CompileSnapshotToDir(dir, kShardRows, nullptr).ok());
  ASSERT_TRUE(model_->ReloadFromShardDir(dir).ok());
  const auto serving = model_->CurrentSnapshot();

  // A flipped bit inside the header/section table fails the header CRC on
  // any load.
  {
    const std::string dmg = FreshDir("corrupt_header");
    ASSERT_TRUE(model_->CompileSnapshotToDir(dmg, kShardRows, nullptr).ok());
    FlipByteAt(dmg + "/shard-00000.cadrl", offsetof(infer::ShardHeader, dim));
    std::shared_ptr<const infer::CompiledModel> out;
    EXPECT_FALSE(infer::LoadFromShardDir(dmg, {}, nullptr, &out).ok());
  }

  // A flipped payload byte is caught by the full-payload verify pass.
  {
    const std::string dmg = FreshDir("corrupt_payload");
    ASSERT_TRUE(model_->CompileSnapshotToDir(dmg, kShardRows, nullptr).ok());
    FlipByteAt(dmg + "/shard-00000.cadrl", infer::kShardSectionAlign + 7);
    infer::ShardLoadOptions verify;
    verify.verify_payload = true;
    std::shared_ptr<const infer::CompiledModel> out;
    EXPECT_FALSE(infer::LoadFromShardDir(dmg, verify, nullptr, &out).ok());
  }

  // A damaged manifest fails outright.
  {
    const std::string dmg = FreshDir("corrupt_manifest");
    ASSERT_TRUE(model_->CompileSnapshotToDir(dmg, kShardRows, nullptr).ok());
    FlipByteAt(dmg + "/" + infer::kShardManifestName, 3);
    std::shared_ptr<const infer::CompiledModel> out;
    EXPECT_FALSE(infer::LoadFromShardDir(dmg, {}, nullptr, &out).ok());
  }

  // A missing shard file fails coverage validation.
  {
    const std::string dmg = FreshDir("corrupt_missing");
    ASSERT_TRUE(model_->CompileSnapshotToDir(dmg, kShardRows, nullptr).ok());
    ASSERT_EQ(std::remove((dmg + "/shard-00001.cadrl").c_str()), 0);
    std::shared_ptr<const infer::CompiledModel> out;
    EXPECT_FALSE(infer::LoadFromShardDir(dmg, {}, nullptr, &out).ok());
  }

  // Well-formed manifests (valid footer) whose fields the loader must not
  // trust: a shard count the entity range does not imply, and negative
  // dims that would become huge sizes.
  const std::pair<std::string, std::string> crafted[] = {
      {"shards ", "shards 1000000000000"},
      {"num_categories ", "num_categories -1"},
      {"policy ", "policy 24 -24 1 1"},
      {"lstm lstm_c ", "lstm lstm_c -48"},
      {"linear head1_e ", "linear head1_e -1 24 1"},
  };
  for (const auto& [key, line] : crafted) {
    SCOPED_TRACE(line);
    const std::string dmg = FreshDir("corrupt_crafted");
    ASSERT_TRUE(model_->CompileSnapshotToDir(dmg, kShardRows, nullptr).ok());
    const std::string path = dmg + "/" + infer::kShardManifestName;
    std::string manifest;
    ASSERT_TRUE(ReadFileVerified(path, &manifest).ok());
    const size_t at = manifest.find("\n" + key);
    ASSERT_NE(at, std::string::npos);
    const size_t end = manifest.find('\n', at + 1);
    manifest.replace(at + 1, end - at - 1, line);
    ASSERT_TRUE(WriteFileAtomic(path, manifest).ok());
    const Status status = model_->ReloadFromShardDir(dmg);
    EXPECT_TRUE(status.IsCorruption()) << status.ToString();
    EXPECT_EQ(model_->CurrentSnapshot(), serving);
  }

  // The model-level reload of a bad dir errors and leaves the serving
  // snapshot untouched. The manifest is corrupted (it is re-read and
  // CRC-verified on every poll) rather than a shard file: a shard whose
  // manifest entry is unchanged is served from the previous mapping, and
  // mutating a live-mapped file in place is undefined behaviour anyway.
  FlipByteAt(dir + "/" + infer::kShardManifestName, 3);
  EXPECT_FALSE(model_->ReloadFromShardDir(dir).ok());
  EXPECT_EQ(model_->CurrentSnapshot(), serving);
}

}  // namespace
}  // namespace core
}  // namespace cadrl
