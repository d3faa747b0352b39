// Golden digests of the beam search: every Tiny-world user's Recommend(10)
// and FindPaths(100), hashed over items, score bits and explanation paths,
// pinned for each search shape the beam code branches on. The digests were
// recorded before the beam moved to parent-shared advances and flat scratch
// (DESIGN.md §12), so any reordering of a float sum, a tie-break or a path
// step in that code fails here even when compiled and tape still agree
// with each other.
//
// Each f32 shape is also checked compiled == tape. The quantized snapshots
// have no tape counterpart (the tape computes in f32), so f16 and int8 are
// pinned by their digests alone.

#include <chrono>
#include <cstdint>
#include <cstring>
#include <future>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "core/cadrl.h"
#include "data/generator.h"
#include "infer/precision.h"
#include "serve/recommend_service.h"

namespace cadrl {
namespace core {
namespace {

// FNV-1a over the fields that make an answer: any changed bit changes it.
class Digest {
 public:
  void Add(uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xffu;
      h_ *= 0x100000001b3ULL;
    }
  }
  void AddDouble(double d) {
    uint64_t bits;
    std::memcpy(&bits, &d, sizeof bits);
    Add(bits);
  }
  void AddPath(const eval::RecommendationPath& path) {
    Add(static_cast<uint64_t>(path.user));
    Add(path.steps.size());
    for (const eval::PathStep& s : path.steps) {
      Add(static_cast<uint64_t>(s.relation));
      Add(static_cast<uint64_t>(s.entity));
    }
  }
  void AddRecs(const std::vector<eval::Recommendation>& recs) {
    Add(recs.size());
    for (const eval::Recommendation& r : recs) {
      Add(static_cast<uint64_t>(r.item));
      AddDouble(r.score);
      AddPath(r.path);
    }
  }
  uint64_t value() const { return h_; }

 private:
  uint64_t h_ = 0xcbf29ce484222325ULL;
};

struct Answers {
  uint64_t recommend = 0;   // Recommend(user, 10) over every user
  uint64_t find_paths = 0;  // FindPaths(user, 100) over every user
};

Answers DigestAll(CadrlRecommender& model, const data::Dataset& dataset) {
  Digest recs, paths;
  for (kg::EntityId user : dataset.users) {
    recs.Add(static_cast<uint64_t>(user));
    recs.AddRecs(model.Recommend(user, 10));
    paths.Add(static_cast<uint64_t>(user));
    const auto found = model.FindPaths(user, 100);
    paths.Add(found.size());
    for (const auto& p : found) paths.AddPath(p);
  }
  return {recs.value(), paths.value()};
}

CadrlOptions BaseOptions() {
  CadrlOptions o;
  o.transe.dim = 12;
  o.transe.epochs = 4;
  o.cggnn.ggnn_layers = 1;
  o.cggnn.cgan_layers = 1;
  o.cggnn.epochs = 2;
  o.cggnn.pairs_per_epoch = 32;
  o.policy_hidden = 24;
  o.episodes_per_user = 2;
  o.seed = 29;
  return o;  // max_path_length, beam_width, beam_expand: the defaults
}

class BeamGoldenTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    dataset_ = new data::Dataset(
        data::MustGenerateDataset(data::SyntheticConfig::Tiny()));
  }
  static void TearDownTestSuite() {
    delete dataset_;
    dataset_ = nullptr;
  }

  // Fits a model with `options` serving f32 snapshots (whatever
  // CADRL_PRECISION says: the digests below are per precision).
  static std::unique_ptr<CadrlRecommender> Fit(const CadrlOptions& options) {
    auto model = std::make_unique<CadrlRecommender>(options);
    model->set_snapshot_precision(infer::Precision::kF32);
    EXPECT_TRUE(model->Fit(*dataset_).ok());
    return model;
  }

  // Compiled and tape answers must both hash to `golden`.
  static void ExpectGolden(CadrlRecommender& model, const Answers& golden) {
    model.set_use_compiled_inference(true);
    const Answers compiled = DigestAll(model, *dataset_);
    model.set_use_compiled_inference(false);
    const Answers tape = DigestAll(model, *dataset_);
    model.set_use_compiled_inference(true);
    EXPECT_EQ(compiled.recommend, tape.recommend);
    EXPECT_EQ(compiled.find_paths, tape.find_paths);
    EXPECT_EQ(compiled.recommend, golden.recommend);
    EXPECT_EQ(compiled.find_paths, golden.find_paths);
  }

  static data::Dataset* dataset_;
};

data::Dataset* BeamGoldenTest::dataset_ = nullptr;

constexpr Answers kDefault = {0x4cff3ef438c9e5ffULL,
                              0xf7b841b2e68dcbdcULL};
constexpr Answers kDefaultF16 = {0x3f193ab597df2a73ULL,
                                 0xf7b841b2e68dcbdcULL};
constexpr Answers kDefaultInt8 = {0x1fcad1082135dd22ULL,
                                  0x791dfac9747279a0ULL};
constexpr Answers kOneHop = {0x990dec340c95f325ULL,
                             0x990dec340c95f325ULL};
constexpr Answers kTwoHops = {0xb92aa299af15807cULL,
                              0xd6a02bb82686ff48ULL};
constexpr Answers kSingleAgent = {0x1581e62efbc91cceULL,
                                  0x7362ca621babef9dULL};
constexpr Answers kNoSharedHistory = {0xbf7f4ff89ca38ee6ULL,
                                      0xc609c7e02dee8090ULL};
constexpr Answers kNarrowBeam = {0x22b70e7c6cca2bd5ULL,
                                 0x2b05741fcbefcc4fULL};

// The default shape (L = 6) at every snapshot precision, and four-worker
// serving over it.
TEST_F(BeamGoldenTest, DefaultShapeAtEveryPrecisionAndServed) {
  const auto model = Fit(BaseOptions());
  ExpectGolden(*model, kDefault);

  model->set_snapshot_precision(infer::Precision::kF16);
  model->RepublishSnapshot();
  const Answers f16 = DigestAll(*model, *dataset_);
  EXPECT_EQ(f16.recommend, kDefaultF16.recommend);
  EXPECT_EQ(f16.find_paths, kDefaultF16.find_paths);

  model->set_snapshot_precision(infer::Precision::kInt8);
  model->RepublishSnapshot();
  const Answers int8 = DigestAll(*model, *dataset_);
  EXPECT_EQ(int8.recommend, kDefaultInt8.recommend);
  EXPECT_EQ(int8.find_paths, kDefaultInt8.find_paths);

  // Serving from four concurrent workers must reproduce the direct f32
  // answers.
  model->set_snapshot_precision(infer::Precision::kF32);
  model->RepublishSnapshot();
  serve::ServeOptions options;
  options.threads = 4;
  options.queue_capacity = 256;
  options.top_k = 10;
  serve::RecommendService service(model.get(), *dataset_, options);
  ASSERT_TRUE(service.Start().ok());
  std::vector<std::future<serve::ServeResponse>> futures;
  for (kg::EntityId user : dataset_->users) {
    serve::ServeRequest req;
    req.user = user;
    req.k = 10;
    req.timeout = std::chrono::microseconds{-1};
    futures.push_back(service.Submit(req));
  }
  Digest served;
  for (size_t i = 0; i < futures.size(); ++i) {
    const serve::ServeResponse resp = futures[i].get();
    ASSERT_TRUE(resp.status.ok()) << resp.status.ToString();
    ASSERT_EQ(resp.level, serve::DegradationLevel::kFull);
    served.Add(static_cast<uint64_t>(dataset_->users[i]));
    served.AddRecs(resp.recs);
  }
  service.Stop();
  EXPECT_EQ(served.value(), kDefault.recommend);
}

// L = 1: the search ends after the first expansion, so no state is ever
// advanced.
TEST_F(BeamGoldenTest, OneHop) {
  CadrlOptions o = BaseOptions();
  o.max_path_length = 1;
  ExpectGolden(*Fit(o), kOneHop);
}

TEST_F(BeamGoldenTest, TwoHops) {
  CadrlOptions o = BaseOptions();
  o.max_path_length = 2;
  ExpectGolden(*Fit(o), kTwoHops);
}

TEST_F(BeamGoldenTest, SingleAgent) {
  CadrlOptions o = BaseOptions();
  o.use_dual_agent = false;
  ExpectGolden(*Fit(o), kSingleAgent);
}

TEST_F(BeamGoldenTest, NoSharedHistory) {
  CadrlOptions o = BaseOptions();
  o.share_history = false;
  ExpectGolden(*Fit(o), kNoSharedHistory);
}

// beam_width < beam_expand: one parent's children alone overflow the beam.
TEST_F(BeamGoldenTest, BeamNarrowerThanExpansion) {
  CadrlOptions o = BaseOptions();
  o.beam_width = 3;
  o.beam_expand = 5;
  ExpectGolden(*Fit(o), kNarrowBeam);
}

}  // namespace
}  // namespace core
}  // namespace cadrl
