// Stress/race harness: many threads hammer Recommend/FindPaths on ONE
// fitted CadrlRecommender, and a Fit whose rollout tapes are built on pool
// threads (and freed by the main thread's Backward) runs beside a
// single-threaded one; the results must match the sequential baseline
// exactly. Built as its own binary (ctest labels "stress"/"tsan") so the
// ThreadSanitizer job can run just this target: any hidden mutable state —
// a lazy cache, a shared scratch buffer, an unguarded counter, a tape node
// shared across threads — shows up either as a TSan report or as a result
// mismatch.

#include <atomic>
#include <bit>
#include <cstdint>
#include <future>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/cadrl.h"
#include "data/generator.h"
#include "eval/evaluator.h"
#include "serve/recommend_service.h"
#include "util/failpoint.h"

namespace cadrl {
namespace {

core::CadrlOptions StressOptions() {
  core::CadrlOptions o;
  o.transe.dim = 8;
  o.transe.epochs = 4;
  o.use_cggnn = false;
  o.episodes_per_user = 2;
  o.policy_hidden = 16;
  o.seed = 77;
  return o;
}

class CadrlStressTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    dataset_ = new data::Dataset();
    ASSERT_TRUE(
        data::GenerateDataset(data::SyntheticConfig::Tiny(), dataset_).ok());
    model_ = new core::CadrlRecommender(StressOptions());
    ASSERT_TRUE(model_->Fit(*dataset_).ok());
  }

  static void TearDownTestSuite() {
    delete model_;
    model_ = nullptr;
    delete dataset_;
    dataset_ = nullptr;
  }

  static data::Dataset* dataset_;
  static core::CadrlRecommender* model_;
};

data::Dataset* CadrlStressTest::dataset_ = nullptr;
core::CadrlRecommender* CadrlStressTest::model_ = nullptr;

void ExpectSameRecommendations(
    const std::vector<eval::Recommendation>& expected,
    const std::vector<eval::Recommendation>& actual) {
  ASSERT_EQ(expected.size(), actual.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(expected[i].item, actual[i].item);
    EXPECT_EQ(expected[i].score, actual[i].score);
    EXPECT_EQ(expected[i].path.steps, actual[i].path.steps);
  }
}

TEST_F(CadrlStressTest, ConcurrentRecommendMatchesSequential) {
  ASSERT_TRUE(model_->SupportsConcurrentInference());
  // Sequential baseline per user.
  std::vector<std::vector<eval::Recommendation>> baseline;
  baseline.reserve(dataset_->users.size());
  for (kg::EntityId user : dataset_->users) {
    baseline.push_back(model_->Recommend(user, 10));
  }

  constexpr int kThreads = 8;
  constexpr int kRounds = 4;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  // Every thread walks all users from a different starting offset, so the
  // same user is frequently being recommended by several threads at once.
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int round = 0; round < kRounds; ++round) {
        for (size_t u = 0; u < dataset_->users.size(); ++u) {
          const size_t idx =
              (u + static_cast<size_t>(t) * 3) % dataset_->users.size();
          const auto recs = model_->Recommend(dataset_->users[idx], 10);
          ExpectSameRecommendations(baseline[idx], recs);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
}

TEST_F(CadrlStressTest, ConcurrentFindPathsMatchesSequential) {
  std::vector<std::vector<eval::RecommendationPath>> baseline;
  baseline.reserve(dataset_->users.size());
  for (kg::EntityId user : dataset_->users) {
    baseline.push_back(model_->FindPaths(user, 5));
  }

  constexpr int kThreads = 6;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (size_t u = 0; u < dataset_->users.size(); ++u) {
        const size_t idx =
            (u + static_cast<size_t>(t)) % dataset_->users.size();
        const auto paths = model_->FindPaths(dataset_->users[idx], 5);
        ASSERT_EQ(baseline[idx].size(), paths.size());
        for (size_t p = 0; p < paths.size(); ++p) {
          EXPECT_EQ(baseline[idx][p].steps, paths[p].steps);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
}

// Fault-free serving under concurrent clients: every response is a kFull
// answer identical to the direct Recommend baseline. Runs under the same
// TSan label as the rest of this binary, so races inside RecommendService
// (queue, cache, breakers, stats) surface here.
TEST_F(CadrlStressTest, RecommendServiceMatchesDirectInference) {
  serve::ServeOptions options;
  options.threads = 4;
  options.queue_capacity = 128;
  options.top_k = 10;
  serve::RecommendService service(model_, *dataset_, options);
  ASSERT_TRUE(service.Start().ok());

  std::vector<std::vector<eval::Recommendation>> baseline;
  baseline.reserve(dataset_->users.size());
  for (kg::EntityId user : dataset_->users) {
    baseline.push_back(model_->Recommend(user, 10));
  }

  constexpr int kClients = 4;
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int t = 0; t < kClients; ++t) {
    clients.emplace_back([&, t] {
      std::vector<std::future<serve::ServeResponse>> futures;
      std::vector<size_t> indices;
      for (size_t u = 0; u < dataset_->users.size(); ++u) {
        const size_t idx =
            (u + static_cast<size_t>(t) * 5) % dataset_->users.size();
        serve::ServeRequest req;
        req.user = dataset_->users[idx];
        req.k = 10;
        req.timeout = std::chrono::microseconds{-1};  // no deadline
        futures.push_back(service.Submit(req));
        indices.push_back(idx);
      }
      for (size_t i = 0; i < futures.size(); ++i) {
        const serve::ServeResponse resp = futures[i].get();
        ASSERT_TRUE(resp.status.ok()) << resp.status.ToString();
        EXPECT_EQ(resp.level, serve::DegradationLevel::kFull);
        ExpectSameRecommendations(baseline[indices[i]], resp.recs);
      }
    });
  }
  for (std::thread& t : clients) t.join();
  service.Stop();

  const serve::RecommendService::Stats stats = service.stats();
  EXPECT_EQ(stats.full, stats.requests);
  EXPECT_EQ(stats.load_shed, 0);
}

TEST_F(CadrlStressTest, ParallelEvaluationMatchesSequential) {
  const eval::EvalResult sequential =
      eval::EvaluateRecommender(model_, *dataset_, 10, 0, /*threads=*/1);
  const eval::EvalResult parallel =
      eval::EvaluateRecommender(model_, *dataset_, 10, 0, /*threads=*/4);
  EXPECT_EQ(sequential.users_evaluated, parallel.users_evaluated);
  EXPECT_EQ(sequential.ndcg, parallel.ndcg);
  EXPECT_EQ(sequential.recall, parallel.recall);
  EXPECT_EQ(sequential.hit_rate, parallel.hit_rate);
  EXPECT_EQ(sequential.precision, parallel.precision);
}

// Training with rollouts on pool threads: every episode's tape is built on
// a worker and freed by the main thread's Backward, and the CGGNN tape
// alongside. Results depend on rollout_batch but are bit-identical for
// every thread count.
TEST_F(CadrlStressTest, ParallelFitMatchesSequential) {
  core::CadrlOptions o = StressOptions();
  o.use_cggnn = true;
  o.cggnn.epochs = 2;
  o.cggnn.pairs_per_epoch = 32;
  o.rollout_batch = 4;
  o.threads = 1;
  core::CadrlRecommender sequential(o);
  ASSERT_TRUE(sequential.Fit(*dataset_).ok());
  o.threads = 4;
  core::CadrlRecommender parallel(o);
  ASSERT_TRUE(parallel.Fit(*dataset_).ok());

  const std::vector<float>& want = sequential.epoch_rewards();
  const std::vector<float>& got = parallel.epoch_rewards();
  ASSERT_FALSE(want.empty());
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(std::bit_cast<uint32_t>(got[i]),
              std::bit_cast<uint32_t>(want[i]))
        << "epoch " << i;
  }
}

// The failpoint registry answers an unarmed Hit from one atomic load,
// without its lock. One thread arms and disarms while three threads hit:
// under ThreadSanitizer this checks that the lock-free read of the arming
// count is race-free; in every build each arming is seen by the hitters and
// nothing fires once the point is disarmed.
TEST(FailpointStressTest, ArmDisarmWhileThreeThreadsHit) {
  Failpoints& fp = Failpoints::Instance();
  fp.DisarmAll();
  std::atomic<bool> stop{false};
  std::atomic<int64_t> fired{0};
  std::vector<std::thread> hitters;
  for (int t = 0; t < 3; ++t) {
    hitters.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        if (fp.Hit("stress/churn")) fired.fetch_add(1);
      }
    });
  }
  constexpr int kRounds = 200;
  for (int round = 0; round < kRounds; ++round) {
    const int64_t before = fired.load();
    fp.Arm("stress/churn", /*count=*/-1);
    while (fired.load() == before) std::this_thread::yield();
    fp.Disarm("stress/churn");
  }
  stop.store(true);
  for (std::thread& t : hitters) t.join();
  EXPECT_GE(fired.load(), kRounds);
  EXPECT_FALSE(fp.Hit("stress/churn"));
  EXPECT_EQ(fp.fire_count("stress/churn"), 0);
}

}  // namespace
}  // namespace cadrl
