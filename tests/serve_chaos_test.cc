// Chaos harness for the serving layer (ctest labels "chaos"/"tsan"): arms
// probabilistic fault + latency injection on the scoring and path-finding
// failpoints, hammers one RecommendService from >= 4 concurrent client
// threads, and asserts the robustness contract of DESIGN.md §11:
//
//   1. no crash, no hang — every submitted request resolves to a terminal
//      answer within its deadline plus a bounded grace period;
//   2. degradation decisions are byte-deterministic for a fixed seed: with
//      the breakers disabled, request id -> (level, status, attempts, items,
//      scores) is identical across independent runs regardless of thread
//      interleaving;
//   3. circuit-breaker transitions match a golden trace when driven by a
//      manual clock.
//
// Built as its own binary so the ThreadSanitizer job can run exactly this
// workload (`ctest -L tsan`); any unguarded shared state in the service
// shows up as a TSan report or a determinism mismatch.

#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <future>
#include <map>
#include <memory>
#include <string>
#include <system_error>
#include <thread>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "core/cadrl.h"
#include "data/generator.h"
#include "infer/compiled_model.h"
#include "infer/shard_layout.h"
#include "serve/recommend_service.h"
#include "util/failpoint.h"

namespace cadrl {
namespace {

using serve::CircuitBreaker;
using serve::DegradationLevel;
using serve::RecommendService;
using serve::ServeOptions;
using serve::ServeRequest;
using serve::ServeResponse;

constexpr auto kNoDeadline = std::chrono::microseconds{-1};

core::CadrlOptions ChaosModelOptions() {
  core::CadrlOptions o;
  o.transe.dim = 8;
  o.transe.epochs = 4;
  o.use_cggnn = false;
  o.episodes_per_user = 2;
  o.policy_hidden = 16;
  o.seed = 77;
  return o;
}

class ServeChaosTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    dataset_ = new data::Dataset();
    ASSERT_TRUE(
        data::GenerateDataset(data::SyntheticConfig::Tiny(), dataset_).ok());
    model_ = new core::CadrlRecommender(ChaosModelOptions());
    ASSERT_TRUE(model_->Fit(*dataset_).ok());
  }

  static void TearDownTestSuite() {
    delete model_;
    model_ = nullptr;
    delete dataset_;
    dataset_ = nullptr;
  }

  void SetUp() override { Failpoints::Instance().DisarmAll(); }
  void TearDown() override { Failpoints::Instance().DisarmAll(); }

  static data::Dataset* dataset_;
  static core::CadrlRecommender* model_;
};

data::Dataset* ServeChaosTest::dataset_ = nullptr;
core::CadrlRecommender* ServeChaosTest::model_ = nullptr;

// --- 1. Liveness under chaos -------------------------------------------

TEST_F(ServeChaosTest, EveryRequestResolvesUnderFaultsAndLatency) {
  core::CadrlRecommender* model = model_;
  const data::Dataset& dataset = *dataset_;
  // 10% injected faults on both inference failpoints plus 30% latency
  // injection on scoring — the ISSUE's acceptance workload.
  Failpoints::Instance().ArmWithProbability("cadrl/score", 0.1, /*seed=*/17);
  Failpoints::Instance().ArmWithProbability("cadrl/find-paths", 0.1,
                                            /*seed=*/18);
  Failpoints::Instance().ArmLatency(
      "cadrl/score", std::chrono::microseconds{200}, /*p=*/0.3, /*seed=*/19);

  ServeOptions options;
  options.threads = 4;
  options.queue_capacity = 256;  // liveness test: no shedding wanted
  options.max_attempts = 3;
  options.backoff_base = std::chrono::microseconds{100};
  options.default_timeout = std::chrono::milliseconds{500};
  options.breaker_failure_threshold = 4;
  options.breaker_cooldown = std::chrono::milliseconds{20};
  RecommendService service(model, dataset, options);
  ASSERT_TRUE(service.Start().ok());

  constexpr int kClients = 4;
  constexpr int kRequestsPerClient = 24;
  std::vector<std::vector<std::future<ServeResponse>>> futures(kClients);
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      futures[c].reserve(kRequestsPerClient);
      for (int i = 0; i < kRequestsPerClient; ++i) {
        ServeRequest req;
        req.id = static_cast<uint64_t>(c) * 1000 + static_cast<uint64_t>(i) +
                 1;
        req.user =
            dataset.users[(static_cast<size_t>(c) * 7 + i) %
                          dataset.users.size()];
        req.k = 5;
        futures[c].push_back(service.Submit(req));
        // Path finding rides the same chaos: the deadline-aware FindPaths
        // must return a terminal status, never crash or hang.
        if (i % 6 == 0) {
          std::vector<eval::RecommendationPath> paths;
          const Status s = model->FindPaths(
              req.user, 3,
              RequestContext::WithTimeout(std::chrono::milliseconds{500}),
              &paths);
          EXPECT_TRUE(s.ok() || s.IsInternal() || s.IsDeadlineExceeded())
              << s.ToString();
        }
      }
    });
  }
  for (std::thread& t : clients) t.join();

  // Deadline (500ms) + generous grace for queueing/retries on a loaded CI
  // machine. wait_for instead of get(): a hang must fail the test, not
  // wedge it.
  const auto grace = std::chrono::seconds{30};
  for (auto& per_client : futures) {
    for (auto& f : per_client) {
      ASSERT_EQ(f.wait_for(grace), std::future_status::ready)
          << "request did not resolve within deadline + grace";
      const ServeResponse resp = f.get();
      // Terminal answer: a valid user never gets kFailed, degraded answers
      // still carry recommendations.
      EXPECT_NE(resp.level, DegradationLevel::kFailed);
      EXPECT_FALSE(resp.recs.empty());
      EXPECT_TRUE(resp.status.ok() || resp.status.IsResourceExhausted())
          << resp.status.ToString();
      EXPECT_GE(resp.attempts, 0);
      EXPECT_LE(resp.attempts, options.max_attempts);
    }
  }
  service.Stop();
  const RecommendService::Stats stats = service.stats();
  EXPECT_EQ(stats.requests, kClients * kRequestsPerClient);
  EXPECT_EQ(stats.full + stats.cached + stats.popularity,
            stats.requests);  // nobody failed
}

// --- 2. Byte-deterministic degradation decisions -----------------------

struct DecisionKey {
  int level;
  int status_code;
  int primary_code;
  int attempts;
  std::vector<kg::EntityId> items;
  std::vector<double> scores;

  bool operator==(const DecisionKey& other) const {
    return level == other.level && status_code == other.status_code &&
           primary_code == other.primary_code &&
           attempts == other.attempts && items == other.items &&
           scores == other.scores;
  }
};

// One full chaos run: warm the cache fault-free, then arm probabilistic
// faults on the primary and cache stages and replay the same request ids
// from 4 client threads. Returns id -> decision.
std::map<uint64_t, DecisionKey> RunDeterministicChaos(
    core::CadrlRecommender* model, const data::Dataset& dataset) {
  Failpoints::Instance().DisarmAll();

  ServeOptions options;
  options.threads = 4;
  options.queue_capacity = 1024;        // no shedding: admission is
                                        // timing-dependent by design
  options.max_attempts = 3;
  options.backoff_base = std::chrono::microseconds{0};  // no sleeps
  options.breaker_failure_threshold = 0;  // breakers off: no cross-request
                                          // ordering effects
  options.seed = 11;
  options.top_k = 5;
  RecommendService service(model, dataset, options);
  EXPECT_TRUE(service.Start().ok());

  // Deterministic warm-up: every user's last-good cache entry is its full
  // answer, so a later cache hit is independent of which faulted requests
  // ran first.
  for (kg::EntityId user : dataset.users) {
    const ServeResponse resp = service.Recommend(user, 5, kNoDeadline);
    EXPECT_EQ(resp.level, DegradationLevel::kFull);
  }

  // 30% primary faults, 50% cache faults: all three ladder levels appear.
  Failpoints::Instance().ArmWithProbability("cadrl/score", 0.3, /*seed=*/9);
  Failpoints::Instance().ArmWithProbability("serve/cache-lookup", 0.5,
                                            /*seed=*/10);

  constexpr int kClients = 4;
  constexpr int kRequestsPerClient = 16;
  std::vector<std::vector<std::future<ServeResponse>>> futures(kClients);
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      futures[c].reserve(kRequestsPerClient);
      for (int i = 0; i < kRequestsPerClient; ++i) {
        ServeRequest req;
        // Explicit ids: the request's fault pattern and jitter stream are
        // a pure function of (service seed, id), not of scheduling.
        req.id = static_cast<uint64_t>(c) * 100 + static_cast<uint64_t>(i) +
                 1;
        req.user = dataset.users[(static_cast<size_t>(c) + 3 * i) %
                                 dataset.users.size()];
        req.k = 5;
        req.timeout = kNoDeadline;  // wall clock never drives decisions
        futures[c].push_back(service.Submit(req));
      }
    });
  }
  for (std::thread& t : clients) t.join();

  std::map<uint64_t, DecisionKey> decisions;
  for (auto& per_client : futures) {
    for (auto& f : per_client) {
      const ServeResponse resp = f.get();
      DecisionKey key;
      key.level = static_cast<int>(resp.level);
      key.status_code = static_cast<int>(resp.status.code());
      key.primary_code = static_cast<int>(resp.primary_status.code());
      key.attempts = resp.attempts;
      for (const auto& rec : resp.recs) {
        key.items.push_back(rec.item);
        key.scores.push_back(rec.score);
      }
      decisions[resp.request_id] = key;
    }
  }
  service.Stop();
  Failpoints::Instance().DisarmAll();
  return decisions;
}

TEST_F(ServeChaosTest, DegradationDecisionsAreByteDeterministic) {
  const auto first = RunDeterministicChaos(model_, *dataset_);
  const auto second = RunDeterministicChaos(model_, *dataset_);
  ASSERT_EQ(first.size(), second.size());
  int degraded = 0;
  for (const auto& [id, key] : first) {
    auto it = second.find(id);
    ASSERT_NE(it, second.end()) << "request id " << id << " missing";
    EXPECT_TRUE(key == it->second)
        << "decision for request id " << id << " differs between runs";
    if (key.level != static_cast<int>(DegradationLevel::kFull)) ++degraded;
  }
  // The chaos must actually bite: with 30% primary faults and 3 attempts,
  // a visible fraction of requests degrades.
  EXPECT_GT(degraded, 0);
}

// --- 3. Load shedding under a slow dependency --------------------------

TEST_F(ServeChaosTest, BurstAgainstSlowModelShedsButAnswersEverything) {
  // Always-on latency injection: the model is slow-not-dead, so a burst
  // overruns the 2-slot queue and most requests shed to the fast ladder.
  Failpoints::Instance().ArmLatency("cadrl/score",
                                    std::chrono::microseconds{2000});

  ServeOptions options;
  options.threads = 1;
  options.queue_capacity = 2;
  options.max_attempts = 1;
  options.breaker_failure_threshold = 0;
  RecommendService service(model_, *dataset_, options);
  ASSERT_TRUE(service.Start().ok());

  constexpr int kBurst = 16;
  std::vector<std::future<ServeResponse>> futures;
  futures.reserve(kBurst);
  for (int i = 0; i < kBurst; ++i) {
    ServeRequest req;
    req.user = dataset_->users[static_cast<size_t>(i) %
                               dataset_->users.size()];
    req.k = 5;
    req.timeout = kNoDeadline;
    futures.push_back(service.Submit(req));
  }
  int shed = 0;
  for (auto& f : futures) {
    const ServeResponse resp = f.get();
    EXPECT_FALSE(resp.recs.empty());
    if (resp.load_shed) {
      ++shed;
      EXPECT_TRUE(resp.status.IsResourceExhausted());
      EXPECT_NE(resp.level, DegradationLevel::kFull);
    }
  }
  // 16 instant submits against 1 worker stuck >= 2ms per request and 2
  // queue slots: the burst must shed.
  EXPECT_GT(shed, 0);
  EXPECT_EQ(service.stats().load_shed, shed);
  service.Stop();
}

// --- 4. Snapshot hot-swap under concurrent load -------------------------

// DESIGN.md §12 acceptance: ReloadFromCheckpoint swaps the compiled
// inference snapshot while clients hammer the service, and no request ever
// fails or observes a torn model — every answer is byte-identical to one of
// the two checkpoints, never a mixture.
TEST_F(ServeChaosTest, SnapshotSwapUnderLoad) {
  core::CadrlRecommender* base_model = model_;
  const data::Dataset& dataset = *dataset_;
  // Two fully trained models with identical shapes but different weights,
  // checkpointed to disk. Model `serving` starts on A and is swapped
  // between A and B while requests are in flight.
  core::CadrlOptions opts_b = ChaosModelOptions();
  opts_b.seed = 131;
  core::CadrlRecommender model_b(opts_b);
  ASSERT_TRUE(model_b.Fit(dataset).ok());

  const std::string path_a = ::testing::TempDir() + "/chaos_swap_a.bin";
  const std::string path_b = ::testing::TempDir() + "/chaos_swap_b.bin";
  ASSERT_TRUE(base_model->SaveModel(path_a).ok());
  ASSERT_TRUE(model_b.SaveModel(path_b).ok());

  core::CadrlRecommender serving(ChaosModelOptions());
  ASSERT_TRUE(serving.LoadModel(dataset, path_a).ok());

  // Golden answers per user under each checkpoint (compiled inference is
  // deterministic, so these are the only two byte patterns allowed). The
  // two models must actually disagree somewhere, or the test is vacuous.
  constexpr int kTopK = 5;
  auto fingerprint = [](const std::vector<eval::Recommendation>& recs) {
    std::vector<std::tuple<kg::EntityId, double, size_t>> fp;
    fp.reserve(recs.size());
    for (const auto& r : recs) {
      fp.emplace_back(r.item, r.score, r.path.steps.size());
    }
    return fp;
  };
  std::map<kg::EntityId,
           std::vector<std::tuple<kg::EntityId, double, size_t>>>
      golden_a, golden_b;
  bool models_differ = false;
  for (kg::EntityId user : dataset.users) {
    golden_a[user] = fingerprint(base_model->Recommend(user, kTopK));
    golden_b[user] = fingerprint(model_b.Recommend(user, kTopK));
    models_differ = models_differ || golden_a[user] != golden_b[user];
  }
  ASSERT_TRUE(models_differ)
      << "checkpoints A and B are indistinguishable; swap test is vacuous";

  ServeOptions options;
  options.threads = 4;
  options.queue_capacity = 1024;  // no shedding: every answer must be kFull
  options.max_attempts = 1;
  options.breaker_failure_threshold = 0;
  options.top_k = kTopK;
  RecommendService service(&serving, dataset, options);
  ASSERT_TRUE(service.Start().ok());

  // Reloader thread alternates A/B as fast as it can while 4 client
  // threads stream requests with no deadline.
  std::atomic<bool> done{false};
  std::thread reloader([&] {
    bool to_b = true;
    while (!done.load(std::memory_order_relaxed)) {
      ASSERT_TRUE(
          service.ReloadFromCheckpoint(to_b ? path_b : path_a).ok());
      to_b = !to_b;
      std::this_thread::yield();
    }
  });

  constexpr int kClients = 4;
  constexpr int kRequestsPerClient = 32;
  std::vector<std::vector<std::pair<kg::EntityId, std::future<ServeResponse>>>>
      futures(kClients);
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      futures[c].reserve(kRequestsPerClient);
      for (int i = 0; i < kRequestsPerClient; ++i) {
        ServeRequest req;
        req.user = dataset.users[(static_cast<size_t>(c) * 5 + i) %
                                 dataset.users.size()];
        req.k = kTopK;
        req.timeout = kNoDeadline;
        futures[c].emplace_back(req.user, service.Submit(req));
      }
    });
  }
  for (std::thread& t : clients) t.join();

  int from_a = 0, from_b = 0;
  for (auto& per_client : futures) {
    for (auto& [user, f] : per_client) {
      const ServeResponse resp = f.get();
      // No faults, no deadline, no shedding: every request must succeed at
      // full quality on whichever snapshot it started with.
      ASSERT_TRUE(resp.status.ok()) << resp.status.ToString();
      ASSERT_EQ(resp.level, DegradationLevel::kFull);
      const auto fp = fingerprint(resp.recs);
      if (fp == golden_a[user]) {
        ++from_a;
      } else if (fp == golden_b[user]) {
        ++from_b;
      } else {
        FAIL() << "torn response for user " << user
               << ": matches neither checkpoint A nor B";
      }
    }
  }
  done.store(true, std::memory_order_relaxed);
  reloader.join();
  service.Stop();

  EXPECT_EQ(from_a + from_b, kClients * kRequestsPerClient);
  EXPECT_GT(service.stats().reloads, 0) << "the swap loop never swapped";
  std::remove(path_a.c_str());
  std::remove(path_b.c_str());
}

// --- 5. Shard-dir hot-swap under concurrent load ------------------------

// Same torn-model contract as the checkpoint swap, but through the sharded
// mmap path (DESIGN.md §16): a writer thread alternately compiles model A's
// and model B's weights into ONE shard directory (delta writer + atomic
// manifest) and republishes via ReloadFromShardDir, while clients stream
// requests. Every answer must be byte-identical to checkpoint A or B —
// never a mixture — which exercises the whole epoch chain: atomic manifest
// cutover, per-request snapshot pinning, mapping reuse across delta
// reloads, and unlink-safe old mappings kept alive by in-flight requests.
TEST_F(ServeChaosTest, ShardSwapUnderLoad) {
  core::CadrlRecommender* base_model = model_;
  const data::Dataset& dataset = *dataset_;
  core::CadrlOptions opts_b = ChaosModelOptions();
  opts_b.seed = 131;
  core::CadrlRecommender model_b(opts_b);
  ASSERT_TRUE(model_b.Fit(dataset).ok());

  const std::string path_a = ::testing::TempDir() + "/chaos_shard_a.bin";
  const std::string dir = ::testing::TempDir() + "/chaos_shard_dir";
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  ASSERT_TRUE(base_model->SaveModel(path_a).ok());

  core::CadrlRecommender serving(ChaosModelOptions());
  ASSERT_TRUE(serving.LoadModel(dataset, path_a).ok());

  constexpr int kTopK = 5;
  auto fingerprint = [](const std::vector<eval::Recommendation>& recs) {
    std::vector<std::tuple<kg::EntityId, double, size_t>> fp;
    fp.reserve(recs.size());
    for (const auto& r : recs) {
      fp.emplace_back(r.item, r.score, r.path.steps.size());
    }
    return fp;
  };
  std::map<kg::EntityId,
           std::vector<std::tuple<kg::EntityId, double, size_t>>>
      golden_a, golden_b;
  bool models_differ = false;
  for (kg::EntityId user : dataset.users) {
    golden_a[user] = fingerprint(base_model->Recommend(user, kTopK));
    golden_b[user] = fingerprint(model_b.Recommend(user, kTopK));
    models_differ = models_differ || golden_a[user] != golden_b[user];
  }
  ASSERT_TRUE(models_differ)
      << "checkpoints A and B are indistinguishable; swap test is vacuous";

  // Seed the directory with A so the service starts shard-backed.
  auto compile_into_dir = [&](const core::CadrlRecommender& src) {
    const std::shared_ptr<const infer::CompiledModel> snap =
        src.CurrentSnapshot();
    infer::ShardWriteOptions wopts;
    wopts.shard_rows = 16;  // several shards even on the Tiny graph
    infer::ShardWriteStats wstats;
    return infer::CompileToShardDir(
        src.store()->View(), snap->policy(), snap->score_scale(),
        infer::CompiledModelOptions{snap->precision()}, dir, wopts, &wstats);
  };
  ASSERT_TRUE(compile_into_dir(*base_model).ok());

  ServeOptions options;
  options.threads = 4;
  options.queue_capacity = 1024;  // no shedding: every answer must be kFull
  options.max_attempts = 1;
  options.breaker_failure_threshold = 0;
  options.top_k = kTopK;
  RecommendService service(&serving, dataset, options);
  ASSERT_TRUE(service.Start().ok());
  ASSERT_TRUE(service.ReloadFromShardDir(dir).ok());

  std::atomic<bool> done{false};
  std::thread swapper([&] {
    bool to_b = true;
    while (!done.load(std::memory_order_relaxed)) {
      ASSERT_TRUE(compile_into_dir(to_b ? model_b : *base_model).ok());
      ASSERT_TRUE(service.ReloadFromShardDir(dir).ok());
      to_b = !to_b;
      std::this_thread::yield();
    }
  });

  constexpr int kClients = 4;
  constexpr int kRequestsPerClient = 32;
  std::vector<std::vector<std::pair<kg::EntityId, std::future<ServeResponse>>>>
      futures(kClients);
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      futures[c].reserve(kRequestsPerClient);
      for (int i = 0; i < kRequestsPerClient; ++i) {
        ServeRequest req;
        req.user = dataset.users[(static_cast<size_t>(c) * 5 + i) %
                                 dataset.users.size()];
        req.k = kTopK;
        req.timeout = kNoDeadline;
        futures[c].emplace_back(req.user, service.Submit(req));
      }
    });
  }
  for (std::thread& t : clients) t.join();

  int from_a = 0, from_b = 0;
  for (auto& per_client : futures) {
    for (auto& [user, f] : per_client) {
      const ServeResponse resp = f.get();
      ASSERT_TRUE(resp.status.ok()) << resp.status.ToString();
      ASSERT_EQ(resp.level, DegradationLevel::kFull);
      const auto fp = fingerprint(resp.recs);
      if (fp == golden_a[user]) {
        ++from_a;
      } else if (fp == golden_b[user]) {
        ++from_b;
      } else {
        FAIL() << "torn response for user " << user
               << ": matches neither checkpoint A nor B";
      }
    }
  }
  done.store(true, std::memory_order_relaxed);
  swapper.join();
  service.Stop();

  EXPECT_EQ(from_a + from_b, kClients * kRequestsPerClient);
  const RecommendService::Stats stats = service.stats();
  EXPECT_GT(stats.shard_reloads, 0) << "the swap loop never republished";
  EXPECT_GT(stats.shards_remapped, 0);
  EXPECT_GT(stats.shard_count, 0);
  std::remove(path_a.c_str());
  std::filesystem::remove_all(dir, ec);
}

// --- 5. Breaker transitions match the golden trace ----------------------

TEST_F(ServeChaosTest, BreakerTransitionsMatchGoldenTrace) {
  serve::VirtualTimeSource clock;
  ServeOptions options;
  options.threads = 1;
  options.max_attempts = 1;
  options.breaker_failure_threshold = 2;
  options.breaker_cooldown = std::chrono::milliseconds{10};
  options.time_source = &clock;
  RecommendService service(model_, *dataset_, options);
  ASSERT_TRUE(service.Start().ok());

  const kg::EntityId user = dataset_->users[0];
  // Two consecutive primary failures trip the breaker ...
  Failpoints::Instance().Arm("cadrl/score", /*count=*/-1);
  service.Recommend(user, 5, kNoDeadline);
  service.Recommend(user, 5, kNoDeadline);
  EXPECT_EQ(service.primary_breaker().state(), CircuitBreaker::State::kOpen);
  // ... open rejects while the cooldown runs ...
  const ServeResponse rejected = service.Recommend(user, 5, kNoDeadline);
  EXPECT_EQ(rejected.attempts, 0);
  EXPECT_TRUE(rejected.primary_status.IsResourceExhausted());
  // ... after the cooldown a half-open probe runs and fails -> open ...
  clock.Advance(std::chrono::milliseconds{10});
  service.Recommend(user, 5, kNoDeadline);
  // ... and once the fault clears, the next probe closes the breaker.
  clock.Advance(std::chrono::milliseconds{10});
  Failpoints::Instance().DisarmAll();
  const ServeResponse recovered = service.Recommend(user, 5, kNoDeadline);
  EXPECT_EQ(recovered.level, DegradationLevel::kFull);
  EXPECT_EQ(service.primary_breaker().state(),
            CircuitBreaker::State::kClosed);

  const std::vector<std::string> golden = {
      "closed->open",     "open->half_open", "half_open->open",
      "open->half_open",  "half_open->closed"};
  EXPECT_EQ(service.primary_breaker().transitions(), golden);
  EXPECT_EQ(service.primary_breaker().trips(), 2);
  service.Stop();
}

}  // namespace
}  // namespace cadrl
