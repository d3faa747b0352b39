// Unit tests of the serving layer (DESIGN.md §11): RequestContext deadline/
// cancellation semantics, deadline-aware inference entry points, the
// CircuitBreaker state machine (driven by a manual clock), and the
// RecommendService degradation ladder. The concurrent/chaotic behavior is
// covered by serve_chaos_test (its own binary, ctest labels chaos/tsan).

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/cadrl.h"
#include "data/generator.h"
#include "serve/circuit_breaker.h"
#include "serve/recommend_service.h"
#include "util/deadline.h"
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

// ---------- RequestContext ----------

TEST(RequestContextTest, DefaultHasNoDeadlineAndNeverExpires) {
  RequestContext ctx;
  EXPECT_FALSE(ctx.has_deadline());
  EXPECT_FALSE(ctx.expired());
  EXPECT_EQ(ctx.remaining(), RequestContext::Clock::duration::max());
  EXPECT_TRUE(ctx.Check().ok());
}

TEST(RequestContextTest, NonPositiveTimeoutIsAlreadyExpired) {
  RequestContext ctx = RequestContext::WithTimeout(std::chrono::seconds{0});
  EXPECT_TRUE(ctx.has_deadline());
  EXPECT_TRUE(ctx.expired());
  EXPECT_EQ(ctx.remaining(), RequestContext::Clock::duration::zero());
  EXPECT_TRUE(ctx.Check().IsDeadlineExceeded());
}

TEST(RequestContextTest, GenerousTimeoutIsNotExpired) {
  RequestContext ctx = RequestContext::WithTimeout(std::chrono::hours{1});
  EXPECT_FALSE(ctx.expired());
  EXPECT_GT(ctx.remaining(), std::chrono::minutes{30});
  EXPECT_TRUE(ctx.Check().ok());
}

TEST(RequestContextTest, CancelPropagatesToCopies) {
  RequestContext ctx;
  RequestContext copy = ctx;
  EXPECT_FALSE(copy.cancelled());
  ctx.Cancel();
  EXPECT_TRUE(copy.cancelled());
  EXPECT_TRUE(copy.Check().IsCancelled());
}

TEST(RequestContextTest, CancellationWinsOverExpiredDeadline) {
  RequestContext ctx = RequestContext::WithTimeout(std::chrono::seconds{0});
  ctx.Cancel();
  EXPECT_TRUE(ctx.Check().IsCancelled());
}

// ---------- CircuitBreaker ----------

TEST(CircuitBreakerTest, OpensAfterConsecutiveFailuresAndRecovers) {
  serve::VirtualTimeSource clock;
  CircuitBreaker breaker(/*failure_threshold=*/2,
                         std::chrono::milliseconds{10}, &clock);
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kClosed);

  EXPECT_TRUE(breaker.Allow());
  breaker.RecordFailure();
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kClosed);
  EXPECT_TRUE(breaker.Allow());
  breaker.RecordFailure();
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kOpen);
  EXPECT_EQ(breaker.trips(), 1);

  // Open rejects until the cooldown elapses.
  EXPECT_FALSE(breaker.Allow());
  clock.Advance(std::chrono::milliseconds{9});
  EXPECT_FALSE(breaker.Allow());
  clock.Advance(std::chrono::milliseconds{1});
  EXPECT_TRUE(breaker.Allow());  // the half-open probe
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kHalfOpen);
  // Only one probe in flight.
  EXPECT_FALSE(breaker.Allow());

  // Probe fails -> open again; next cooldown, probe succeeds -> closed.
  breaker.RecordFailure();
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kOpen);
  EXPECT_EQ(breaker.trips(), 2);
  clock.Advance(std::chrono::milliseconds{10});
  EXPECT_TRUE(breaker.Allow());
  breaker.RecordSuccess();
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kClosed);
  EXPECT_EQ(breaker.consecutive_failures(), 0);

  const std::vector<std::string> golden = {
      "closed->open",     "open->half_open", "half_open->open",
      "open->half_open",  "half_open->closed"};
  EXPECT_EQ(breaker.transitions(), golden);
}

TEST(CircuitBreakerTest, SuccessResetsConsecutiveFailureCount) {
  CircuitBreaker breaker(/*failure_threshold=*/3, std::chrono::seconds{1});
  breaker.RecordFailure();
  breaker.RecordFailure();
  breaker.RecordSuccess();
  breaker.RecordFailure();
  breaker.RecordFailure();
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kClosed);
  breaker.RecordFailure();
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kOpen);
}

TEST(CircuitBreakerTest, NonPositiveThresholdDisablesBreaker) {
  CircuitBreaker breaker(/*failure_threshold=*/0, std::chrono::seconds{0});
  for (int i = 0; i < 100; ++i) {
    EXPECT_TRUE(breaker.Allow());
    breaker.RecordFailure();
  }
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kClosed);
  EXPECT_EQ(breaker.trips(), 0);
  EXPECT_TRUE(breaker.transitions().empty());
}

TEST(CircuitBreakerTest, HalfOpenAdmitsExactlyOneProbeUnderRace) {
  serve::VirtualTimeSource clock;
  CircuitBreaker breaker(/*failure_threshold=*/1,
                         std::chrono::milliseconds{10}, &clock);
  EXPECT_TRUE(breaker.Allow());
  breaker.RecordFailure();
  ASSERT_EQ(breaker.state(), CircuitBreaker::State::kOpen);
  clock.Advance(std::chrono::milliseconds{10});

  // Eight threads race for the half-open probe; exactly one may win.
  constexpr int kThreads = 8;
  std::atomic<int> admitted{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&] {
      if (breaker.Allow()) admitted.fetch_add(1, std::memory_order_relaxed);
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(admitted.load(), 1);
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kHalfOpen);

  breaker.RecordSuccess();
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kClosed);
  const std::vector<std::string> golden = {"closed->open", "open->half_open",
                                           "half_open->closed"};
  EXPECT_EQ(breaker.transitions(), golden);
}

// ---------- Deadline-aware inference + RecommendService ----------

core::CadrlOptions ServeModelOptions() {
  core::CadrlOptions o;
  o.transe.dim = 8;
  o.transe.epochs = 4;
  o.use_cggnn = false;
  o.episodes_per_user = 2;
  o.policy_hidden = 16;
  o.seed = 77;
  return o;
}

class ServeTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    Failpoints::Instance().DisarmAll();
    dataset_ = new data::Dataset();
    ASSERT_TRUE(
        data::GenerateDataset(data::SyntheticConfig::Tiny(), dataset_).ok());
    model_ = new core::CadrlRecommender(ServeModelOptions());
    ASSERT_TRUE(model_->Fit(*dataset_).ok());
  }

  static void TearDownTestSuite() {
    delete model_;
    model_ = nullptr;
    delete dataset_;
    dataset_ = nullptr;
  }

  void TearDown() override { Failpoints::Instance().DisarmAll(); }

  // Options tuned for fast, deterministic unit tests: no breakers, no
  // backoff sleeps, single worker.
  static ServeOptions UnitOptions() {
    ServeOptions o;
    o.threads = 1;
    o.max_attempts = 2;
    o.backoff_base = std::chrono::microseconds{0};
    o.breaker_failure_threshold = 0;
    o.top_k = 5;
    return o;
  }

  static data::Dataset* dataset_;
  static core::CadrlRecommender* model_;
};

data::Dataset* ServeTest::dataset_ = nullptr;
core::CadrlRecommender* ServeTest::model_ = nullptr;

TEST_F(ServeTest, ContextualRecommendMatchesBlockingCall) {
  const kg::EntityId user = dataset_->users[0];
  const auto blocking = model_->Recommend(user, 5);
  std::vector<eval::Recommendation> contextual;
  ASSERT_TRUE(
      model_->Recommend(user, 5, RequestContext(), &contextual).ok());
  ASSERT_EQ(blocking.size(), contextual.size());
  for (size_t i = 0; i < blocking.size(); ++i) {
    EXPECT_EQ(blocking[i].item, contextual[i].item);
    EXPECT_EQ(blocking[i].score, contextual[i].score);
    EXPECT_EQ(blocking[i].path.steps, contextual[i].path.steps);
  }
}

TEST_F(ServeTest, ExpiredDeadlineStopsInference) {
  const kg::EntityId user = dataset_->users[0];
  std::vector<eval::Recommendation> out;
  const Status s = model_->Recommend(
      user, 5, RequestContext::WithTimeout(std::chrono::seconds{0}), &out);
  EXPECT_TRUE(s.IsDeadlineExceeded()) << s.ToString();
}

TEST_F(ServeTest, CancelledContextStopsInference) {
  const kg::EntityId user = dataset_->users[0];
  RequestContext ctx;
  ctx.Cancel();
  std::vector<eval::RecommendationPath> paths;
  const Status s = model_->FindPaths(user, 5, ctx, &paths);
  EXPECT_TRUE(s.IsCancelled()) << s.ToString();
}

TEST_F(ServeTest, ContextualFindPathsMatchesBlockingCall) {
  const kg::EntityId user = dataset_->users[1];
  const auto blocking = model_->FindPaths(user, 5);
  std::vector<eval::RecommendationPath> contextual;
  ASSERT_TRUE(
      model_->FindPaths(user, 5, RequestContext(), &contextual).ok());
  ASSERT_EQ(blocking.size(), contextual.size());
  for (size_t i = 0; i < blocking.size(); ++i) {
    EXPECT_EQ(blocking[i].steps, contextual[i].steps);
  }
}

TEST_F(ServeTest, InjectedScoringFaultSurfacesAsInternal) {
  const kg::EntityId user = dataset_->users[0];
  ScopedFailpoint fault("cadrl/score", /*count=*/-1);
  std::vector<eval::Recommendation> out;
  const Status s = model_->Recommend(user, 5, RequestContext(), &out);
  EXPECT_TRUE(s.IsInternal()) << s.ToString();
  // The blocking call never evaluates failpoints.
  EXPECT_FALSE(model_->Recommend(user, 5).empty());
}

// Default base-class implementation: one upfront ctx check, then the
// blocking call.
class BlockingOnlyRecommender : public eval::Recommender {
 public:
  using eval::Recommender::Recommend;  // keep the contextual overload visible
  std::string name() const override { return "BlockingOnly"; }
  Status Fit(const data::Dataset&) override { return Status::OK(); }
  std::vector<eval::Recommendation> Recommend(kg::EntityId, int k) override {
    std::vector<eval::Recommendation> out;
    for (int i = 0; i < k; ++i) out.push_back({static_cast<kg::EntityId>(i),
                                               1.0 - 0.1 * i,
                                               {}});
    return out;
  }
};

TEST(RecommenderBaseTest, DefaultContextualEntryPointsDelegate) {
  BlockingOnlyRecommender model;
  std::vector<eval::Recommendation> recs;
  ASSERT_TRUE(model.Recommend(3, 4, RequestContext(), &recs).ok());
  EXPECT_EQ(recs.size(), 4u);

  const Status expired = model.Recommend(
      3, 4, RequestContext::WithTimeout(std::chrono::seconds{0}), &recs);
  EXPECT_TRUE(expired.IsDeadlineExceeded());

  std::vector<eval::RecommendationPath> paths;
  ASSERT_TRUE(model.FindPaths(3, 4, RequestContext(), &paths).ok());
  RequestContext cancelled;
  cancelled.Cancel();
  EXPECT_TRUE(model.FindPaths(3, 4, cancelled, &paths).IsCancelled());
}

TEST_F(ServeTest, HappyPathServesFullAnswers) {
  RecommendService service(model_, *dataset_, UnitOptions());
  ASSERT_TRUE(service.Start().ok());

  const kg::EntityId user = dataset_->users[0];
  const auto expected = model_->Recommend(user, 5);
  const ServeResponse resp = service.Recommend(user, 5, kNoDeadline);
  EXPECT_TRUE(resp.status.ok()) << resp.status.ToString();
  EXPECT_TRUE(resp.primary_status.ok());
  EXPECT_EQ(resp.level, DegradationLevel::kFull);
  EXPECT_EQ(resp.attempts, 1);
  EXPECT_FALSE(resp.load_shed);
  ASSERT_EQ(resp.recs.size(), expected.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(resp.recs[i].item, expected[i].item);
    EXPECT_EQ(resp.recs[i].score, expected[i].score);
  }
  service.Stop();
  const RecommendService::Stats stats = service.stats();
  EXPECT_EQ(stats.requests, 1);
  EXPECT_EQ(stats.full, 1);
}

TEST_F(ServeTest, PersistentFaultFallsBackToPopularity) {
  RecommendService service(model_, *dataset_, UnitOptions());
  ASSERT_TRUE(service.Start().ok());
  ScopedFailpoint fault("cadrl/score", /*count=*/-1);

  const kg::EntityId user = dataset_->users[0];
  const ServeResponse resp = service.Recommend(user, 5, kNoDeadline);
  // Degraded but terminal: the request still gets an answer.
  EXPECT_TRUE(resp.status.ok()) << resp.status.ToString();
  EXPECT_TRUE(resp.primary_status.IsInternal());
  EXPECT_EQ(resp.level, DegradationLevel::kPopularity);
  EXPECT_EQ(resp.attempts, 2);  // max_attempts
  ASSERT_FALSE(resp.recs.empty());
  // Popularity excludes the user's train items and attaches no paths.
  const int64_t idx = dataset_->UserIndex(user);
  ASSERT_GE(idx, 0);
  for (const auto& rec : resp.recs) {
    EXPECT_TRUE(rec.path.steps.empty());
    for (kg::EntityId train :
         dataset_->train_items[static_cast<size_t>(idx)]) {
      EXPECT_NE(rec.item, train);
    }
  }
  EXPECT_EQ(service.stats().retries, 1);
}

TEST_F(ServeTest, WarmCacheServesLastGoodAnswer) {
  RecommendService service(model_, *dataset_, UnitOptions());
  ASSERT_TRUE(service.Start().ok());

  const kg::EntityId user = dataset_->users[0];
  const ServeResponse full = service.Recommend(user, 5, kNoDeadline);
  ASSERT_EQ(full.level, DegradationLevel::kFull);

  ScopedFailpoint fault("cadrl/score", /*count=*/-1);
  const ServeResponse degraded = service.Recommend(user, 5, kNoDeadline);
  EXPECT_TRUE(degraded.status.ok());
  EXPECT_EQ(degraded.level, DegradationLevel::kCached);
  ASSERT_EQ(degraded.recs.size(), full.recs.size());
  for (size_t i = 0; i < full.recs.size(); ++i) {
    EXPECT_EQ(degraded.recs[i].item, full.recs[i].item);
    EXPECT_EQ(degraded.recs[i].score, full.recs[i].score);
  }
}

TEST_F(ServeTest, CacheFaultFallsThroughToPopularity) {
  RecommendService service(model_, *dataset_, UnitOptions());
  ASSERT_TRUE(service.Start().ok());

  const kg::EntityId user = dataset_->users[0];
  ASSERT_EQ(service.Recommend(user, 5, kNoDeadline).level,
            DegradationLevel::kFull);

  ScopedFailpoint primary("cadrl/score", /*count=*/-1);
  ScopedFailpoint cache("serve/cache-lookup", /*count=*/-1);
  const ServeResponse resp = service.Recommend(user, 5, kNoDeadline);
  EXPECT_TRUE(resp.status.ok());
  EXPECT_EQ(resp.level, DegradationLevel::kPopularity);
}

TEST_F(ServeTest, UnknownUserFailsTerminally) {
  RecommendService service(model_, *dataset_, UnitOptions());
  ASSERT_TRUE(service.Start().ok());
  const ServeResponse resp =
      service.Recommend(kg::kInvalidEntity, 5, kNoDeadline);
  EXPECT_TRUE(resp.status.IsInvalidArgument());
  EXPECT_EQ(resp.level, DegradationLevel::kFailed);
  EXPECT_TRUE(resp.recs.empty());
  EXPECT_EQ(service.stats().failed, 1);
}

TEST_F(ServeTest, ExpiredDeadlineDegradesInsteadOfFailing) {
  RecommendService service(model_, *dataset_, UnitOptions());
  ASSERT_TRUE(service.Start().ok());
  const kg::EntityId user = dataset_->users[0];
  // 1us budget: expired by the time the worker dequeues it.
  const ServeResponse resp =
      service.Recommend(user, 5, std::chrono::microseconds{1});
  EXPECT_TRUE(resp.status.ok()) << resp.status.ToString();
  EXPECT_TRUE(resp.primary_status.IsDeadlineExceeded())
      << resp.primary_status.ToString();
  EXPECT_NE(resp.level, DegradationLevel::kFull);
  EXPECT_NE(resp.level, DegradationLevel::kFailed);
  EXPECT_FALSE(resp.recs.empty());
}

TEST_F(ServeTest, PrimaryBreakerShortCircuitsAfterConsecutiveFailures) {
  ServeOptions options = UnitOptions();
  options.max_attempts = 1;
  options.breaker_failure_threshold = 2;
  options.breaker_cooldown = std::chrono::hours{1};  // never half-opens here
  RecommendService service(model_, *dataset_, options);
  ASSERT_TRUE(service.Start().ok());
  ScopedFailpoint fault("cadrl/score", /*count=*/-1);

  const kg::EntityId user = dataset_->users[0];
  EXPECT_TRUE(
      service.Recommend(user, 5, kNoDeadline).primary_status.IsInternal());
  EXPECT_TRUE(
      service.Recommend(user, 5, kNoDeadline).primary_status.IsInternal());
  EXPECT_EQ(service.primary_breaker().state(), CircuitBreaker::State::kOpen);

  // Breaker open: the primary stage is skipped entirely (attempts == 0).
  const ServeResponse rejected = service.Recommend(user, 5, kNoDeadline);
  EXPECT_EQ(rejected.attempts, 0);
  EXPECT_TRUE(rejected.primary_status.IsResourceExhausted());
  EXPECT_EQ(rejected.level, DegradationLevel::kPopularity);
  EXPECT_EQ(service.stats().breaker_rejections, 1);
}

TEST_F(ServeTest, SubmitWithoutStartAnswersInline) {
  RecommendService service(model_, *dataset_, UnitOptions());
  const kg::EntityId user = dataset_->users[0];
  ServeRequest req;
  req.user = user;
  req.timeout = kNoDeadline;
  ServeResponse resp = service.Submit(req).get();
  EXPECT_TRUE(resp.primary_status.IsFailedPrecondition());
  EXPECT_EQ(resp.level, DegradationLevel::kPopularity);
  EXPECT_TRUE(resp.status.IsFailedPrecondition());
  EXPECT_FALSE(resp.recs.empty());
}

TEST_F(ServeTest, StopIsIdempotentAndServiceRejectsAfterStop) {
  RecommendService service(model_, *dataset_, UnitOptions());
  ASSERT_TRUE(service.Start().ok());
  service.Stop();
  service.Stop();
  const ServeResponse resp =
      service.Recommend(dataset_->users[0], 5, kNoDeadline);
  EXPECT_TRUE(resp.status.IsFailedPrecondition());
  EXPECT_FALSE(resp.recs.empty());  // still a degraded terminal answer
}

TEST_F(ServeTest, AutoAssignedRequestIdsAreUniqueAndNonZero) {
  RecommendService service(model_, *dataset_, UnitOptions());
  ASSERT_TRUE(service.Start().ok());
  ServeRequest req;
  req.user = dataset_->users[0];
  req.timeout = kNoDeadline;
  const ServeResponse a = service.Submit(req).get();
  const ServeResponse b = service.Submit(req).get();
  EXPECT_NE(a.request_id, 0u);
  EXPECT_NE(b.request_id, 0u);
  EXPECT_NE(a.request_id, b.request_id);
}

// Wraps the real model but parks the contextual Recommend on a gate, so a
// test can hold the single worker mid-request and fill the admission queue
// deterministically — no sleeps, no timing assumptions.
class GatedRecommender : public eval::Recommender {
 public:
  // Contextual calls with ordinal < `gate_from` pass straight through; the
  // rest park on the gate (the breaker tests let an opening failure run
  // ungated, then hold the half-open probe).
  explicit GatedRecommender(eval::Recommender* inner, int gate_from = 0)
      : inner_(inner), gate_from_(gate_from) {}
  std::string name() const override { return "Gated"; }
  Status Fit(const data::Dataset&) override { return Status::OK(); }
  std::vector<eval::Recommendation> Recommend(kg::EntityId user,
                                              int k) override {
    return inner_->Recommend(user, k);
  }
  Status Recommend(kg::EntityId user, int k, const RequestContext& ctx,
                   std::vector<eval::Recommendation>* out) override {
    {
      std::unique_lock<std::mutex> lock(mu_);
      if (calls_++ >= gate_from_) {
        ++entered_;
        cv_.notify_all();
        cv_.wait(lock, [&] { return released_; });
      }
    }
    return inner_->Recommend(user, k, ctx, out);
  }
  // Blocks until `n` contextual calls have entered the gate.
  void WaitForEntries(int n) {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return entered_ >= n; });
  }
  void Release() {
    std::lock_guard<std::mutex> lock(mu_);
    released_ = true;
    cv_.notify_all();
  }

 private:
  eval::Recommender* const inner_;
  const int gate_from_;
  std::mutex mu_;
  std::condition_variable cv_;
  int calls_ = 0;
  int entered_ = 0;
  bool released_ = false;
};

// Deterministic shed path: one worker held mid-request, a 1-slot queue
// filled behind it, and every further Submit answered inline from the
// degraded ladder. Locks in the exact queue/shed counters.
TEST_F(ServeTest, FullQueueShedsInlineWithExactStats) {
  GatedRecommender gated(model_);
  ServeOptions options;
  options.threads = 1;
  options.queue_capacity = 1;
  options.max_attempts = 1;
  options.backoff_base = std::chrono::microseconds{0};
  options.breaker_failure_threshold = 0;
  options.top_k = 5;
  RecommendService service(&gated, *dataset_, options);
  ASSERT_TRUE(service.Start().ok());

  const kg::EntityId user = dataset_->users[0];
  const auto submit = [&] {
    ServeRequest req;
    req.user = user;
    req.k = 5;
    req.timeout = kNoDeadline;
    return service.Submit(req);
  };

  // First request: admitted, dequeued by the lone worker, parked on the
  // gate. Only then is the queue guaranteed empty again.
  auto held = submit();
  gated.WaitForEntries(1);
  // Second request: takes the single queue slot behind the held worker.
  auto queued = submit();

  // Everything past a full queue sheds inline on this thread: the future
  // is ready before Release(), carries kResourceExhausted plus a degraded
  // (popularity — the cache is cold) answer.
  constexpr int kShed = 3;
  for (int i = 0; i < kShed; ++i) {
    auto f = submit();
    ASSERT_EQ(f.wait_for(std::chrono::seconds{0}),
              std::future_status::ready);
    const ServeResponse resp = f.get();
    EXPECT_TRUE(resp.status.IsResourceExhausted()) << resp.status.ToString();
    EXPECT_TRUE(resp.load_shed);
    EXPECT_EQ(resp.level, DegradationLevel::kPopularity);
    EXPECT_EQ(resp.attempts, 0);
    EXPECT_FALSE(resp.recs.empty());
  }

  gated.Release();
  EXPECT_EQ(held.get().level, DegradationLevel::kFull);
  EXPECT_EQ(queued.get().level, DegradationLevel::kFull);
  service.Stop();

  const RecommendService::Stats stats = service.stats();
  EXPECT_EQ(stats.requests, 2 + kShed);
  EXPECT_EQ(stats.load_shed, kShed);
  EXPECT_EQ(stats.full, 2);
  EXPECT_EQ(stats.popularity, kShed);
  EXPECT_EQ(stats.failed, 0);
}

// Half-open at the service level, concurrently: the single probe parks in
// the gated model while further requests keep resolving through the ladder
// — losing the probe race must never block or fail a request. Driven on a
// virtual clock with the transition trace locked against a golden sequence.
TEST_F(ServeTest, HalfOpenProbeLosersFallToLadder) {
  serve::VirtualTimeSource clock;
  GatedRecommender gated(model_, /*gate_from=*/1);
  ServeOptions options;
  options.threads = 2;
  options.max_attempts = 1;
  options.backoff_base = std::chrono::microseconds{0};
  options.breaker_failure_threshold = 1;
  options.breaker_cooldown = std::chrono::milliseconds{10};
  options.top_k = 5;
  options.time_source = &clock;
  RecommendService service(&gated, *dataset_, options);
  ASSERT_TRUE(service.Start().ok());

  const kg::EntityId user = dataset_->users[0];
  const auto submit = [&] {
    ServeRequest req;
    req.user = user;
    req.k = 5;
    req.timeout = kNoDeadline;
    return service.Submit(req);
  };

  // One ungated failure trips the breaker (threshold 1) ...
  Failpoints::Instance().Arm("cadrl/score", /*count=*/-1);
  EXPECT_EQ(submit().get().level, DegradationLevel::kPopularity);
  EXPECT_EQ(service.primary_breaker().state(), CircuitBreaker::State::kOpen);
  // ... and open rejects instantly while the virtual cooldown stands still.
  const ServeResponse rejected = submit().get();
  EXPECT_EQ(rejected.attempts, 0);
  EXPECT_TRUE(rejected.primary_status.IsResourceExhausted());

  // Cooldown elapses (virtually), the fault clears, and the next request
  // becomes the half-open probe — parked on the model gate.
  clock.Advance(std::chrono::milliseconds{10});
  Failpoints::Instance().DisarmAll();
  auto probe = submit();
  gated.WaitForEntries(1);
  EXPECT_EQ(service.primary_breaker().state(),
            CircuitBreaker::State::kHalfOpen);

  // Requests racing the in-flight probe lose Allow() and fall to the
  // ladder; they resolve while the probe is still parked.
  for (int i = 0; i < 2; ++i) {
    const ServeResponse loser = submit().get();
    EXPECT_EQ(loser.level, DegradationLevel::kPopularity);
    EXPECT_EQ(loser.attempts, 0);
    EXPECT_TRUE(loser.primary_status.IsResourceExhausted());
  }
  EXPECT_EQ(service.primary_breaker().state(),
            CircuitBreaker::State::kHalfOpen);

  // The probe succeeds and closes the breaker.
  gated.Release();
  EXPECT_EQ(probe.get().level, DegradationLevel::kFull);
  EXPECT_EQ(service.primary_breaker().state(),
            CircuitBreaker::State::kClosed);
  service.Stop();

  const std::vector<std::string> golden = {"closed->open", "open->half_open",
                                           "half_open->closed"};
  EXPECT_EQ(service.primary_breaker().transitions(), golden);
  EXPECT_EQ(service.primary_breaker().trips(), 1);
  EXPECT_EQ(service.stats().breaker_rejections, 3);  // rejected + 2 losers
}

// ---------- Adaptive admission at the service level ----------

// AIMD limit as the binding constraint: with initial_limit == min_limit ==
// 2 and two requests parked in the manual-pump queue, the third submit is
// shed inline — deterministically, no timing involved.
TEST_F(ServeTest, AdmissionLimitShedsInline) {
  ServeOptions options = UnitOptions();
  options.manual_pump = true;
  options.admission.enabled = true;
  options.admission.initial_limit = 2.0;
  options.admission.min_limit = 2.0;
  RecommendService service(model_, *dataset_, options);
  ASSERT_TRUE(service.Start().ok());

  const auto submit = [&] {
    ServeRequest req;
    req.user = dataset_->users[0];
    req.k = 5;
    req.timeout = kNoDeadline;
    return service.Submit(req);
  };
  auto first = submit();
  auto second = submit();
  auto third = submit();
  ASSERT_EQ(third.wait_for(std::chrono::seconds{0}),
            std::future_status::ready);
  const ServeResponse shed = third.get();
  EXPECT_TRUE(shed.status.IsResourceExhausted()) << shed.status.ToString();
  EXPECT_TRUE(shed.load_shed);
  EXPECT_EQ(shed.level, DegradationLevel::kPopularity);

  RecommendService::StartedRequest started;
  ASSERT_TRUE(service.PumpStart(&started));
  service.PumpFinish(std::move(started));
  ASSERT_TRUE(service.PumpStart(&started));
  service.PumpFinish(std::move(started));
  EXPECT_FALSE(service.PumpStart(&started));
  EXPECT_EQ(first.get().level, DegradationLevel::kFull);
  EXPECT_EQ(second.get().level, DegradationLevel::kFull);
  service.Stop();

  const RecommendService::Stats stats = service.stats();
  EXPECT_EQ(stats.requests, 3);
  EXPECT_EQ(stats.full, 2);
  EXPECT_EQ(stats.popularity, 1);
  EXPECT_EQ(stats.limit_sheds, 1);
  EXPECT_EQ(stats.load_shed, 1);
  EXPECT_EQ(service.admission().inflight(), 0);
}

// A request whose deadline budget burns away in the queue is shed at
// dequeue, never started, and counted as the overload signal it is — the
// AIMD limit is cut. Fully deterministic on the virtual clock.
TEST_F(ServeTest, QueueAgedRequestIsShedAndCutsTheLimit) {
  serve::VirtualTimeSource clock;
  ServeOptions options = UnitOptions();
  options.manual_pump = true;
  options.time_source = &clock;
  options.admission.enabled = true;
  RecommendService service(model_, *dataset_, options);
  ASSERT_TRUE(service.Start().ok());

  ServeRequest req;
  req.user = dataset_->users[0];
  req.k = 5;
  req.timeout = std::chrono::milliseconds{10};
  auto future = service.Submit(req);
  clock.Advance(std::chrono::milliseconds{11});  // budget burns in the queue

  RecommendService::StartedRequest started;
  EXPECT_FALSE(service.PumpStart(&started));  // shed while draining
  ASSERT_EQ(future.wait_for(std::chrono::seconds{0}),
            std::future_status::ready);
  const ServeResponse resp = future.get();
  EXPECT_TRUE(resp.load_shed);
  EXPECT_TRUE(resp.status.IsResourceExhausted()) << resp.status.ToString();
  EXPECT_EQ(resp.level, DegradationLevel::kPopularity);
  EXPECT_EQ(resp.attempts, 0);  // the model never started
  service.Stop();

  const RecommendService::Stats stats = service.stats();
  EXPECT_EQ(stats.queue_timeout_sheds, 1);
  EXPECT_EQ(stats.load_shed, 1);
  EXPECT_NEAR(service.admission().limit(),
              options.admission.initial_limit *
                  options.admission.decrease_factor,
              1e-9);
  EXPECT_EQ(service.admission().snapshot().decreases, 1);
}

// A virtual clock on which every reading costs `tick`. It is as
// deterministic as VirtualTimeSource, but a stage timed between two
// readings (the ladder floor) measures a non-zero duration, as it would on
// a real clock; on a plain virtual clock the floor's p95 stays 0.
class TickingTimeSource final : public util::TimeSource {
 public:
  explicit TickingTimeSource(Clock::duration tick) : tick_(tick) {}

  Clock::time_point Now() const override {
    const Clock::time_point now = clock_.Now();
    clock_.Advance(tick_);
    return now;
  }
  void SleepFor(Clock::duration d) override { clock_.SleepFor(d); }
  std::cv_status WaitUntil(std::condition_variable& cv,
                           std::unique_lock<std::mutex>& lock,
                           Clock::time_point deadline) override {
    return clock_.WaitUntil(cv, lock, deadline);
  }
  void Advance(Clock::duration d) { clock_.Advance(d); }

 private:
  const Clock::duration tick_;
  mutable serve::VirtualTimeSource clock_;
};

// The early-shed gate: once the ladder floor's p95 is observed (warmed by
// the first wave's queue-timeout sheds), a request whose entire budget is
// below it is answered through the fallback right at admission. The gate
// reads the budget from the one admission-time clock reading, so the
// clock reads Submit makes after it (each costing a tick here) cannot push
// a cold-gate request into an early shed.
TEST_F(ServeTest, EarlyShedCatchesBudgetsBelowTheFloor) {
  // A 2us floor lands in the [2, 3]us histogram bucket: p95 = 3us.
  TickingTimeSource clock(std::chrono::microseconds{2});
  ServeOptions options = UnitOptions();
  options.manual_pump = true;
  options.time_source = &clock;
  options.admission.enabled = true;
  options.admission.initial_limit = 64.0;  // not the constraint under test
  RecommendService service(model_, *dataset_, options);
  ASSERT_TRUE(service.Start().ok());

  const auto submit_doomed = [&] {
    ServeRequest req;
    req.user = dataset_->users[0];
    req.k = 5;
    req.timeout = std::chrono::microseconds{1};
    return service.Submit(req);
  };
  const auto drain = [&] {
    RecommendService::StartedRequest started;
    while (service.PumpStart(&started)) {
      service.PumpFinish(std::move(started));
    }
  };

  // Wave 1: the floor histogram is cold, so these queue; by drain time
  // their 1us budgets are long gone -> queue-timeout sheds that run the
  // popularity floor and warm its p95.
  constexpr int kWave1 = 5, kWave2 = 15;
  std::vector<std::future<ServeResponse>> futures;
  for (int i = 0; i < kWave1; ++i) futures.push_back(submit_doomed());
  clock.Advance(std::chrono::milliseconds{2});
  drain();
  ASSERT_GE(service.admission().snapshot().floor_p95_us, 1);

  // Wave 2: the gate is armed; a 1us budget falls below the floor p95 and
  // sheds inline.
  for (int i = 0; i < kWave2; ++i) futures.push_back(submit_doomed());
  clock.Advance(std::chrono::milliseconds{2});
  drain();

  for (auto& f : futures) {
    const ServeResponse resp = f.get();
    EXPECT_TRUE(resp.load_shed);
    EXPECT_EQ(resp.level, DegradationLevel::kPopularity);
    EXPECT_EQ(resp.attempts, 0);  // the model never started
  }
  service.Stop();

  const RecommendService::Stats stats = service.stats();
  EXPECT_EQ(stats.load_shed, kWave1 + kWave2);
  EXPECT_EQ(stats.early_sheds + stats.queue_timeout_sheds, kWave1 + kWave2);
  EXPECT_GE(stats.queue_timeout_sheds, kWave1);
  EXPECT_GE(stats.early_sheds, 1);
}

TEST_F(ServeTest, MetricsTextExposesServingSurface) {
  RecommendService service(model_, *dataset_, UnitOptions());
  ASSERT_TRUE(service.Start().ok());
  EXPECT_EQ(service.Recommend(dataset_->users[0], 5, kNoDeadline).level,
            DegradationLevel::kFull);
  service.Stop();

  const std::string text = service.MetricsText();
  for (const char* needle : {
           "cadrl_serve_requests_total 1",
           "cadrl_serve_level_total{level=\"full\"} 1",
           "cadrl_serve_shed_total{reason=\"queue_timeout\"} 0",
           "cadrl_serve_breaker_state{stage=\"primary\"} 0",
           "cadrl_serve_breaker_trips_total{stage=\"cache\"} 0",
           "cadrl_serve_admission_limit ",
           "cadrl_serve_admission_latency_target_us ",
           "cadrl_serve_latency_us_bucket{level=\"full\",le=\"+Inf\"} 1",
           "cadrl_serve_latency_us_count{level=\"full\"} 1",
           "cadrl_serve_primary_latency_us_count 1",
           "cadrl_serve_queue_wait_us_count 1",
           "cadrl_serve_snapshot_age_seconds ",
           "cadrl_serve_arena_bytes{section=\"store_rows\"}",
       }) {
    EXPECT_NE(text.find(needle), std::string::npos)
        << "missing metric: " << needle << "\n"
        << text;
  }
}

TEST_F(ServeTest, ValidateRejectsBadOptions) {
  ServeOptions o;
  o.queue_capacity = 0;
  EXPECT_TRUE(o.Validate().IsInvalidArgument());
  o = ServeOptions();
  o.max_attempts = 0;
  EXPECT_TRUE(o.Validate().IsInvalidArgument());
  o = ServeOptions();
  o.top_k = 0;
  EXPECT_TRUE(o.Validate().IsInvalidArgument());
  o = ServeOptions();
  o.admission.decrease_factor = 2.0;
  EXPECT_TRUE(o.Validate().IsInvalidArgument());
  EXPECT_TRUE(ServeOptions().Validate().ok());
}

TEST(DegradationLevelTest, Names) {
  EXPECT_STREQ(serve::DegradationLevelName(DegradationLevel::kFull), "full");
  EXPECT_STREQ(serve::DegradationLevelName(DegradationLevel::kCached),
               "cached");
  EXPECT_STREQ(serve::DegradationLevelName(DegradationLevel::kPopularity),
               "popularity");
  EXPECT_STREQ(serve::DegradationLevelName(DegradationLevel::kFailed),
               "failed");
}

}  // namespace
}  // namespace cadrl
