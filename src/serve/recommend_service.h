#ifndef CADRL_SERVE_RECOMMEND_SERVICE_H_
#define CADRL_SERVE_RECOMMEND_SERVICE_H_

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "data/dataset.h"
#include "eval/recommender.h"
#include "serve/admission_controller.h"
#include "serve/circuit_breaker.h"
#include "serve/time_source.h"
#include "util/deadline.h"
#include "util/latency_histogram.h"
#include "util/rng.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace cadrl {
namespace serve {

// How much of the full CADRL answer a response preserves. Levels are
// ordered: every fallback step moves strictly down the ladder and the
// ladder's floor (popularity) cannot fail, so every admitted request gets a
// terminal answer.
enum class DegradationLevel {
  kFull = 0,        // CADRL beam search with explanation paths
  kCached = 1,      // last successful full answer for this user
  kPopularity = 2,  // global popularity ranking, no paths
  kFailed = 3,      // no answer (invalid request)
};

const char* DegradationLevelName(DegradationLevel level);

struct ServeRequest {
  // Fault-domain / RNG stream id. 0 auto-assigns a fresh id; chaos tests
  // pass explicit ids so each request's injected-fault pattern and backoff
  // jitter replay identically across runs regardless of thread scheduling.
  uint64_t id = 0;
  kg::EntityId user = kg::kInvalidEntity;
  int k = 0;  // <= 0 uses ServeOptions::top_k
  // Deadline budget measured from Submit (queue wait counts). Zero uses
  // ServeOptions::default_timeout; negative means no deadline.
  std::chrono::microseconds timeout{0};
};

struct ServeResponse {
  uint64_t request_id = 0;
  // Terminal status of the request. OK whenever `recs` holds a usable
  // (possibly degraded) answer; kResourceExhausted when the request was
  // load-shed at admission (a degraded answer is still attached); an error
  // only when even the ladder floor was unreachable (kFailed).
  Status status;
  // Outcome of the full-CADRL stage — why degradation happened. OK at
  // kFull; kDeadlineExceeded / kCancelled / kInternal / kResourceExhausted
  // ("circuit breaker open") otherwise.
  Status primary_status;
  DegradationLevel level = DegradationLevel::kFailed;
  std::vector<eval::Recommendation> recs;
  int attempts = 0;      // primary-stage tries (0 when the stage was skipped)
  bool load_shed = false;
  double latency_ms = 0.0;  // Submit -> response, queue wait included
};

struct ServeOptions {
  // Serving workers (total parallelism of the underlying util/thread_pool;
  // 0 = one per hardware thread).
  int threads = 4;
  // Bounded admission queue; Submit beyond this load-sheds.
  int queue_capacity = 64;
  // Total tries of the full-CADRL stage per request (1 = no retry).
  int max_attempts = 3;
  // Backoff before retry attempt a is base * 2^(a-1), scaled by a jitter
  // factor in [0.5, 1.0) drawn from the request's forked RNG stream —
  // deterministic per (seed, request id). Never sleeps past the deadline.
  std::chrono::microseconds backoff_base{500};
  // Deadline for requests that don't carry their own.
  std::chrono::milliseconds default_timeout{250};
  // Consecutive full-stage failures that trip the primary circuit breaker;
  // <= 0 disables both breakers (used by the chaos determinism suite).
  int breaker_failure_threshold = 5;
  // Open -> half-open probe delay.
  std::chrono::milliseconds breaker_cooldown{100};
  // Default k for requests with k <= 0.
  int top_k = 10;
  // Seed of the service RNG; request streams fork off it by request id.
  uint64_t seed = 11;
  // Clock behind every timed decision the service makes — request
  // deadlines, queue waits, retry backoff, breaker cooldowns
  // (DESIGN.md §15). Null = the monotonic clock; tests and the overload
  // harness inject a VirtualTimeSource. Non-owning, must outlive the
  // service; non-const because backoff *sleeps* on it (a virtual source
  // advances when slept on).
  TimeSource* time_source = nullptr;
  // Adaptive admission (AIMD concurrency limiting + queue-wait timeout and
  // early-deadline shedding, DESIGN.md §15). Disabled by default; the
  // fixed bounded queue above stays as the backstop either way.
  AdmissionOptions admission;
  // Manual-pump mode for the deterministic overload harness: Start()
  // spawns no workers; a single caller thread drives execution with
  // PumpStart/PumpFinish against a virtual clock. Submit still queues
  // normally.
  bool manual_pump = false;

  Status Validate() const;
};

// Deadline-aware serving front end over any eval::Recommender
// (DESIGN.md §11): bounded admission queue with load shedding, per-request
// retries with seeded exponential backoff + jitter, cooperative
// cancellation through RequestContext, and a graceful-degradation fallback
// chain (full -> cached last-good -> popularity) guarded by per-stage
// circuit breakers.
//
// Determinism contract: a request's degradation decision is a pure
// function of (service seed, request id) whenever the decision is driven
// by injected faults rather than wall-clock deadline crossings and the
// breakers are disabled — each request processes on one worker with its
// failpoint thread-token set to its id and its RNG forked by its id, so
// thread interleaving cannot leak into the decision. The chaos suite locks
// this in byte for byte.
class RecommendService {
 public:
  // `model` must already be Fit and outlive the service; `dataset` is only
  // read during construction (popularity index, user/train-item sets).
  RecommendService(eval::Recommender* model, const data::Dataset& dataset,
                   const ServeOptions& options);
  ~RecommendService();  // Stop()s if still running

  RecommendService(const RecommendService&) = delete;
  RecommendService& operator=(const RecommendService&) = delete;

  // Spawns the serving workers. Must be called once before Submit.
  Status Start();

  // Drains the queue (every admitted request still gets its terminal
  // answer), then joins the workers. Idempotent.
  void Stop();

  // Admits `req` into the bounded queue and returns a future for its
  // terminal response. When the queue is full (or the service is not
  // running) the request is answered inline on the caller's thread from
  // the degraded ladder — load shedding never leaves a future unresolved.
  std::future<ServeResponse> Submit(ServeRequest req);

  // Blocking convenience wrapper.
  ServeResponse Recommend(kg::EntityId user, int k = 0,
                          std::chrono::microseconds timeout =
                              std::chrono::microseconds{0});

  // Hot-swaps the model's serving snapshot to the checkpoint at `path`
  // while the service keeps running: the model-level RCU swap guarantees
  // requests already in flight finish on the snapshot they started with
  // and no request ever observes a torn model (serve_chaos_test locks this
  // in under concurrent load). Returns the model's status — e.g.
  // kFailedPrecondition for models without live reload, kCorruption for a
  // bad checkpoint — and leaves the old snapshot serving on any failure.
  Status ReloadFromCheckpoint(const std::string& path);

  // Zero-parse variant over a compiled shard directory (DESIGN.md §16):
  // the model opens + maps + validates the shards and republishes with the
  // same RCU swap guarantees as ReloadFromCheckpoint; a delta publish
  // remaps only the shards whose manifest entry changed. An unchanged
  // directory is a cheap no-op (no republish, no reload counted), so a
  // polling reloader can call this at a fixed cadence. Returns the model's
  // status (kFailedPrecondition for models without a shard-dir backend)
  // and leaves the old snapshot serving on any failure.
  Status ReloadFromShardDir(const std::string& dir);

  struct Stats {
    int64_t requests = 0;
    int64_t full = 0;
    int64_t cached = 0;
    int64_t popularity = 0;
    int64_t failed = 0;
    int64_t load_shed = 0;
    // Shed breakdown (each also counted in load_shed; the remainder of
    // load_shed is queue_full_sheds, kept explicit for the metrics).
    int64_t early_sheds = 0;   // admission: budget below ladder-floor p95
    int64_t limit_sheds = 0;   // admission: AIMD concurrency limit reached
    int64_t queue_full_sheds = 0;     // admission: bounded queue backstop
    int64_t queue_timeout_sheds = 0;  // dequeue: budget burned in the queue
    int64_t retries = 0;             // extra primary attempts beyond the first
    int64_t breaker_rejections = 0;  // primary attempts skipped: breaker open
    int64_t reloads = 0;             // successful snapshot hot-swaps
    // Shard-dir reload accounting (ReloadFromShardDir; also counted in
    // reloads). shards_remapped/shards_reused accumulate across reloads —
    // a healthy delta pipeline shows reused >> remapped.
    int64_t shard_reloads = 0;
    int64_t shards_remapped = 0;
    int64_t shards_reused = 0;
    // AIMD state sampled at stats() time.
    double admission_limit = 0.0;
    int64_t admission_inflight = 0;
    // Serving-arena footprint of the model's current snapshot (zeros for
    // models without a compiled arena); sampled at stats() time so a
    // hot-swap to a different precision shows up immediately.
    int64_t arena_store_row_bytes = 0;
    int64_t arena_store_scale_bytes = 0;
    int64_t arena_policy_param_bytes = 0;
    // Shard-set accounting of the serving snapshot, sampled at stats()
    // time; zeros when the snapshot is not shard-dir-backed.
    int64_t shard_count = 0;
    int64_t shard_mapped_bytes = 0;
    int64_t shard_generation = 0;
  };
  Stats stats() const;

  // Prometheus-style text exposition of the whole serving surface: request
  // counters and the shed breakdown, breaker states, the AIMD limit,
  // per-stage latency quantiles + cumulative bucket counts, snapshot
  // generation/age and serving-arena bytes.
  std::string MetricsText() const;

  const CircuitBreaker& primary_breaker() const { return *primary_breaker_; }
  const CircuitBreaker& cache_breaker() const { return *cache_breaker_; }
  const AdmissionController& admission() const { return *admission_; }

  const ServeOptions& options() const { return options_; }

 private:
  struct Pending {
    ServeRequest request;
    RequestContext ctx;
    RequestContext::Clock::time_point accepted_at;
    std::promise<ServeResponse> promise;
  };

 public:
  // ---- Manual-pump mode (ServeOptions::manual_pump) ----------------------
  // The overload harness (serve/overload_harness.h) separates *starting* a
  // request from *finishing* it so a discrete-event loop can charge the
  // model's simulated service time in between: PumpStart performs the
  // dequeue-time decisions (queue-wait recording, stale-request shedding)
  // at assignment time, the harness advances the virtual clock by the
  // service time, and PumpFinish runs the pipeline at completion time.

  // Move-only handle for a request between PumpStart and PumpFinish.
  class StartedRequest {
   public:
    StartedRequest() = default;
    StartedRequest(StartedRequest&&) = default;
    StartedRequest& operator=(StartedRequest&&) = default;

    uint64_t id() const { return pending_.request.id; }
    // True when the request's deadline had already passed at dequeue
    // (possible only with adaptive admission off — on, PumpStart sheds
    // such requests itself). The harness charges these starts the ladder
    // skim cost instead of a model execution, mirroring how a real worker
    // skips the model for a request whose first ctx check fails.
    bool expired_at_start() const { return expired_at_start_; }

   private:
    friend class RecommendService;
    Pending pending_;
    bool valid_ = false;
    bool expired_at_start_ = false;
  };

  // Dequeues until a startable request is found (shedding stale ones
  // through the ladder along the way, exactly like a worker would) or the
  // queue drains. Returns false when nothing is left to start.
  bool PumpStart(StartedRequest* out);

  // Completes a started request at the current (virtual) time: runs the
  // full pipeline, resolves the future, releases the admission slot.
  void PumpFinish(StartedRequest started);

 private:

  // Builds `ctx` for a request: its deadline is `accepted_at` plus the
  // request's timeout, so it costs no further clock read.
  RequestContext MakeContext(const ServeRequest& req,
                             TimeSource::Clock::time_point accepted_at) const;

  // Runs one request to its terminal answer. A non-OK `admission` skips
  // the primary stage (load shed / service stopped) and is surfaced as the
  // response status.
  ServeResponse Process(const ServeRequest& req, const RequestContext& ctx,
                        RequestContext::Clock::time_point accepted_at,
                        const Status& admission);

  // Ladder stages.
  Status TryPrimary(const ServeRequest& req, const RequestContext& ctx,
                    Rng* rng, ServeResponse* resp);
  bool TryCache(kg::EntityId user, std::vector<eval::Recommendation>* out);
  std::vector<eval::Recommendation> PopularityFor(kg::EntityId user,
                                                  int k) const;

  void WorkerLoop();
  // Records the queue wait of a just-dequeued request and decides whether
  // its deadline budget burned away while it sat in FIFO order — adaptive
  // admission sheds it through the ladder (kResourceExhausted) instead of
  // starting doomed work.
  Status QueueWaitVerdict(const Pending& pending);
  // Stamps the latency and folds the response into the stats.
  void FinishResponse(RequestContext::Clock::time_point accepted_at,
                     ServeResponse* resp);
  void RecordResponse(const ServeResponse& resp);
  void CountShed(int64_t Stats::* counter);

  eval::Recommender* const model_;
  const ServeOptions options_;
  TimeSource* const time_;
  const Rng base_rng_;

  std::unordered_set<kg::EntityId> users_;
  std::unordered_map<kg::EntityId, std::unordered_set<kg::EntityId>>
      train_sets_;
  // Items sorted by train-interaction count desc (ties: id asc), with the
  // count normalized to (0, 1] as the fallback score.
  std::vector<std::pair<kg::EntityId, double>> popular_;

  std::unique_ptr<CircuitBreaker> primary_breaker_;
  std::unique_ptr<CircuitBreaker> cache_breaker_;
  std::unique_ptr<AdmissionController> admission_;

  mutable std::mutex cache_mu_;
  std::unordered_map<kg::EntityId, std::vector<eval::Recommendation>>
      last_good_;

  mutable std::mutex queue_mu_;
  std::condition_variable queue_cv_;
  std::deque<Pending> queue_;
  uint64_t next_id_ = 1;
  bool started_ = false;
  bool stopping_ = false;

  std::unique_ptr<ThreadPool> pool_;
  std::thread dispatcher_;

  // Updates the per-shard publish stamps from a fresh ShardStatus sample:
  // any shard whose manifest generation changed since the last sample is
  // stamped `now`. Callers hold stats_mu_. Const because the (mutable,
  // lock-guarded) stamps are also refreshed lazily at MetricsText scrape
  // time, which covers reloads done directly on the model.
  void RefreshShardStampsLocked(
      const eval::Recommender::ShardServingStatus& status) const;

  mutable std::mutex stats_mu_;
  Stats stats_;
  // When the current snapshot was published (construction or the last
  // successful reload); MetricsText reports its age. Guarded by stats_mu_.
  TimeSource::Clock::time_point last_snapshot_at_;
  // Per-shard publish stamps + the generations they were stamped at, for
  // the cadrl_serve_shard_age_seconds gauge. Guarded by stats_mu_;
  // mutable so the const MetricsText scrape can refresh them.
  mutable std::vector<TimeSource::Clock::time_point> shard_published_at_;
  mutable std::vector<uint64_t> shard_stamp_generations_;

  // Per-stage latency histograms (internally atomic): end-to-end latency
  // by terminal degradation level, the primary stage (queue wait +
  // attempts — the AIMD signal), and the raw queue wait.
  util::LatencyHistogram level_latency_[4];
  util::LatencyHistogram primary_latency_;
  util::LatencyHistogram queue_wait_;
};

}  // namespace serve
}  // namespace cadrl

#endif  // CADRL_SERVE_RECOMMEND_SERVICE_H_
