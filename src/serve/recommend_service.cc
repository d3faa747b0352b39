#include "serve/recommend_service.h"

#include <algorithm>
#include <map>
#include <sstream>
#include <utility>

#include "util/failpoint.h"
#include "util/logging.h"

namespace cadrl {
namespace serve {

namespace {

// Primary-stage failures worth retrying: transient faults of the model or
// its dependencies. Deadline/cancellation are the request's own verdicts and
// InvalidArgument/NotFound will not change on retry.
bool Retryable(const Status& status) {
  return status.IsInternal() || status.IsIOError();
}

}  // namespace

const char* DegradationLevelName(DegradationLevel level) {
  switch (level) {
    case DegradationLevel::kFull:
      return "full";
    case DegradationLevel::kCached:
      return "cached";
    case DegradationLevel::kPopularity:
      return "popularity";
    case DegradationLevel::kFailed:
      return "failed";
  }
  return "unknown";
}

Status ServeOptions::Validate() const {
  if (threads < 0) return Status::InvalidArgument("threads must be >= 0");
  if (queue_capacity < 1) {
    return Status::InvalidArgument("queue_capacity must be >= 1");
  }
  if (max_attempts < 1) {
    return Status::InvalidArgument("max_attempts must be >= 1");
  }
  if (backoff_base.count() < 0) {
    return Status::InvalidArgument("backoff_base must be >= 0");
  }
  if (top_k < 1) return Status::InvalidArgument("top_k must be >= 1");
  return admission.Validate();
}

RecommendService::RecommendService(eval::Recommender* model,
                                   const data::Dataset& dataset,
                                   const ServeOptions& options)
    : model_(model),
      options_(options),
      time_(options.time_source != nullptr ? options.time_source
                                           : RealTimeSource::Get()),
      base_rng_(options.seed) {
  CADRL_CHECK(model_ != nullptr);
  CADRL_CHECK(options_.Validate().ok()) << options_.Validate().ToString();

  // Popularity index: train-interaction counts, normalized to (0, 1].
  // std::map keeps the count aggregation id-ordered so the sort tie-break
  // (count desc, id asc) is stable by construction.
  std::map<kg::EntityId, int64_t> counts;
  for (size_t i = 0; i < dataset.users.size(); ++i) {
    const kg::EntityId user = dataset.users[i];
    users_.insert(user);
    auto& train = train_sets_[user];
    for (kg::EntityId item : dataset.train_items[i]) {
      train.insert(item);
      ++counts[item];
    }
  }
  int64_t max_count = 1;
  for (const auto& [item, count] : counts) max_count = std::max(max_count, count);
  popular_.reserve(counts.size());
  for (const auto& [item, count] : counts) {
    popular_.emplace_back(item, static_cast<double>(count) /
                                    static_cast<double>(max_count));
  }
  std::stable_sort(popular_.begin(), popular_.end(),
                   [](const auto& a, const auto& b) {
                     if (a.second != b.second) return a.second > b.second;
                     return a.first < b.first;
                   });

  primary_breaker_ = std::make_unique<CircuitBreaker>(
      options_.breaker_failure_threshold, options_.breaker_cooldown, time_);
  cache_breaker_ = std::make_unique<CircuitBreaker>(
      options_.breaker_failure_threshold, options_.breaker_cooldown, time_);
  admission_ = std::make_unique<AdmissionController>(
      options_.admission,
      std::chrono::duration_cast<std::chrono::microseconds>(
          options_.default_timeout),
      time_);

  last_snapshot_at_ = time_->Now();
}

RecommendService::~RecommendService() { Stop(); }

Status RecommendService::Start() {
  std::lock_guard<std::mutex> lock(queue_mu_);
  if (started_) return Status::FailedPrecondition("service already started");
  if (stopping_) return Status::FailedPrecondition("service already stopped");
  started_ = true;
  if (options_.manual_pump) return Status::OK();  // the caller is the worker
  const int workers = ThreadPool::ClampThreads(options_.threads);
  pool_ = std::make_unique<ThreadPool>(workers);
  // The dispatcher parks one ParallelFor whose indices are the long-lived
  // worker loops; each loop drains the queue until Stop(). ParallelFor's
  // chunk cursor only hands a thread its next index after the previous one
  // returned, which happens only at shutdown — so exactly `workers` loops
  // run concurrently.
  dispatcher_ = std::thread([this, workers] {
    pool_
        ->ParallelFor(0, workers, 1,
                      [this](int64_t) {
                        WorkerLoop();
                        return Status::OK();
                      })
        .ok();
  });
  return Status::OK();
}

void RecommendService::Stop() {
  std::deque<Pending> leftovers;
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    if (stopping_) return;
    stopping_ = true;
  }
  queue_cv_.notify_all();
  if (dispatcher_.joinable()) dispatcher_.join();
  pool_.reset();
  {
    // Workers drain the queue before exiting, so this is normally empty; it
    // is non-empty only when Start() was never called or in manual-pump
    // mode with requests left unpumped.
    std::lock_guard<std::mutex> lock(queue_mu_);
    leftovers.swap(queue_);
  }
  for (Pending& p : leftovers) {
    p.promise.set_value(Process(p.request, p.ctx, p.accepted_at,
                                Status::Cancelled("service stopped")));
    admission_->Release();
  }
}

RequestContext RecommendService::MakeContext(
    const ServeRequest& req, TimeSource::Clock::time_point accepted_at) const {
  if (req.timeout.count() < 0) return RequestContext();  // unbounded
  const auto timeout = req.timeout.count() == 0
                           ? std::chrono::duration_cast<std::chrono::microseconds>(
                                 options_.default_timeout)
                           : req.timeout;
  return RequestContext::WithDeadline(accepted_at + timeout, time_);
}

std::future<ServeResponse> RecommendService::Submit(ServeRequest req) {
  if (req.k <= 0) req.k = options_.top_k;
  const auto accepted_at = time_->Now();

  std::promise<ServeResponse> promise;
  std::future<ServeResponse> future = promise.get_future();
  Status admission = Status::OK();
  RequestContext ctx;
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    if (req.id == 0) req.id = next_id_++;
    ctx = MakeContext(req, accepted_at);
    // Admission gates, cheapest answer first: a request whose budget cannot
    // cover even the ladder floor's observed p95 is answered from the
    // fallback right here; then the AIMD concurrency limit; the fixed
    // bounded queue stays as the backstop. The budget is measured from the
    // one `accepted_at` reading, so the verdict depends only on the
    // request's timeout and the floor p95, not on how long this lock took.
    if (!started_ || stopping_) {
      admission = Status::FailedPrecondition("service not running");
    } else if (ctx.has_deadline() &&
               admission_->ShouldShedEarly(ctx.deadline() - accepted_at)) {
      admission = Status::ResourceExhausted(
          "admission: remaining budget below ladder-floor p95");
      CountShed(&Stats::early_sheds);
    } else if (!admission_->TryAcquire()) {
      admission = Status::ResourceExhausted(
          "admission: adaptive concurrency limit reached");
      CountShed(&Stats::limit_sheds);
    } else if (static_cast<int>(queue_.size()) >= options_.queue_capacity) {
      admission_->Release();
      admission = Status::ResourceExhausted("admission queue full");
      CountShed(&Stats::queue_full_sheds);
    } else {
      queue_.push_back(Pending{req, ctx, accepted_at, std::move(promise)});
    }
  }
  if (admission.ok()) {
    queue_cv_.notify_one();
    return future;
  }
  // Load shed / not running: answer inline on the caller's thread from the
  // degraded ladder so the future always resolves.
  promise.set_value(Process(req, ctx, accepted_at, admission));
  return future;
}

ServeResponse RecommendService::Recommend(kg::EntityId user, int k,
                                          std::chrono::microseconds timeout) {
  ServeRequest req;
  req.user = user;
  req.k = k;
  req.timeout = timeout;
  return Submit(req).get();
}

Status RecommendService::ReloadFromCheckpoint(const std::string& path) {
  const Status status = model_->ReloadFromCheckpoint(path);
  if (status.ok()) {
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++stats_.reloads;
    last_snapshot_at_ = time_->Now();
  }
  return status;
}

Status RecommendService::ReloadFromShardDir(const std::string& dir) {
  const eval::Recommender::ShardServingStatus before = model_->ShardStatus();
  CADRL_RETURN_IF_ERROR(model_->ReloadFromShardDir(dir));
  const eval::Recommender::ShardServingStatus after = model_->ShardStatus();
  // An unchanged directory republishes nothing — same generation, same
  // per-shard generations — and must not look like a reload in the stats.
  const bool published = before.generation != after.generation ||
                         before.shard_generations != after.shard_generations ||
                         before.shard_count != after.shard_count;
  std::lock_guard<std::mutex> lock(stats_mu_);
  if (published) {
    ++stats_.reloads;
    ++stats_.shard_reloads;
    stats_.shards_remapped += after.shards_remapped;
    stats_.shards_reused += after.shards_reused;
    last_snapshot_at_ = time_->Now();
  }
  RefreshShardStampsLocked(after);
  return Status::OK();
}

void RecommendService::RefreshShardStampsLocked(
    const eval::Recommender::ShardServingStatus& status) const {
  const TimeSource::Clock::time_point now = time_->Now();
  const size_t n = status.shard_generations.size();
  shard_published_at_.resize(n, now);
  shard_stamp_generations_.resize(n, ~uint64_t{0});
  for (size_t i = 0; i < n; ++i) {
    if (shard_stamp_generations_[i] != status.shard_generations[i]) {
      shard_stamp_generations_[i] = status.shard_generations[i];
      shard_published_at_[i] = now;
    }
  }
}

void RecommendService::WorkerLoop() {
  for (;;) {
    Pending pending;
    {
      std::unique_lock<std::mutex> lock(queue_mu_);
      queue_cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping_ and fully drained
      pending = std::move(queue_.front());
      queue_.pop_front();
    }
    const Status verdict = QueueWaitVerdict(pending);
    pending.promise.set_value(
        Process(pending.request, pending.ctx, pending.accepted_at, verdict));
    admission_->Release();
  }
}

Status RecommendService::QueueWaitVerdict(const Pending& pending) {
  queue_wait_.Record(time_->Now() - pending.accepted_at);
  if (!admission_->enabled()) return Status::OK();
  if (!pending.ctx.has_deadline() || !pending.ctx.expired()) {
    return Status::OK();
  }
  // The budget burned away in FIFO order: shed through the ladder now
  // instead of starting doomed work, and treat it as the overload signal it
  // is.
  CountShed(&Stats::queue_timeout_sheds);
  admission_->OnQueueTimeout();
  return Status::ResourceExhausted("shed: deadline budget spent in queue");
}

bool RecommendService::PumpStart(StartedRequest* out) {
  CADRL_CHECK(options_.manual_pump);
  for (;;) {
    Pending pending;
    {
      std::lock_guard<std::mutex> lock(queue_mu_);
      if (queue_.empty()) return false;
      pending = std::move(queue_.front());
      queue_.pop_front();
    }
    const Status verdict = QueueWaitVerdict(pending);
    if (!verdict.ok()) {
      pending.promise.set_value(
          Process(pending.request, pending.ctx, pending.accepted_at, verdict));
      admission_->Release();
      continue;
    }
    out->expired_at_start_ =
        pending.ctx.has_deadline() && pending.ctx.expired();
    out->pending_ = std::move(pending);
    out->valid_ = true;
    return true;
  }
}

void RecommendService::PumpFinish(StartedRequest started) {
  CADRL_CHECK(started.valid_);
  Pending& pending = started.pending_;
  pending.promise.set_value(
      Process(pending.request, pending.ctx, pending.accepted_at,
              Status::OK()));
  admission_->Release();
}

ServeResponse RecommendService::Process(
    const ServeRequest& req, const RequestContext& ctx,
    RequestContext::Clock::time_point accepted_at, const Status& admission) {
  // Everything stochastic about this request — injected-fault decisions and
  // backoff jitter — keys off the request id, never the worker thread.
  ScopedFailpointToken token(req.id);
  Rng rng = base_rng_.Fork(req.id);

  ServeResponse resp;
  resp.request_id = req.id;
  resp.load_shed = admission.IsResourceExhausted();

  if (users_.find(req.user) == users_.end()) {
    resp.level = DegradationLevel::kFailed;
    resp.status = Status::InvalidArgument("unknown user");
    resp.primary_status = resp.status;
    FinishResponse(accepted_at, &resp);
    return resp;
  }

  bool served = false;
  if (admission.ok()) {
    if (primary_breaker_->Allow()) {
      resp.primary_status = TryPrimary(req, ctx, &rng, &resp);
      // The AIMD signal: admission -> primary-stage completion (queue wait
      // + every attempt), success or failure — both consumed capacity.
      const auto primary_elapsed = time_->Now() - accepted_at;
      primary_latency_.Record(primary_elapsed);
      admission_->OnPrimarySample(primary_elapsed);
      if (resp.primary_status.ok()) {
        primary_breaker_->RecordSuccess();
        {
          std::lock_guard<std::mutex> lock(cache_mu_);
          last_good_[req.user] = resp.recs;
        }
        resp.level = DegradationLevel::kFull;
        resp.status = Status::OK();
        served = true;
      } else {
        primary_breaker_->RecordFailure();
      }
    } else {
      resp.primary_status =
          Status::ResourceExhausted("primary stage circuit breaker open");
      std::lock_guard<std::mutex> lock(stats_mu_);
      ++stats_.breaker_rejections;
    }
  } else {
    resp.primary_status = admission;
  }

  if (!served && cache_breaker_->Allow()) {
    if (CADRL_FAILPOINT("serve/cache-lookup")) {
      cache_breaker_->RecordFailure();
    } else if (TryCache(req.user, &resp.recs)) {
      cache_breaker_->RecordSuccess();
      resp.level = DegradationLevel::kCached;
      served = true;
    } else {
      // A miss is a healthy answer from the cache dependency.
      cache_breaker_->RecordSuccess();
    }
  }

  if (!served) {
    // Ladder floor: pure in-memory lookup, cannot fail. Its execution time
    // feeds the early-shed gate — a future request whose remaining budget
    // can't cover even this stage's p95 is shed at admission.
    const auto floor_start = time_->Now();
    resp.recs = PopularityFor(req.user, req.k);
    admission_->OnFloorSample(time_->Now() - floor_start);
    resp.level = DegradationLevel::kPopularity;
    served = true;
  }

  if (resp.level != DegradationLevel::kFull) {
    // A degraded answer is still a terminal answer; only the admission
    // verdict (load shed / service stopped) overrides OK so callers can
    // meter overload.
    resp.status = admission.ok() ? Status::OK() : admission;
  }
  FinishResponse(accepted_at, &resp);
  return resp;
}

Status RecommendService::TryPrimary(const ServeRequest& req,
                                    const RequestContext& ctx, Rng* rng,
                                    ServeResponse* resp) {
  Status status;
  for (int attempt = 1; attempt <= options_.max_attempts; ++attempt) {
    resp->attempts = attempt;
    if (attempt > 1) {
      std::lock_guard<std::mutex> lock(stats_mu_);
      ++stats_.retries;
    }
    status = ctx.Check();
    if (status.ok()) {
      resp->recs.clear();
      status = model_->Recommend(req.user, req.k, ctx, &resp->recs);
    }
    if (status.ok() && resp->recs.empty()) {
      status = Status::NotFound("model returned no candidates");
    }
    if (status.ok()) return status;
    if (!Retryable(status) || attempt == options_.max_attempts) return status;

    // Exponential backoff with jitter in [0.5, 1.0) of the nominal delay,
    // drawn from the request's own stream. Never sleep past the deadline —
    // give up immediately instead of burning the fallback stages' budget.
    const double jitter = 0.5 + 0.5 * rng->Uniform();
    const auto nominal = options_.backoff_base * (int64_t{1} << (attempt - 1));
    const auto delay = std::chrono::microseconds(
        static_cast<int64_t>(static_cast<double>(nominal.count()) * jitter));
    if (ctx.has_deadline() && delay >= ctx.remaining()) {
      return Status::DeadlineExceeded("no deadline budget left for retry")
          .Annotate(status.ToString());
    }
    if (delay.count() > 0) time_->SleepFor(delay);
  }
  return status;
}

bool RecommendService::TryCache(kg::EntityId user,
                                std::vector<eval::Recommendation>* out) {
  std::lock_guard<std::mutex> lock(cache_mu_);
  auto it = last_good_.find(user);
  if (it == last_good_.end()) return false;
  *out = it->second;
  return true;
}

std::vector<eval::Recommendation> RecommendService::PopularityFor(
    kg::EntityId user, int k) const {
  std::vector<eval::Recommendation> recs;
  recs.reserve(static_cast<size_t>(std::max(k, 0)));
  const auto train_it = train_sets_.find(user);
  for (const auto& [item, score] : popular_) {
    if (static_cast<int>(recs.size()) >= k) break;
    if (train_it != train_sets_.end() &&
        train_it->second.find(item) != train_it->second.end()) {
      continue;
    }
    eval::Recommendation rec;
    rec.item = item;
    rec.score = score;
    rec.path.user = user;  // no explanation path at this level
    recs.push_back(std::move(rec));
  }
  return recs;
}

void RecommendService::FinishResponse(
    RequestContext::Clock::time_point accepted_at, ServeResponse* resp) {
  const auto elapsed = time_->Now() - accepted_at;
  resp->latency_ms =
      std::chrono::duration<double, std::milli>(elapsed).count();
  level_latency_[static_cast<int>(resp->level)].Record(elapsed);
  RecordResponse(*resp);
}

void RecommendService::RecordResponse(const ServeResponse& resp) {
  std::lock_guard<std::mutex> lock(stats_mu_);
  ++stats_.requests;
  switch (resp.level) {
    case DegradationLevel::kFull:
      ++stats_.full;
      break;
    case DegradationLevel::kCached:
      ++stats_.cached;
      break;
    case DegradationLevel::kPopularity:
      ++stats_.popularity;
      break;
    case DegradationLevel::kFailed:
      ++stats_.failed;
      break;
  }
  if (resp.load_shed) ++stats_.load_shed;
}

void RecommendService::CountShed(int64_t Stats::* counter) {
  std::lock_guard<std::mutex> lock(stats_mu_);
  ++(stats_.*counter);
}

RecommendService::Stats RecommendService::stats() const {
  Stats out;
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    out = stats_;
  }
  const AdmissionController::Snapshot adm = admission_->snapshot();
  out.admission_limit = adm.limit;
  out.admission_inflight = adm.inflight;
  const eval::Recommender::ServingArena arena = model_->ServingArenaBytes();
  out.arena_store_row_bytes = static_cast<int64_t>(arena.store_row_bytes);
  out.arena_store_scale_bytes = static_cast<int64_t>(arena.store_scale_bytes);
  out.arena_policy_param_bytes =
      static_cast<int64_t>(arena.policy_param_bytes);
  const eval::Recommender::ShardServingStatus shards = model_->ShardStatus();
  out.shard_count = shards.shard_count;
  out.shard_mapped_bytes = static_cast<int64_t>(shards.mapped_bytes);
  out.shard_generation = static_cast<int64_t>(shards.generation);
  return out;
}

namespace {

// Emits one histogram in Prometheus exposition order: cumulative
// `_bucket{le=...}` series (trailing empty buckets folded into +Inf), then
// `_count` and summary quantiles. Latencies are in microseconds.
void EmitHistogram(const util::LatencyHistogram& hist, const std::string& name,
                   const std::string& labels, std::ostringstream* out) {
  const std::string brace_open = labels.empty() ? "{" : "{" + labels + ",";
  const auto buckets = hist.Snapshot();
  size_t last = 0;
  for (size_t b = 0; b < buckets.size(); ++b) {
    if (buckets[b] > 0) last = b;
  }
  int64_t cumulative = 0;
  for (size_t b = 0; b <= last; ++b) {
    cumulative += buckets[b];
    *out << name << "_bucket" << brace_open << "le=\""
         << util::LatencyHistogram::BucketUpperUs(b) << "\"} " << cumulative
         << "\n";
  }
  *out << name << "_bucket" << brace_open << "le=\"+Inf\"} " << cumulative
       << "\n";
  const std::string label_block = labels.empty() ? "" : "{" + labels + "}";
  *out << name << "_count" << label_block << " " << hist.TotalCount() << "\n";
  for (const double q : {0.5, 0.95, 0.99}) {
    *out << name << brace_open << "quantile=\"" << q << "\"} "
         << hist.PercentileUs(q) << "\n";
  }
}

}  // namespace

std::string RecommendService::MetricsText() const {
  const Stats s = stats();
  const AdmissionController::Snapshot adm = admission_->snapshot();
  TimeSource::Clock::time_point snapshot_at;
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    snapshot_at = last_snapshot_at_;
  }

  std::ostringstream out;
  auto counter = [&out](const char* name, const char* help, int64_t value) {
    out << "# HELP " << name << " " << help << "\n";
    out << "# TYPE " << name << " counter\n";
    out << name << " " << value << "\n";
  };

  counter("cadrl_serve_requests_total", "Requests answered (any level).",
          s.requests);
  out << "# HELP cadrl_serve_level_total Answers by degradation level.\n"
      << "# TYPE cadrl_serve_level_total counter\n";
  const int64_t by_level[4] = {s.full, s.cached, s.popularity, s.failed};
  for (int level = 0; level < 4; ++level) {
    out << "cadrl_serve_level_total{level=\""
        << DegradationLevelName(static_cast<DegradationLevel>(level)) << "\"} "
        << by_level[level] << "\n";
  }
  counter("cadrl_serve_load_shed_total", "Requests shed at admission/dequeue.",
          s.load_shed);
  out << "# HELP cadrl_serve_shed_total Shed breakdown by reason.\n"
      << "# TYPE cadrl_serve_shed_total counter\n"
      << "cadrl_serve_shed_total{reason=\"early_deadline\"} " << s.early_sheds
      << "\n"
      << "cadrl_serve_shed_total{reason=\"admission_limit\"} " << s.limit_sheds
      << "\n"
      << "cadrl_serve_shed_total{reason=\"queue_full\"} " << s.queue_full_sheds
      << "\n"
      << "cadrl_serve_shed_total{reason=\"queue_timeout\"} "
      << s.queue_timeout_sheds << "\n";
  counter("cadrl_serve_retries_total", "Primary attempts beyond the first.",
          s.retries);
  counter("cadrl_serve_breaker_rejections_total",
          "Primary attempts skipped because the breaker was open.",
          s.breaker_rejections);

  out << "# HELP cadrl_serve_breaker_state Breaker state "
         "(0=closed,1=open,2=half_open).\n"
      << "# TYPE cadrl_serve_breaker_state gauge\n";
  const struct {
    const char* stage;
    const CircuitBreaker* breaker;
  } breakers[] = {{"primary", primary_breaker_.get()},
                  {"cache", cache_breaker_.get()}};
  for (const auto& b : breakers) {
    out << "cadrl_serve_breaker_state{stage=\"" << b.stage << "\"} "
        << static_cast<int>(b.breaker->state()) << "\n";
  }
  out << "# HELP cadrl_serve_breaker_trips_total Times the breaker opened.\n"
      << "# TYPE cadrl_serve_breaker_trips_total counter\n";
  for (const auto& b : breakers) {
    out << "cadrl_serve_breaker_trips_total{stage=\"" << b.stage << "\"} "
        << b.breaker->trips() << "\n";
  }

  out << "# HELP cadrl_serve_admission_limit Current AIMD concurrency "
         "limit.\n"
      << "# TYPE cadrl_serve_admission_limit gauge\n"
      << "cadrl_serve_admission_limit " << adm.limit << "\n"
      << "# HELP cadrl_serve_admission_inflight Admitted requests in "
         "flight.\n"
      << "# TYPE cadrl_serve_admission_inflight gauge\n"
      << "cadrl_serve_admission_inflight " << adm.inflight << "\n"
      << "# HELP cadrl_serve_admission_latency_target_us AIMD latency "
         "target.\n"
      << "# TYPE cadrl_serve_admission_latency_target_us gauge\n"
      << "cadrl_serve_admission_latency_target_us "
      << admission_->latency_target().count() << "\n";
  counter("cadrl_serve_admission_increases_total",
          "Additive limit increases.", adm.increases);
  counter("cadrl_serve_admission_decreases_total",
          "Multiplicative limit decreases.", adm.decreases);
  counter("cadrl_serve_admission_breaches_total",
          "Windows whose p95 exceeded the latency target.", adm.breaches);
  out << "# HELP cadrl_serve_admission_floor_p95_us Observed p95 of the "
         "ladder floor (early-shed gate).\n"
      << "# TYPE cadrl_serve_admission_floor_p95_us gauge\n"
      << "cadrl_serve_admission_floor_p95_us " << adm.floor_p95_us << "\n";

  out << "# HELP cadrl_serve_latency_us End-to-end latency by terminal "
         "level (power-of-two us buckets).\n"
      << "# TYPE cadrl_serve_latency_us histogram\n";
  for (int level = 0; level < 4; ++level) {
    EmitHistogram(
        level_latency_[level], "cadrl_serve_latency_us",
        std::string("level=\"") +
            DegradationLevelName(static_cast<DegradationLevel>(level)) + "\"",
        &out);
  }
  out << "# HELP cadrl_serve_primary_latency_us Admission -> primary-stage "
         "completion (the AIMD signal).\n"
      << "# TYPE cadrl_serve_primary_latency_us histogram\n";
  EmitHistogram(primary_latency_, "cadrl_serve_primary_latency_us", "", &out);
  out << "# HELP cadrl_serve_queue_wait_us Submit -> dequeue wait.\n"
      << "# TYPE cadrl_serve_queue_wait_us histogram\n";
  EmitHistogram(queue_wait_, "cadrl_serve_queue_wait_us", "", &out);

  counter("cadrl_serve_snapshot_reloads_total",
          "Successful snapshot hot-swaps.", s.reloads);
  out << "# HELP cadrl_serve_snapshot_age_seconds Age of the serving "
         "snapshot.\n"
      << "# TYPE cadrl_serve_snapshot_age_seconds gauge\n"
      << "cadrl_serve_snapshot_age_seconds "
      << std::chrono::duration<double>(time_->Now() - snapshot_at).count()
      << "\n";

  // Shard-dir snapshot surface (zeros / no per-shard series when the
  // snapshot is not shard-dir-backed).
  counter("cadrl_serve_shard_reloads_total",
          "Snapshot hot-swaps served from a shard directory.",
          s.shard_reloads);
  counter("cadrl_serve_shards_remapped_total",
          "Shards freshly mapped across all shard-dir reloads.",
          s.shards_remapped);
  counter("cadrl_serve_shards_reused_total",
          "Shard mappings inherited across all shard-dir reloads.",
          s.shards_reused);
  out << "# HELP cadrl_serve_shards_mapped Entity-range shards backing the "
         "serving snapshot.\n"
      << "# TYPE cadrl_serve_shards_mapped gauge\n"
      << "cadrl_serve_shards_mapped " << s.shard_count << "\n"
      << "# HELP cadrl_serve_shard_mapped_bytes Bytes of all shard "
         "mappings (incl. the meta shard).\n"
      << "# TYPE cadrl_serve_shard_mapped_bytes gauge\n"
      << "cadrl_serve_shard_mapped_bytes " << s.shard_mapped_bytes << "\n"
      << "# HELP cadrl_serve_snapshot_generation Manifest generation of the "
         "serving snapshot.\n"
      << "# TYPE cadrl_serve_snapshot_generation gauge\n"
      << "cadrl_serve_snapshot_generation " << s.shard_generation << "\n";
  {
    const eval::Recommender::ShardServingStatus shards = model_->ShardStatus();
    std::lock_guard<std::mutex> lock(stats_mu_);
    RefreshShardStampsLocked(shards);
    if (!shard_published_at_.empty()) {
      const TimeSource::Clock::time_point now = time_->Now();
      out << "# HELP cadrl_serve_shard_age_seconds Time since each shard "
             "was last republished.\n"
          << "# TYPE cadrl_serve_shard_age_seconds gauge\n";
      for (size_t i = 0; i < shard_published_at_.size(); ++i) {
        out << "cadrl_serve_shard_age_seconds{shard=\"" << i << "\"} "
            << std::chrono::duration<double>(now - shard_published_at_[i])
                   .count()
            << "\n";
      }
    }
  }

  out << "# HELP cadrl_serve_arena_bytes Serving-arena footprint by "
         "section.\n"
      << "# TYPE cadrl_serve_arena_bytes gauge\n"
      << "cadrl_serve_arena_bytes{section=\"store_rows\"} "
      << s.arena_store_row_bytes << "\n"
      << "cadrl_serve_arena_bytes{section=\"store_scales\"} "
      << s.arena_store_scale_bytes << "\n"
      << "cadrl_serve_arena_bytes{section=\"policy_params\"} "
      << s.arena_policy_param_bytes << "\n";
  return out.str();
}

}  // namespace serve
}  // namespace cadrl
