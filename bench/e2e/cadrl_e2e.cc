// cadrl_e2e: the end-to-end benchmark. One workload per run:
//
//   cadrl_e2e --workload <name|all> --seed <S> [--seconds <N>]
//             [--trace <spans.json>] [--smoke] [--tmpdir <dir>]
//             [--expect <BENCHMARK.json>]
//   cadrl_e2e compare <base.jsonl...> -- <head.jsonl...>
//
// Workloads (README.md says why each exists):
//   serve-beauty   open-loop Poisson load on RecommendService, then the
//                  service saturated
//   serve-reload   the same load, uniform users, with a writer publishing
//                  a one-row delta every 100 ms
//   train-beauty   Fit, evaluation and the 4-thread offline pass
//   offline-large  the same on BeautySim x10
//
// The first output line describes the host, then one JSON line per metric,
// then one summary line {"correct","attempted","failed","metrics"} whose
// metrics are the end-to-end ones, or with --trace the per-layer ones. The
// exit code is non-zero when any correctness check fails.

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "compare.h"
#include "eval/evaluator.h"
#include "infer/precision.h"
#include "json.h"
#include "probes.h"
#include "report.h"
#include "serve_load.h"
#include "trace.h"
#include "util/kernels.h"
#include "util/thread_pool.h"
#include "world.h"

#ifndef CADRL_E2E_BUILD_TYPE
#define CADRL_E2E_BUILD_TYPE "unknown"
#endif

namespace cadrl {
namespace e2e {
namespace {

// Offered load of the fixed-rate phase: under half of what the 3 workers
// answer when saturated on the 4-core reference host (README.md).
constexpr double kFixedRate = 600.0;
// Offered load of the serve probe in the offline workloads' traced run.
constexpr double kProbeRate = 300.0;
constexpr int kTopK = 10;
constexpr int kMaxPaths = 100;
constexpr int kSetups = 3;
constexpr int kServeWorkers = 3;
constexpr auto kPublishPeriod = std::chrono::milliseconds(100);

struct RunConfig {
  uint64_t seed = 1;
  double seconds = 15.0;
  bool traced = false;
  bool smoke = false;
  std::string tmpdir;  // private scratch directory of this process
};

double SecondsSince(Clock::time_point t) {
  return std::chrono::duration<double>(Clock::now() - t).count();
}

std::vector<kg::EntityId> DrawUsers(const data::Dataset& ds, size_t n,
                                    uint64_t seed) {
  std::vector<kg::EntityId> users = ds.users;
  Rng rng(seed);
  rng.Shuffle(&users);
  users.resize(std::min(n, users.size()));
  return users;
}

// Sets the workload up kSetups times from scratch (set-up time is reported
// as the median) and keeps the last model. Fit is deterministic, so every
// set-up must produce the same per-epoch rewards.
Fitted SetUpRepeated(const WorldSpec& spec, const std::string& shard_dir,
                     Report* r, SetupTimes* median) {
  std::vector<double> total, generate, fit;
  std::vector<float> first_rewards;
  Fitted f;
  for (int i = 0; i < kSetups; ++i) {
    f = Fitted{};
    if (!shard_dir.empty()) std::filesystem::remove_all(shard_dir);
    SetupTimes t;
    f = SetUp(spec, shard_dir, &t);
    total.push_back(t.total_s);
    generate.push_back(t.generate_s);
    fit.push_back(t.fit_s);
    if (i == 0) {
      first_rewards = f.model->epoch_rewards();
    } else if (f.model->epoch_rewards() != first_rewards) {
      r->Fail("Fit " + std::to_string(i + 1) +
              " gave different epoch rewards than Fit 1");
    }
  }
  median->total_s = Median(total);
  median->generate_s = Median(generate);
  median->fit_s = Median(fit);
  if (r->traced()) {
    r->Layer("data.generate_s", median->generate_s, "s", kSetups);
    r->Layer("core.fit_s", median->fit_s, "s", kSetups);
  } else {
    r->E2e("setup_s", median->total_s, "s", kSetups);
  }
  return f;
}

void Evaluate(const Fitted& f, Report* r) {
  ScopedSpan span("eval.evaluate");
  const auto t0 = Clock::now();
  const eval::EvalResult e = eval::EvaluateRecommender(
      f.model.get(), *f.dataset, kTopK, /*max_users=*/0, /*threads=*/4);
  if (r->traced()) {
    r->Layer("eval.evaluate_s", SecondsSince(t0), "s", e.users_evaluated);
  } else {
    r->E2e("ndcg10", e.ndcg, "%", e.users_evaluated);
  }
}

void ReportPeakRss(Report* r) {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  r->E2e("peak_rss_mb", static_cast<double>(usage.ru_maxrss) / 1024.0, "MB",
         1);
}

struct PublishTimes {
  std::vector<double> compile_ms, reload_ms, total_ms;

  void Add(double compile, double reload) {
    compile_ms.push_back(compile);
    reload_ms.push_back(reload);
    total_ms.push_back(compile + reload);
  }
};

void ReportPublishes(const PublishTimes& p, Report* r) {
  const int64_t n = static_cast<int64_t>(p.total_ms.size());
  r->Attempt(n, 0);
  if (r->traced()) {
    r->Layer("infer.compile_delta_ms", Median(p.compile_ms), "ms", n);
    r->Layer("serve.reload_ms_p50", Median(p.reload_ms), "ms", n);
  } else {
    r->E2e("publish_ms", Median(p.total_ms), "ms", n);
    r->Diag("publish_ms_p90", Quantile(p.total_ms, 0.9), "ms", n);
  }
}

// Back-to-back delta publishes through `service` (which need not be
// running): the publish path for workloads without a writer thread.
PublishTimes RunPublishes(DeltaPublisher* publisher,
                          serve::RecommendService* service, int count,
                          Report* r) {
  CADRL_CHECK_OK(publisher->PublishFull(service));
  PublishTimes times;
  for (int i = 0; i < count; ++i) {
    double compile = 0.0, reload = 0.0;
    const Status status = publisher->PublishDelta(service, &compile, &reload);
    if (!status.ok()) {
      r->Fail("publish: " + status.ToString());
      return times;
    }
    times.Add(compile, reload);
  }
  return times;
}

// The serve-reload writer: publishes one delta every period until stopped.
class Writer {
 public:
  struct Publish {
    int64_t start_ns = 0, end_ns = 0;
    double compile_ms = 0.0, reload_ms = 0.0;
  };

  Writer(DeltaPublisher* publisher, serve::RecommendService* service)
      : publisher_(publisher), service_(service), thread_([this] { Loop(); }) {}
  ~Writer() { Stop(); }
  Writer(const Writer&) = delete;
  Writer& operator=(const Writer&) = delete;

  void Stop() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    if (thread_.joinable()) thread_.join();
  }

  // Valid after Stop().
  const std::vector<Publish>& publishes() const { return publishes_; }
  const std::string& error() const { return error_; }

  // The publishes that started inside [begin_ns, end_ns].
  PublishTimes TimesWithin(int64_t begin_ns, int64_t end_ns) const {
    PublishTimes times;
    for (const Publish& p : publishes_) {
      if (p.start_ns >= begin_ns && p.start_ns <= end_ns) {
        times.Add(p.compile_ms, p.reload_ms);
      }
    }
    return times;
  }

 private:
  void Loop() {
    SpanRecorder& rec = SpanRecorder::Get();
    auto next = Clock::now() + kPublishPeriod;
    std::unique_lock<std::mutex> lock(mu_);
    while (!cv_.wait_until(lock, next, [this] { return stop_; })) {
      lock.unlock();
      double compile = 0.0, reload = 0.0;
      const auto start = Clock::now();
      const Status status =
          publisher_->PublishDelta(service_, &compile, &reload);
      const auto end = Clock::now();
      lock.lock();
      if (!status.ok()) {
        error_ = status.ToString();
        return;
      }
      publishes_.push_back({rec.ToNs(start), rec.ToNs(end), compile, reload});
      next = std::max(next + kPublishPeriod, Clock::now());
    }
  }

  DeltaPublisher* const publisher_;
  serve::RecommendService* const service_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::vector<Publish> publishes_;
  std::string error_;
  std::thread thread_;  // last: starts after the members it uses
};

// p99 of requests whose lifetime overlapped a publish vs the rest.
void ReportDuringPublish(const LoadRun& run,
                         const std::vector<Writer::Publish>& publishes,
                         double miss_ms, Report* r) {
  std::vector<double> during, outside;
  for (const Served& s : run.requests) {
    const auto it = std::lower_bound(
        publishes.begin(), publishes.end(), s.due_ns,
        [](const Writer::Publish& p, int64_t t) { return p.end_ns < t; });
    const bool overlaps = it != publishes.end() && it->start_ns <= s.finish_ns;
    (overlaps ? during : outside).push_back(s.full ? s.latency_ms : miss_ms);
  }
  r->Diag("serve.p99_ms_during_publish", Quantile(during, 0.99), "ms",
          static_cast<int64_t>(during.size()));
  r->Diag("serve.p99_ms_outside_publish", Quantile(outside, 0.99), "ms",
          static_cast<int64_t>(outside.size()));
}

// `ms` in time order. p99 is the median of the p99s of consecutive slices
// of 1,000 samples, so each slice keeps ten samples beyond its p99.
void ReportLatency(const std::vector<double>& ms, Report* r) {
  const int64_t n = static_cast<int64_t>(ms.size());
  r->E2e("p50_ms", Median(ms), "ms", n);
  r->E2e("p99_ms", SlicedQuantile(ms, 0.99, static_cast<int>(n / 1000)),
         "ms", n);
  r->Diag("p99_ms_unsliced", Quantile(ms, 0.99), "ms", n);
  r->Diag("p999_ms", Quantile(ms, 0.999), "ms", n);
}

// core.recommend_ms from the model-call spans since `since_ns`.
void ReportCoreSpans(int64_t since_ns, Report* r) {
  const std::vector<double> core_ms =
      SpanRecorder::Get().DurationsMs("core.recommend", since_ns);
  const int64_t n = static_cast<int64_t>(core_ms.size());
  r->Layer("core.recommend_ms_p50", Median(core_ms), "ms", n);
  r->Layer("core.recommend_ms_p99", Quantile(core_ms, 0.99), "ms", n);
}

// The end of every run: the direct-call probes of a traced run, the peak
// RSS of an untraced one.
void FinishRun(const RunConfig& cfg, const Fitted& f,
               DeltaPublisher* publisher, double fit_s, Report* r) {
  if (!cfg.traced) {
    ReportPeakRss(r);
    return;
  }
  RunLoadProbe(publisher, f.model.get(), 10, r);
  ProbeOptions probe;
  probe.users = DrawUsers(*f.dataset, 64, cfg.seed);
  probe.batch_ms = cfg.smoke ? 2.0 : 20.0;
  probe.seed = cfg.seed;
  RunLayerProbes(f, probe, r);
  RunTrainingProbes(f, fit_s, r);
}

void RunServe(const RunConfig& cfg, bool reload, Report* r) {
  SpanRecorder& rec = SpanRecorder::Get();
  const WorldSpec spec = cfg.smoke ? TinyWorld() : BeautyWorld();
  const std::string shard_dir = cfg.tmpdir + "/shards";
  SetupTimes setup;
  Fitted f = SetUpRepeated(spec, reload ? shard_dir : "", r, &setup);
  core::CadrlRecommender* model = f.model.get();
  const data::Dataset& ds = *f.dataset;

  // serve-beauty checks every full answer byte for byte against the
  // blocking Recommend, computed here before any load. The writer of
  // serve-reload changes answers as it goes, so that workload checks their
  // structure instead.
  std::unordered_map<kg::EntityId, std::vector<eval::Recommendation>> answers;
  if (!reload) {
    for (const kg::EntityId u : ds.users) answers[u] = model->Recommend(u, kTopK);
  }
  const ResponseCheck check = [&](kg::EntityId user,
                                  const serve::ServeResponse& resp) {
    const bool full = resp.level == serve::DegradationLevel::kFull;
    if (full && !reload) {
      return SameRecs(resp.recs, answers.at(user))
                 ? std::string()
                 : std::string("differs from the blocking Recommend");
    }
    return CheckRecs(ds, user, kTopK, resp.recs, full);
  };
  Evaluate(f, r);

  TimedModel timed(model);
  serve::ServeOptions options;
  options.threads = kServeWorkers;
  const double miss_ms =
      std::chrono::duration<double, std::milli>(options.default_timeout)
          .count();
  serve::RecommendService service(&timed, ds, options);
  CADRL_CHECK_OK(service.Start());
  DeltaPublisher publisher(model, ds, shard_dir, cfg.seed);
  std::unique_ptr<Writer> writer;
  if (reload) writer = std::make_unique<Writer>(&publisher, &service);

  // One seed-drawn popularity ranking for the whole run.
  const UserMix mix = reload ? UserMix::kUniform : UserMix::kZipf;
  const std::vector<kg::EntityId> ranked =
      DrawUsers(ds, ds.users.size(), cfg.seed);
  Rng rng(cfg.seed);
  const double s = cfg.seconds;
  const auto arrivals = [&](double rate, double seconds) {
    return PoissonArrivals(rate, seconds, ranked, mix, &rng);
  };

  // Untraced: warm-up, fixed rate, saturation. Traced: warm-up and the
  // fixed rate untraced, then the fixed rate again traced.
  rec.set_enabled(false);
  RunOpenLoop(&service, arrivals(kFixedRate, 0.06 * s), check, r);
  const LoadRun fixed = RunOpenLoop(
      &service, arrivals(kFixedRate, (cfg.traced ? 0.47 : 0.34) * s), check,
      r);
  const std::vector<double> fixed_ms = LatenciesMs(fixed, miss_ms);
  r->Attempt(static_cast<int64_t>(fixed.requests.size()),
             fixed.misses + fixed.wrong);
  if (!cfg.traced) {
    // Latency from due time at the fixed rate. With the workers idle most
    // of the time it swings 20-35% between runs on a shared VM, more than
    // any regression bound, so it is a diagnostic (README.md).
    const int64_t n = static_cast<int64_t>(fixed_ms.size());
    r->Diag("fixed_rate.p50_ms", Median(fixed_ms), "ms", n);
    r->Diag("fixed_rate.p99_ms", SlicedQuantile(fixed_ms, 0.99, 3), "ms", n);
    r->Diag("fixed_rate.p999_ms", Quantile(fixed_ms, 0.999), "ms", n);
    r->Diag("fixed_rate.miss_ratio",
            static_cast<double>(fixed.misses) / static_cast<double>(n), "ratio",
            n);
    // Capacity is about workers / service time, and at half load the fixed
    // phase's median is close to the service time; offering 2.5x that
    // keeps the queue full even after a large speed-up.
    const double capacity_guess =
        kServeWorkers * 1e3 / std::max(Median(fixed_ms), 0.1);
    const Saturation sat =
        RunSaturated(&service, ranked, mix, 2.5 * capacity_guess, 0.6 * s,
                     /*ramp_s=*/0.5, /*slice_s=*/0.25, &rng, check, r);
    r->E2e("throughput_per_s", sat.goodput, "1/s", sat.slices);
    ReportLatency(timed.CallMsWithin(sat.begin_ns, sat.end_ns), r);
  } else {
    rec.set_enabled(true);
    const serve::RecommendService::Stats before = service.stats();
    const int64_t since = rec.ToNs(Clock::now());
    const LoadRun run =
        RunOpenLoop(&service, arrivals(kFixedRate, 0.47 * s), check, r);
    r->Attempt(static_cast<int64_t>(run.requests.size()),
               run.misses + run.wrong);
    ReportServeLayers(since, run, before, service.stats(), r);
    ReportCoreSpans(since, r);
    r->Layer("trace.overhead_p50_ms",
             Median(LatenciesMs(run, miss_ms)) - Median(fixed_ms), "ms",
             static_cast<int64_t>(run.requests.size()));
  }

  PublishTimes publishes;
  if (writer != nullptr) {
    writer->Stop();
    if (!writer->error().empty()) r->Fail("publish: " + writer->error());
    // Publishes beside the fixed-rate load; the saturated phase starves the
    // writer of CPU and is not the regime this metric describes.
    publishes = fixed.requests.empty()
                    ? writer->TimesWithin(0, INT64_MAX)
                    : writer->TimesWithin(fixed.requests.front().due_ns,
                                          fixed.requests.back().finish_ns);
    if (!cfg.traced) {
      ReportDuringPublish(fixed, writer->publishes(), miss_ms, r);
    }
  }
  service.Stop();
  if (writer == nullptr) {
    publishes = RunPublishes(&publisher, &service, cfg.smoke ? 10 : 60, r);
  }
  ReportPublishes(publishes, r);

  FinishRun(cfg, f, &publisher, setup.fit_s, r);
}

// Per-call Recommend latency and users/paths done by one offline pass.
struct PassResult {
  std::vector<double> rec_ms;   // in pass order
  std::vector<int64_t> done_ns;  // when each user's calls ended
  int64_t begin_ns = 0, end_ns = 0;
  int64_t users = 0;
  int64_t paths = 0;
  int64_t failed = 0;
  double seconds = 0.0;
};

// The first pass over each user keeps its answers; later passes must
// reproduce them byte for byte.
struct OfflineReference {
  explicit OfflineReference(size_t n) : recs(n), paths(n), have(n, 0) {}
  std::vector<std::vector<eval::Recommendation>> recs;
  std::vector<std::vector<eval::RecommendationPath>> paths;
  std::vector<char> have;
};

// Recommend(k=10) and FindPaths(max 100) for every user through a
// 4-thread ParallelFor, repeated until `seconds` have passed.
PassResult RunOfflinePass(core::CadrlRecommender* model,
                          const data::Dataset& ds,
                          const std::vector<kg::EntityId>& order,
                          double seconds, ThreadPool* pool,
                          OfflineReference* ref, Report* r) {
  static uint64_t next_request = uint64_t{1} << 40;  // apart from serve ids
  const size_t n = order.size();
  PassResult result;
  SpanRecorder& rec = SpanRecorder::Get();
  const auto start = Clock::now();
  result.begin_ns = rec.ToNs(start);
  do {
    std::vector<double> rec_ms(n);
    std::vector<int64_t> done_ns(n);
    std::vector<int64_t> paths(n);
    std::vector<std::string> errors(n);
    const uint64_t base = next_request;
    next_request += n;
    pool->ParallelFor(0, static_cast<int64_t>(n), 1, [&](int64_t i) {
      const size_t at = static_cast<size_t>(i);
      const uint64_t request = base + at;
      const kg::EntityId user = order[at];
      ScopedSpan root("offline.user", request);
      std::vector<eval::Recommendation> recs;
      std::vector<eval::RecommendationPath> found;
      {
        ScopedSpan span("core.recommend", request);
        const auto t0 = Clock::now();
        recs = model->Recommend(user, kTopK);
        rec_ms[at] = std::chrono::duration<double, std::milli>(
                         Clock::now() - t0).count();
      }
      {
        ScopedSpan span("core.find_paths", request);
        found = model->FindPaths(user, kMaxPaths);
      }
      done_ns[at] = rec.ToNs(Clock::now());
      paths[at] = static_cast<int64_t>(found.size());
      if (!ref->have[at]) {
        errors[at] = CheckRecs(ds, user, kTopK, recs, /*with_paths=*/true);
        for (const eval::RecommendationPath& p : found) {
          if (!ValidWalk(ds.graph, user, p)) {
            errors[at] = "FindPaths returned a path that is not a KG walk";
          }
        }
        ref->recs[at] = std::move(recs);
        ref->paths[at] = std::move(found);
        ref->have[at] = 1;
      } else if (!SameRecs(recs, ref->recs[at]) ||
                 !SamePaths(found, ref->paths[at])) {
        errors[at] = "answer changed between passes";
      }
      return Status::OK();
    }).ok();
    for (size_t i = 0; i < n; ++i) {
      if (!errors[i].empty()) {
        r->Fail("user " + std::to_string(order[i]) + ": " + errors[i]);
        ++result.failed;
      }
      if (paths[i] == 0) ++result.failed;
      result.paths += paths[i];
    }
    result.users += static_cast<int64_t>(n);
    result.done_ns.insert(result.done_ns.end(), done_ns.begin(),
                          done_ns.end());
    result.rec_ms.insert(result.rec_ms.end(), rec_ms.begin(), rec_ms.end());
  } while (SecondsSince(start) < seconds);
  result.seconds = SecondsSince(start);
  result.end_ns = rec.ToNs(Clock::now());
  r->Attempt(2 * result.users, result.failed);
  return result;
}

void RunOffline(const RunConfig& cfg, bool large, Report* r) {
  SpanRecorder& rec = SpanRecorder::Get();
  const WorldSpec spec =
      cfg.smoke ? TinyWorld() : large ? LargeWorld() : BeautyWorld();
  SetupTimes setup;
  Fitted f = SetUpRepeated(spec, "", r, &setup);
  core::CadrlRecommender* model = f.model.get();
  const data::Dataset& ds = *f.dataset;
  Evaluate(f, r);

  ThreadPool pool(4);
  const std::vector<kg::EntityId> order = DrawUsers(ds, ds.users.size(),
                                                    cfg.seed);
  OfflineReference ref(order.size());
  const double s = cfg.seconds;
  serve::ServeOptions options;
  options.threads = kServeWorkers;
  TimedModel timed(model);
  serve::RecommendService service(&timed, ds, options);

  if (!cfg.traced) {
    const PassResult pass =
        RunOfflinePass(model, ds, order, s, &pool, &ref, r);
    ReportLatency(pass.rec_ms, r);
    int slices = 0;
    const double users_per_s = MedianSliceRate(
        pass.done_ns, pass.begin_ns, pass.end_ns, /*slice_s=*/0.5, &slices);
    r->E2e("throughput_per_s", users_per_s, "1/s", slices);
    r->Diag("paths_per_s", static_cast<double>(pass.paths) / pass.seconds,
            "1/s", pass.paths);
  } else {
    rec.set_enabled(false);
    const PassResult plain =
        RunOfflinePass(model, ds, order, 0.4 * s, &pool, &ref, r);
    rec.set_enabled(true);
    const int64_t since = rec.ToNs(Clock::now());
    const PassResult pass =
        RunOfflinePass(model, ds, order, 0.4 * s, &pool, &ref, r);
    ReportCoreSpans(since, r);
    r->Layer("trace.overhead_p50_ms",
             Median(pass.rec_ms) - Median(plain.rec_ms), "ms",
             static_cast<int64_t>(pass.rec_ms.size()));

    // This workload runs no serve code; a short probe gives the serve
    // layer's numbers on this world.
    CADRL_CHECK_OK(service.Start());
    const serve::RecommendService::Stats before = service.stats();
    const int64_t probe_since = rec.ToNs(Clock::now());
    Rng rng(cfg.seed);
    const ResponseCheck check = [&](kg::EntityId user,
                                    const serve::ServeResponse& resp) {
      return CheckRecs(ds, user, kTopK, resp.recs,
                       resp.level == serve::DegradationLevel::kFull);
    };
    const LoadRun run = RunOpenLoop(
        &service,
        PoissonArrivals(kProbeRate, 0.2 * s, order, UserMix::kZipf, &rng),
        check, r);
    service.Stop();
    ReportServeLayers(probe_since, run, before, service.stats(), r);
  }

  DeltaPublisher publisher(model, ds, cfg.tmpdir + "/shards", cfg.seed);
  ReportPublishes(RunPublishes(&publisher, &service, cfg.smoke ? 10 : 60, r),
                  r);

  FinishRun(cfg, f, &publisher, setup.fit_s, r);
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

void PrintHost(const std::string& workload, uint64_t seed, double seconds,
               bool traced) {
  std::cout << "{\"kind\":\"host\",\"workload\":" << JsonString(workload)
            << ",\"nproc\":" << std::thread::hardware_concurrency()
            << ",\"cpu\":" << JsonString(CpuModel()) << ",\"kernels\":"
            << JsonString(kernels::BackendName(kernels::ActiveBackend()))
            << ",\"precision\":"
            << JsonString(infer::PrecisionName(infer::PrecisionFromEnv()))
            << ",\"build_type\":" << JsonString(CADRL_E2E_BUILD_TYPE)
            << ",\"seed\":" << seed << ",\"seconds\":" << JsonNumber(seconds)
            << ",\"traced\":" << (traced ? "true" : "false") << "}\n";
}

// Names every run must print, from BENCHMARK.json: the end-to-end metrics
// for an untraced run, the per-layer ones for a traced run.
bool CheckExpected(const std::string& path, const std::vector<Report>& reports) {
  std::ifstream in(path);
  std::stringstream text;
  if (in.is_open()) text << in.rdbuf();
  Json root;
  if (!JsonParser(text.str()).Parse(&root)) {
    std::cerr << "cannot parse " << path << "\n";
    return false;
  }
  bool ok = true;
  for (const Report& r : reports) {
    const Json* list = root.Find(r.traced() ? "per_layer" : "end_to_end");
    if (list == nullptr) return false;
    for (const Json& m : list->items) {
      const std::string name = m.StringOr("name", "");
      if (r.summary().count(name) == 0) {
        std::cerr << r.workload() << (r.traced() ? " (traced)" : "")
                  << " did not print " << name << "\n";
        ok = false;
      }
    }
  }
  return ok;
}

// Parses all of `text` as a number of type T.
template <typename T>
bool ParseNumber(const std::string& text, T* out) {
  std::istringstream in(text);
  in >> *out;
  return !in.fail() && in.eof();
}

int Usage() {
  std::cerr << "usage: cadrl_e2e --workload <serve-beauty|serve-reload|"
               "train-beauty|offline-large|all> --seed <S> [--seconds <N>] "
               "[--trace <spans.json>] [--smoke] [--tmpdir <dir>] "
               "[--expect <BENCHMARK.json>]\n"
               "       cadrl_e2e compare <base.jsonl...> -- <head.jsonl...> "
               "[--benchmark <BENCHMARK.json>]\n";
  return 2;
}

int Main(int argc, char** argv) {
  const std::vector<std::string> args(argv + 1, argv + argc);
  if (!args.empty() && args[0] == "compare") {
    return RunCompare({args.begin() + 1, args.end()});
  }
  std::string workload, trace_path, tmp_root, expect;
  uint64_t seed = 1;
  std::optional<double> seconds;
  bool smoke = false;
  for (size_t i = 0; i < args.size(); ++i) {
    const std::string& a = args[i];
    const bool has_value = i + 1 < args.size();
    if (a == "--smoke") {
      smoke = true;
    } else if (a == "--workload" && has_value) {
      workload = args[++i];
    } else if (a == "--seed" && has_value) {
      if (!ParseNumber(args[++i], &seed)) return Usage();
    } else if (a == "--seconds" && has_value) {
      seconds.emplace();
      if (!ParseNumber(args[++i], &*seconds)) return Usage();
    } else if (a == "--trace" && has_value) {
      trace_path = args[++i];
    } else if (a == "--tmpdir" && has_value) {
      tmp_root = args[++i];
    } else if (a == "--expect" && has_value) {
      expect = args[++i];
    } else {
      return Usage();
    }
  }
  const std::vector<std::string> all = {"serve-beauty", "serve-reload",
                                        "train-beauty", "offline-large"};
  std::vector<std::string> workloads;
  if (workload == "all") {
    workloads = all;
  } else if (std::find(all.begin(), all.end(), workload) != all.end()) {
    workloads = {workload};
  } else {
    return Usage();
  }
  if (!seconds) seconds = smoke ? 1.0 : 15.0;
  if (!(*seconds > 0.0 && *seconds <= 600.0)) return Usage();

  // The smoke test runs every workload untraced and traced.
  const std::vector<bool> modes =
      smoke ? std::vector<bool>{false, true}
            : std::vector<bool>{!trace_path.empty()};

  if (tmp_root.empty()) tmp_root = std::filesystem::temp_directory_path();
  const std::string tmpdir =
      tmp_root + "/cadrl_e2e." + std::to_string(::getpid());
  std::filesystem::create_directories(tmpdir);

  PrintHost(workload, seed, *seconds, modes.back());
  std::vector<Report> reports;
  for (const bool traced : modes) {
    for (const std::string& w : workloads) {
      RunConfig cfg;
      cfg.seed = seed;
      cfg.seconds = *seconds;
      cfg.traced = traced;
      cfg.smoke = smoke;
      cfg.tmpdir = tmpdir + "/" + w + (traced ? "-traced" : "");
      std::filesystem::create_directories(cfg.tmpdir);
      SpanRecorder::Get().set_enabled(traced);
      Report report(w, traced);
      if (w == "serve-beauty" || w == "serve-reload") {
        RunServe(cfg, w == "serve-reload", &report);
      } else {
        RunOffline(cfg, w == "offline-large", &report);
      }
      SpanRecorder::Get().set_enabled(false);
      reports.push_back(std::move(report));
    }
  }
  std::filesystem::remove_all(tmpdir);
  if (!trace_path.empty() && !SpanRecorder::Get().WriteChromeTrace(trace_path)) {
    std::cerr << "cannot write " << trace_path << "\n";
    return 1;
  }
  const bool expected_ok = expect.empty() || CheckExpected(expect, reports);

  bool correct = true;
  int64_t attempted = 0, failed = 0;
  std::string metrics;
  for (const Report& r : reports) {
    correct = correct && r.correct();
    attempted += r.attempted();
    failed += r.failed();
    for (const auto& [name, value] : r.summary()) {
      const std::string key =
          reports.size() == 1 ? name : r.workload() + "/" + name;
      metrics += (metrics.empty() ? "" : ", ") + JsonString(key) +
                 ": {\"value\": " + JsonNumber(value.first) +
                 ", \"unit\": " + JsonString(value.second) + "}";
    }
  }
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << attempted << ", \"failed\": " << failed
            << ", \"metrics\": {" << metrics << "}}" << std::endl;
  return correct && expected_ok ? 0 : 1;
}

}  // namespace
}  // namespace e2e
}  // namespace cadrl

int main(int argc, char** argv) { return cadrl::e2e::Main(argc, argv); }
