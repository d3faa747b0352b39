#include "serve_load.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <future>
#include <thread>
#include <unordered_map>

#include "trace.h"
#include "util/failpoint.h"

namespace cadrl {
namespace e2e {

namespace {

double Ms(Clock::duration d) {
  return std::chrono::duration<double, std::milli>(d).count();
}

}  // namespace

std::vector<Arrival> PoissonArrivals(double rate, double seconds,
                                     const std::vector<kg::EntityId>& ranked,
                                     UserMix mix, Rng* rng) {
  std::vector<double> cdf(ranked.size());
  double total = 0.0;
  for (size_t r = 0; r < ranked.size(); ++r) {
    total += mix == UserMix::kZipf
                 ? 1.0 / std::pow(static_cast<double>(r + 1), 0.9)
                 : 1.0;
    cdf[r] = total;
  }
  std::vector<Arrival> arrivals;
  arrivals.reserve(static_cast<size_t>(rate * seconds * 1.1) + 16);
  double t = 0.0;
  for (;;) {
    t += -std::log(1.0 - rng->Uniform()) / rate;
    if (t >= seconds) break;
    const double u = rng->Uniform() * total;
    const size_t r = static_cast<size_t>(
        std::upper_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
    arrivals.push_back({t, ranked[std::min(r, ranked.size() - 1)]});
  }
  return arrivals;
}

LoadRun RunOpenLoop(serve::RecommendService* service,
                    const std::vector<Arrival>& arrivals,
                    const ResponseCheck& check, Report* report) {
  // Request ids are unique across the process, so every request's root
  // span id is too.
  static std::atomic<uint64_t> next_id{1};
  SpanRecorder& rec = SpanRecorder::Get();
  const size_t n = arrivals.size();
  std::vector<std::future<serve::ServeResponse>> futures(n);
  std::vector<Clock::time_point> due(n), sent(n), returned(n);
  std::vector<uint64_t> ids(n);
  LoadRun run;
  run.requests.resize(n);

  // Takes request i's answer and checks it. Answers are collected in order
  // while the load runs, so at most the in-flight answers are held.
  const auto collect = [&](size_t i) {
    const serve::ServeResponse resp = futures[i].get();
    futures[i] = {};
    // The service times a request from Submit to its answer.
    const Clock::time_point finish =
        sent[i] + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double, std::milli>(
                          resp.latency_ms));
    Served& s = run.requests[i];
    s.due_ns = rec.ToNs(due[i]);
    s.finish_ns = rec.ToNs(finish);
    s.at_s = arrivals[i].at_s;
    s.full = resp.level == serve::DegradationLevel::kFull;
    s.latency_ms = Ms(finish - due[i]);
    if (!s.full) ++run.misses;
    const std::string why = check(arrivals[i].user, resp);
    if (!why.empty()) {
      ++run.wrong;
      report->Fail("request " + std::to_string(ids[i]) + " (" +
                   serve::DegradationLevelName(resp.level) + "): " + why);
    }
    rec.Record("serve.submit", sent[i], returned[i], ids[i],
               SpanRecorder::RootIdFor(ids[i]));
    rec.Record("serve.request", due[i], finish, ids[i], 0,
               SpanRecorder::RootIdFor(ids[i]));
  };

  size_t collected = 0;
  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(2);
  for (size_t i = 0; i < n; ++i) {
    due[i] = start + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(arrivals[i].at_s));
    std::this_thread::sleep_until(due[i]);
    serve::ServeRequest req;
    req.id = ids[i] = next_id.fetch_add(1, std::memory_order_relaxed);
    req.user = arrivals[i].user;
    sent[i] = Clock::now();
    futures[i] = service->Submit(req);
    returned[i] = Clock::now();
    while (collected < i && futures[collected].wait_for(std::chrono::seconds(
                                0)) == std::future_status::ready) {
      collect(collected++);
    }
  }
  while (collected < n) collect(collected++);
  return run;
}

std::vector<double> LatenciesMs(const LoadRun& run, double miss_ms) {
  std::vector<double> out;
  out.reserve(run.requests.size());
  for (const Served& s : run.requests) {
    out.push_back(s.full ? s.latency_ms : miss_ms);
  }
  return out;
}

Saturation RunSaturated(serve::RecommendService* service,
                        const std::vector<kg::EntityId>& ranked, UserMix mix,
                        double rate, double seconds, double ramp_s,
                        double slice_s, Rng* rng, const ResponseCheck& check,
                        Report* report) {
  const LoadRun run = RunOpenLoop(
      service, PoissonArrivals(rate, seconds, ranked, mix, rng), check, report);
  Saturation sat;
  if (run.requests.empty()) return sat;
  const Served& first = run.requests.front();
  sat.begin_ns =
      first.due_ns + static_cast<int64_t>((ramp_s - first.at_s) * 1e9);
  sat.end_ns = first.due_ns + static_cast<int64_t>((seconds - first.at_s) * 1e9);
  std::vector<int64_t> answered_ns;
  for (const Served& s : run.requests) {
    if (s.full) answered_ns.push_back(s.finish_ns);
  }
  sat.goodput = MedianSliceRate(answered_ns, sat.begin_ns, sat.end_ns,
                                slice_s, &sat.slices);
  report->Diag("saturation.offered_rps", rate, "1/s",
               static_cast<int64_t>(run.requests.size()));
  report->Diag("saturation.miss_ratio",
               static_cast<double>(run.misses) /
                   static_cast<double>(run.requests.size()),
               "ratio", static_cast<int64_t>(run.requests.size()));
  return sat;
}

Status TimedModel::Recommend(kg::EntityId user, int k,
                             const RequestContext& ctx,
                             std::vector<eval::Recommendation>* out) {
  SpanRecorder& rec = SpanRecorder::Get();
  const uint64_t request = Failpoints::thread_token();
  const Clock::time_point start = Clock::now();
  const Status status = inner_->Recommend(user, k, ctx, out);
  const Clock::time_point end = Clock::now();
  rec.Record("core.recommend", start, end, request,
             SpanRecorder::RootIdFor(request));
  std::lock_guard<std::mutex> lock(mu_);
  calls_.push_back({rec.ToNs(end), Ms(end - start)});
  return status;
}

std::vector<double> TimedModel::CallMsWithin(int64_t begin_ns,
                                             int64_t end_ns) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<double> out;
  for (const Call& c : calls_) {
    if (c.end_ns >= begin_ns && c.end_ns <= end_ns) out.push_back(c.ms);
  }
  return out;
}

void ReportServeLayers(int64_t since_ns, const LoadRun& run,
                       const serve::RecommendService::Stats& before,
                       const serve::RecommendService::Stats& after,
                       Report* report) {
  struct PerRequest {
    const Span* request = nullptr;
    const Span* submit = nullptr;
    int64_t core_start = -1, core_end = -1;
  };
  const std::vector<Span> spans = SpanRecorder::Get().Collect();
  std::unordered_map<uint64_t, PerRequest> by_request;
  for (const Span& s : spans) {
    if (s.request == 0 || s.start_ns < since_ns) continue;
    const std::string_view name = s.name;
    PerRequest& p = by_request[s.request];
    if (name == "serve.request") {
      p.request = &s;
    } else if (name == "serve.submit") {
      p.submit = &s;
    } else if (name == "core.recommend") {
      p.core_start = p.core_start < 0 ? s.start_ns
                                      : std::min(p.core_start, s.start_ns);
      p.core_end = std::max(p.core_end, s.end_ns);
    }
  }
  std::vector<double> wait_ms, after_ms, submit_us, late_ms;
  for (const auto& [id, p] : by_request) {
    if (p.request == nullptr) continue;
    if (p.submit != nullptr) {
      submit_us.push_back(
          static_cast<double>(p.submit->end_ns - p.submit->start_ns) / 1e3);
      late_ms.push_back(
          static_cast<double>(p.submit->start_ns - p.request->start_ns) / 1e6);
    }
    if (p.core_start >= 0) {
      wait_ms.push_back(
          static_cast<double>(p.core_start - p.request->start_ns) / 1e6);
      after_ms.push_back(
          static_cast<double>(p.request->end_ns - p.core_end) / 1e6);
    }
  }
  const auto n = [](const std::vector<double>& v) {
    return static_cast<int64_t>(v.size());
  };
  report->Layer("serve.wait_before_core_ms_p50", Median(wait_ms), "ms",
                n(wait_ms));
  report->Layer("serve.wait_before_core_ms_p99", Quantile(wait_ms, 0.99),
                "ms", n(wait_ms));
  report->Layer("serve.after_core_ms_p50", Median(after_ms), "ms",
                n(after_ms));
  report->Layer("serve.submit_us_p50", Median(submit_us), "us",
                n(submit_us));
  report->Layer("serve.submit_us_p99", Quantile(submit_us, 0.99), "us",
                n(submit_us));
  report->Layer("serve.gen_late_ms_p99", Quantile(late_ms, 0.99), "ms",
                n(late_ms));
  const int64_t sent = static_cast<int64_t>(run.requests.size());
  report->Layer("serve.shed",
                static_cast<double>(after.load_shed - before.load_shed),
                "count", sent);
  report->Layer("serve.degraded",
                static_cast<double>((after.cached + after.popularity +
                                     after.failed) -
                                    (before.cached + before.popularity +
                                     before.failed)),
                "count", sent);
  report->Layer("serve.retries",
                static_cast<double>(after.retries - before.retries), "count",
                sent);
  report->Layer("serve.miss_ratio",
                sent > 0 ? static_cast<double>(run.misses) /
                               static_cast<double>(sent)
                         : 0.0,
                "ratio", sent);
}

}  // namespace e2e
}  // namespace cadrl
