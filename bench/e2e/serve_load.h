#ifndef CADRL_BENCH_E2E_SERVE_LOAD_H_
#define CADRL_BENCH_E2E_SERVE_LOAD_H_

// Open-loop load against serve::RecommendService: Poisson arrivals sent by
// one generator thread, every request timed from the moment it was due (so
// a stall also delays the requests queued behind it), and the goodput of
// the service when saturated.

#include <functional>
#include <mutex>
#include <string>
#include <vector>

#include "core/cadrl.h"
#include "report.h"
#include "serve/recommend_service.h"
#include "util/rng.h"

namespace cadrl {
namespace e2e {

enum class UserMix {
  kZipf,     // Zipf(0.9) over the ranking: the first user is the hottest
  kUniform,  // every user equally likely
};

struct Arrival {
  double at_s = 0.0;  // due time, from the start of the phase
  kg::EntityId user = kg::kInvalidEntity;
};

// Poisson arrivals at `rate` per second for `seconds`, users drawn from
// `ranked` by `mix`.
std::vector<Arrival> PoissonArrivals(double rate, double seconds,
                                     const std::vector<kg::EntityId>& ranked,
                                     UserMix mix, Rng* rng);

struct Served {
  int64_t due_ns = 0;     // on the span recorder's clock
  int64_t finish_ns = 0;
  double at_s = 0.0;        // due time from the start of the phase
  double latency_ms = 0.0;  // due -> answer
  bool full = false;        // answered at DegradationLevel::kFull
};

// Empty when the response is right for `user`; otherwise what is wrong.
using ResponseCheck =
    std::function<std::string(kg::EntityId, const serve::ServeResponse&)>;

struct LoadRun {
  std::vector<Served> requests;
  int64_t misses = 0;  // answered below kFull (shed or degraded)
  int64_t wrong = 0;   // failed `check`
};

// Sends `arrivals` from the calling thread, then collects every answer and
// checks it. Wrong answers are reported to `report` as check failures.
// With the span recorder on, records serve.request (due -> answer) and
// serve.submit spans per request.
LoadRun RunOpenLoop(serve::RecommendService* service,
                    const std::vector<Arrival>& arrivals,
                    const ResponseCheck& check, Report* report);

// Latency of every request in the order they were due; a miss counts as
// `miss_ms`.
std::vector<double> LatenciesMs(const LoadRun& run, double miss_ms);

struct Saturation {
  double goodput = 0.0;  // full answers per second, median slice
  int slices = 0;
  int64_t begin_ns = 0, end_ns = 0;  // the counted window
};

// The service saturated: open-loop Poisson at `rate` (set well above
// capacity, so the bounded queue stays full and the excess is shed) for
// `seconds`. After the first `ramp_s`, full answers are counted in slices
// of `slice_s` by completion time; the goodput is the median slice, so a
// stall of the host costs one slice, not the metric.
Saturation RunSaturated(serve::RecommendService* service,
                        const std::vector<kg::EntityId>& ranked, UserMix mix,
                        double rate, double seconds, double ramp_s,
                        double slice_s, Rng* rng, const ResponseCheck& check,
                        Report* report);

// Decorator the service calls: times each deadline-aware Recommend (the
// model-call latency of the serve workloads) and, with the span recorder
// on, records it as a core.recommend span, parented to the request's
// serve.request span through the request id the service installs as the
// failpoint thread token.
class TimedModel : public eval::Recommender {
 public:
  explicit TimedModel(core::CadrlRecommender* inner) : inner_(inner) {}

  // Durations (ms) of the calls that ended inside [begin_ns, end_ns], in
  // the order they ended.
  std::vector<double> CallMsWithin(int64_t begin_ns, int64_t end_ns) const;

  std::string name() const override { return inner_->name(); }
  Status Fit(const data::Dataset& dataset) override {
    return inner_->Fit(dataset);
  }
  std::vector<eval::Recommendation> Recommend(kg::EntityId user,
                                              int k) override {
    return inner_->Recommend(user, k);
  }
  bool SupportsPaths() const override { return true; }
  bool SupportsConcurrentInference() const override { return true; }
  std::vector<eval::RecommendationPath> FindPaths(kg::EntityId user,
                                                  int max_paths) override {
    return inner_->FindPaths(user, max_paths);
  }
  Status Recommend(kg::EntityId user, int k, const RequestContext& ctx,
                   std::vector<eval::Recommendation>* out) override;
  Status FindPaths(kg::EntityId user, int max_paths, const RequestContext& ctx,
                   std::vector<eval::RecommendationPath>* out) override {
    return inner_->FindPaths(user, max_paths, ctx, out);
  }
  ServingArena ServingArenaBytes() const override {
    return inner_->ServingArenaBytes();
  }
  Status ReloadFromCheckpoint(const std::string& path) override {
    return inner_->ReloadFromCheckpoint(path);
  }
  Status ReloadFromShardDir(const std::string& dir) override {
    return inner_->ReloadFromShardDir(dir);
  }
  ShardServingStatus ShardStatus() const override {
    return inner_->ShardStatus();
  }

 private:
  struct Call {
    int64_t end_ns;
    double ms;
  };

  core::CadrlRecommender* inner_;
  mutable std::mutex mu_;
  std::vector<Call> calls_;
};

// Per-layer serve metrics of the traced requests whose spans start at or
// after `since_ns`, plus the service counters' change over the run.
void ReportServeLayers(int64_t since_ns, const LoadRun& run,
                       const serve::RecommendService::Stats& before,
                       const serve::RecommendService::Stats& after,
                       Report* report);

}  // namespace e2e
}  // namespace cadrl

#endif  // CADRL_BENCH_E2E_SERVE_LOAD_H_
