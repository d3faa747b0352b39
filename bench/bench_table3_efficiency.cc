// Reproduces Table III: computational cost of recommendation (normalized
// to seconds per 1k users) and path finding (seconds per 10k paths) for
// PGPR, HeteroEmbed, UCPR, CAFE and CADRL, as mean +/- std over repeats.
// Uses google-benchmark for the per-operation microbenchmarks and a plain
// harness for the paper-format table.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <functional>
#include <iostream>
#include <map>
#include <memory>

#include "bench_common.h"
#include "bench_json.h"
#include "serve/overload_harness.h"

namespace cadrl {
namespace bench {
namespace {

struct Table3Entry {
  std::string name;
  std::function<std::unique_ptr<eval::Recommender>(const BenchConfig&,
                                                   const std::string&)>
      make;
};

std::vector<Table3Entry> Table3Models() {
  using namespace baselines;  // NOLINT(build/namespaces): bench-local
  return {
      {"PGPR",
       [](const BenchConfig& c, const std::string&) {
         return std::unique_ptr<eval::Recommender>(MakePgpr(c.budget));
       }},
      {"HeteroEmbed",
       [](const BenchConfig& c, const std::string&) {
         HeteroEmbedOptions o;
         o.transe = c.transe;
         return std::unique_ptr<eval::Recommender>(
             std::make_unique<HeteroEmbedRecommender>(o));
       }},
      {"UCPR",
       [](const BenchConfig& c, const std::string&) {
         return std::unique_ptr<eval::Recommender>(MakeUcpr(c.budget));
       }},
      {"CAFE",
       [](const BenchConfig& c, const std::string&) {
         CafeOptions o;
         o.transe = c.transe;
         return std::unique_ptr<eval::Recommender>(
             std::make_unique<CafeRecommender>(o));
       }},
      {"CADRL",
       [](const BenchConfig& c, const std::string& dataset) {
         return std::unique_ptr<eval::Recommender>(
             MakeCadrlForDataset(c.budget, dataset));
       }},
  };
}

void Run(BenchJson& json) {
  const BenchConfig config = BenchConfig::FromEnv();
  TablePrinter table(
      "Table III: Computational cost (s). Rec normalized per 1k users, "
      "Find per 10k paths; mean +/- std over 3 repeats");
  std::vector<std::string> header = {"Model"};
  for (const std::string& d : DatasetNames()) {
    header.push_back(d + " Rec(1k users)");
    header.push_back(d + " Find(10k paths)");
  }
  table.SetHeader(header);

  std::map<std::string, std::vector<std::string>> rows;
  for (const Table3Entry& entry : Table3Models()) {
    rows[entry.name] = {entry.name};
  }
  for (const std::string& dataset_name : DatasetNames()) {
    data::Dataset dataset = MakeDatasetByName(dataset_name);
    for (const Table3Entry& entry : Table3Models()) {
      auto model = entry.make(config, dataset_name);
      const Status status = model->Fit(dataset);
      if (!status.ok()) {
        rows[entry.name].insert(rows[entry.name].end(), {"-", "-"});
        continue;
      }
      const eval::TimingResult t = eval::MeasureEfficiency(
          model.get(), dataset, /*users_per_run=*/30, /*paths_per_run=*/120,
          /*repeats=*/3, config.threads);
      rows[entry.name].push_back(
          TablePrinter::Fmt(t.rec_per_1k_users_mean, 3) + " +/- " +
          TablePrinter::Fmt(t.rec_per_1k_users_std, 3));
      rows[entry.name].push_back(
          TablePrinter::Fmt(t.find_per_10k_paths_mean, 3) + " +/- " +
          TablePrinter::Fmt(t.find_per_10k_paths_std, 3));
      std::cerr << dataset_name << " / " << entry.name << " done"
                << std::endl;
    }
  }
  for (const Table3Entry& entry : Table3Models()) {
    table.AddRow(rows[entry.name]);
  }
  table.Print(std::cout);
  json.AddTable(table);
}

// Goodput vs offered load (DESIGN.md §15): the discrete-event overload
// harness (4 simulated workers, 1ms +/- 30% service, 20ms deadline, 1s of
// virtual time per cell) swept over 1x-4x of nominal capacity, once with
// the plain bounded queue and once with the AIMD admission limiter +
// deadline-aware early shedding. Virtual-clock simulation: every cell is
// deterministic and the whole sweep costs only simulation work. The
// contract the chaos suite enforces shows up as the shape of the two
// curves — fixed-queue goodput collapses past saturation while AIMD
// goodput holds near capacity, trading the excess for explicit sheds.
void RunOverloadCurve(BenchJson& json) {
  TablePrinter table(
      "Overload control: goodput vs offered load, fixed queue vs AIMD "
      "admission (DES on a virtual clock; 4 workers, 1ms service, 20ms "
      "deadline, 1s per cell)");
  table.SetHeader({"Mode/Load", "Offered/s", "Goodput/s", "p95 full(ms)",
                   "Shed rate", "Degraded", "Limit [min,max]"});

  for (const bool adaptive : {false, true}) {
    const std::string mode = adaptive ? "aimd" : "fixed";
    for (const double multiplier : {1.0, 1.5, 2.0, 3.0, 4.0}) {
      serve::OverloadOptions o;
      o.workers = 4;
      o.mean_service = std::chrono::microseconds{1000};
      o.service_jitter = 0.3;
      o.deadline = std::chrono::microseconds{20000};
      o.duration = std::chrono::milliseconds{1000};
      o.seed = 42;
      o.offered_multiplier = multiplier;
      o.adaptive_admission = adaptive;
      const serve::OverloadReport r = serve::RunOverload(o);

      std::string load = TablePrinter::Fmt(multiplier, 1) + "x";
      table.AddRow({mode + "/" + load,
                    TablePrinter::Fmt(r.offered_per_s, 0),
                    TablePrinter::Fmt(r.goodput_per_s, 0),
                    TablePrinter::Fmt(r.p95_full_ms, 2),
                    TablePrinter::Fmt(r.shed_rate, 3),
                    std::to_string(r.degraded),
                    adaptive ? "[" + TablePrinter::Fmt(r.limit_min, 1) +
                                   ", " + TablePrinter::Fmt(r.limit_max, 1) +
                                   "]"
                             : "-"});
      // JSON keys use the multiplier with the dot stripped (1.5x -> 1p5x).
      std::string mkey = TablePrinter::Fmt(multiplier, 1) + "x";
      std::replace(mkey.begin(), mkey.end(), '.', 'p');
      const std::string key = "overload/" + mode + "/" + mkey;
      json.Set(key + "/offered_per_s", r.offered_per_s);
      json.Set(key + "/goodput_per_s", r.goodput_per_s);
      json.Set(key + "/p95_full_ms", r.p95_full_ms);
      json.Set(key + "/shed_rate", r.shed_rate);
      if (adaptive) {
        json.Set(key + "/limit_min", r.limit_min);
        json.Set(key + "/limit_max", r.limit_max);
        json.Set(key + "/limit_mean", r.limit_mean);
      }
      std::cerr << "overload / " << mode << " " << load << " done"
                << std::endl;
    }
  }
  table.Print(std::cout);
}

// A google-benchmark microbenchmark of the per-user inference step, the
// operation Table III normalizes: registered so `--benchmark_filter` users
// can drill into single-model latencies.
void BM_CadrlRecommendUser(benchmark::State& state) {
  static data::Dataset dataset = MakeDatasetByName("Beauty");
  static std::unique_ptr<core::CadrlRecommender> model = [] {
    BenchConfig config = BenchConfig::FromEnv();
    auto m = baselines::MakeCadrlForDataset(config.budget, "Beauty");
    CADRL_CHECK_OK(m->Fit(dataset));
    return m;
  }();
  int64_t cursor = 0;
  for (auto _ : state) {
    const kg::EntityId user = dataset.users[static_cast<size_t>(
        cursor++ % dataset.num_users())];
    benchmark::DoNotOptimize(model->Recommend(user, 10));
  }
}
BENCHMARK(BM_CadrlRecommendUser)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace bench
}  // namespace cadrl

int main(int argc, char** argv) {
  cadrl::bench::BenchJson json("table3");
  cadrl::bench::Run(json);
  cadrl::bench::RunOverloadCurve(json);
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
