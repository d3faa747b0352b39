// Command-line front end for the library: generate datasets to disk, train
// and evaluate CADRL on a saved dataset, produce explained recommendations
// for one user, or drive the deadline-aware serving layer under a synthetic
// (optionally chaotic) request stream.
//
//   cadrl_cli generate <beauty|cellphones|clothing|tiny> <path>
//   cadrl_cli eval <dataset-path> [--checkpoint_dir <dir>] [--resume]
//              [--threads N]
//   cadrl_cli train <dataset-path> <model-path> [--checkpoint_dir <dir>]
//              [--resume] [--threads N]
//   cadrl_cli recommend <dataset-path> <user-entity-id> [k] [model-path]
//   cadrl_cli snapshot compile <dataset-path> <model-path> <shard-dir>
//              [--shard_rows N] [--precision <p>] [--threads N] [--verify]
//   cadrl_cli serve <dataset-path> [model-path] [--threads N]
//              [--requests N] [--timeout_ms N] [--fail_p P]
//              [--latency_us N] [--latency_p P] [--seed S]
//              [--reload_from <model-path>] [--shard_dir <dir>]
//              [--reload_every_ms N] [--precision <p>]
//              [--adaptive_admission] [--metrics_every_ms N]

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <future>
#include <iostream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/cadrl.h"
#include "data/generator.h"
#include "data/serialize.h"
#include "eval/evaluator.h"
#include "eval/path_metrics.h"
#include "infer/precision.h"
#include "infer/shard_layout.h"
#include "serve/recommend_service.h"
#include "util/failpoint.h"
#include "util/logging.h"

namespace {

using namespace cadrl;

int Usage() {
  std::cerr
      << "usage:\n"
         "  cadrl_cli generate <beauty|cellphones|clothing|tiny> <path>\n"
         "  cadrl_cli eval <dataset-path> [--checkpoint_dir <dir>] "
         "[--resume] [--threads N]\n"
         "  cadrl_cli train <dataset-path> <model-path> "
         "[--checkpoint_dir <dir>] [--resume] [--threads N]\n"
         "  cadrl_cli recommend <dataset-path> <user-entity-id> [k] "
         "[model-path]\n"
         "  cadrl_cli snapshot compile <dataset-path> <model-path> "
         "<shard-dir>\n"
         "             [--shard_rows N] [--precision <p>] [--threads N] "
         "[--verify]\n"
         "  cadrl_cli serve <dataset-path> [model-path] [--threads N] "
         "[--requests N]\n"
         "             [--timeout_ms N] [--fail_p P] [--latency_us N] "
         "[--latency_p P] [--seed S]\n"
         "\n"
         "  --checkpoint_dir <dir>  write epoch checkpoints during training\n"
         "  --resume                restart from the latest valid checkpoint"
         " in --checkpoint_dir\n"
         "  --threads N             worker threads for training, evaluation"
         " and serving\n"
         "                          (0 = one per hardware thread; training/"
         "eval results\n"
         "                          are identical for every N)\n"
         "  --requests N            serve: synthetic requests to replay"
         " (default 200)\n"
         "  --timeout_ms N          serve: per-request deadline in ms"
         " (default 250)\n"
         "  --fail_p P              serve: probabilistic fault injection on"
         " scoring\n"
         "  --latency_us N          serve: injected scoring delay in"
         " microseconds\n"
         "  --latency_p P           serve: probability of the injected delay"
         " (default 1)\n"
         "  --seed S                serve: seed for the service and the"
         " injected chaos\n"
         "  --reload_from <path>    serve: hot-swap the serving model from"
         " this checkpoint\n"
         "                          while the request stream runs (e.g. a"
         " file a trainer\n"
         "                          republishes); in-flight requests finish"
         " on the old model\n"
         "  --shard_dir <dir>       serve: poll this compiled shard"
         " directory\n"
         "                          (cadrl_cli snapshot compile) and"
         " republish the\n"
         "                          serving snapshot zero-parse whenever its"
         " manifest\n"
         "                          changes; a delta publish remaps only the"
         " changed\n"
         "                          shards\n"
         "  --reload_every_ms N     serve: reload/poll period in ms"
         " (default 200;\n"
         "                          needs --reload_from or --shard_dir)\n"
         "  --precision <p>         serve / snapshot compile: row format of"
         " the\n"
         "                          published inference snapshot: f32, f16"
         " or int8.\n"
         "                          The flag always beats CADRL_PRECISION"
         " (the env\n"
         "                          var is the default when the flag is"
         " absent) and\n"
         "                          applies from the first publish; training"
         " stays\n"
         "                          f32\n"
         "  --adaptive_admission    serve: AIMD admission limiter +"
         " deadline-aware\n"
         "                          early shedding (DESIGN.md §15)\n"
         "  --metrics_every_ms N    serve: dump Prometheus metrics"
         " (MetricsText) to\n"
         "                          stdout every N ms, and once at the end"
         " of the run\n";
  return 2;
}

// Removes --checkpoint_dir <dir> / --resume / --threads N from `args` and
// fills `ckpt` / `threads`. Returns false on a malformed flag. Unknown
// arguments are kept for the command-specific parsers.
bool ParseCommonFlags(std::vector<std::string>* args, CheckpointOptions* ckpt,
                      int* threads) {
  ckpt->resume = false;
  *threads = 1;
  std::vector<std::string> rest;
  for (size_t i = 0; i < args->size(); ++i) {
    const std::string& a = (*args)[i];
    if (a == "--checkpoint_dir") {
      if (i + 1 >= args->size()) return false;
      ckpt->dir = (*args)[++i];
    } else if (a == "--resume") {
      ckpt->resume = true;
    } else if (a == "--threads") {
      if (i + 1 >= args->size()) return false;
      char* end = nullptr;
      const long v = std::strtol((*args)[++i].c_str(), &end, 10);
      if (end == nullptr || *end != '\0' || v < 0) {
        std::cerr << "--threads expects a non-negative integer\n";
        return false;
      }
      *threads = static_cast<int>(v);
    } else {
      rest.push_back(a);
    }
  }
  if (ckpt->resume && ckpt->dir.empty()) {
    std::cerr << "--resume requires --checkpoint_dir\n";
    return false;
  }
  *args = std::move(rest);
  return true;
}

core::CadrlOptions DefaultOptions(const std::string& dataset_name,
                                  int threads = 1) {
  core::CadrlOptions o;
  // One knob drives every parallel stage; results are identical for any
  // value (see DESIGN.md "Concurrency model").
  o.threads = threads;
  o.transe.threads = threads;
  o.transe.dim = 24;
  o.transe.epochs = 8;
  o.cggnn.epochs = 12;
  o.episodes_per_user = 4;
  if (dataset_name == "Clothing") {
    o.max_path_length = 7;
    o.cggnn.delta = 0.3f;
    o.alpha_pe = 0.4f;
    o.alpha_pc = 0.4f;
  }
  return o;
}

int Generate(const std::string& preset, const std::string& path) {
  data::SyntheticConfig config;
  if (preset == "beauty") {
    config = data::SyntheticConfig::BeautySim();
  } else if (preset == "cellphones") {
    config = data::SyntheticConfig::CellPhonesSim();
  } else if (preset == "clothing") {
    config = data::SyntheticConfig::ClothingSim();
  } else if (preset == "tiny") {
    config = data::SyntheticConfig::Tiny();
  } else {
    return Usage();
  }
  data::Dataset dataset;
  Status status = data::GenerateDataset(config, &dataset);
  if (status.ok()) status = data::SaveDataset(dataset, path);
  if (!status.ok()) {
    std::cerr << "error: " << status.ToString() << "\n";
    return 1;
  }
  const data::DatasetStats stats = ComputeStats(dataset);
  std::cout << "wrote " << path << ": " << stats.num_entities
            << " entities, " << stats.num_triples << " triples, "
            << stats.num_interactions << " interactions\n";
  return 0;
}

// Applies a --precision flag value to a freshly constructed model, BEFORE
// Fit/LoadModel publishes the first snapshot: the flag always beats
// CADRL_PRECISION (which seeded the model's default), and no snapshot is
// ever built at the wrong precision and republished after the fact.
void ApplyPrecisionFlag(const std::string& precision,
                        core::CadrlRecommender* model) {
  if (precision.empty()) return;  // keep the CADRL_PRECISION / f32 default
  infer::Precision p = infer::Precision::kF32;
  const bool ok = infer::ParsePrecision(precision, &p);
  CADRL_CHECK(ok) << "--precision validated at flag parse";
  model->set_snapshot_precision(p);
}

int TrainModel(const std::string& path, const CheckpointOptions& ckpt,
               int threads, std::unique_ptr<core::CadrlRecommender>* out,
               data::Dataset* dataset, const std::string& precision = "") {
  Status status = data::LoadDataset(path, dataset);
  if (!status.ok()) {
    std::cerr << "error loading " << path << ": " << status.ToString()
              << "\n";
    return 1;
  }
  auto model = std::make_unique<core::CadrlRecommender>(
      DefaultOptions(dataset->name, threads));
  ApplyPrecisionFlag(precision, model.get());
  std::cout << "training CADRL on '" << dataset->name << "' ("
            << dataset->num_users() << " users)...\n";
  if (ckpt.enabled()) {
    std::cout << "checkpointing to " << ckpt.dir
              << (ckpt.resume ? " (resuming if possible)" : "") << "\n";
  }
  status = model->Fit(*dataset, ckpt);
  if (!status.ok()) {
    std::cerr << "error training: " << status.ToString() << "\n";
    return 1;
  }
  *out = std::move(model);
  return 0;
}

// Loads `model_path` when given, otherwise trains from scratch.
int LoadOrTrainModel(const std::string& dataset_path,
                     const std::string& model_path, int threads,
                     std::unique_ptr<core::CadrlRecommender>* out,
                     data::Dataset* dataset,
                     const std::string& precision = "") {
  if (model_path.empty()) {
    return TrainModel(dataset_path, CheckpointOptions(), threads, out,
                      dataset, precision);
  }
  Status status = data::LoadDataset(dataset_path, dataset);
  if (status.ok()) {
    *out = std::make_unique<core::CadrlRecommender>(
        DefaultOptions(dataset->name, threads));
    ApplyPrecisionFlag(precision, out->get());
    status = (*out)->LoadModel(*dataset, model_path);
  }
  if (!status.ok()) {
    std::cerr << "error loading model: " << status.ToString() << "\n";
    out->reset();
    return 1;
  }
  return 0;
}

int Eval(const std::string& path, const CheckpointOptions& ckpt,
         int threads) {
  data::Dataset dataset;
  std::unique_ptr<core::CadrlRecommender> model;
  if (int rc = TrainModel(path, ckpt, threads, &model, &dataset); rc != 0) {
    return rc;
  }
  const eval::EvalResult r =
      eval::EvaluateRecommender(model.get(), dataset, 10, 0, threads);
  std::cout << "NDCG@10 " << r.ndcg << "%  Recall@10 " << r.recall
            << "%  HR@10 " << r.hit_rate << "%  Prec@10 " << r.precision
            << "%  (" << r.users_evaluated << " users)\n";
  return 0;
}

int Train(const std::string& dataset_path, const std::string& model_path,
          const CheckpointOptions& ckpt, int threads) {
  data::Dataset dataset;
  std::unique_ptr<core::CadrlRecommender> model;
  if (int rc = TrainModel(dataset_path, ckpt, threads, &model, &dataset);
      rc != 0) {
    return rc;
  }
  const Status status = model->SaveModel(model_path);
  if (!status.ok()) {
    std::cerr << "error saving: " << status.ToString() << "\n";
    return 1;
  }
  std::cout << "model written to " << model_path << "\n";
  return 0;
}

int Recommend(const std::string& path, const std::string& user_arg, int k,
              const std::string& model_path) {
  data::Dataset dataset;
  std::unique_ptr<core::CadrlRecommender> model;
  if (int rc = LoadOrTrainModel(path, model_path, /*threads=*/1, &model,
                                &dataset);
      rc != 0) {
    return rc;
  }
  const kg::EntityId user =
      static_cast<kg::EntityId>(std::atoll(user_arg.c_str()));
  if (dataset.UserIndex(user) < 0) {
    std::cerr << "entity " << user << " is not a user of this dataset; "
              << "valid ids start at " << dataset.users.front() << "\n";
    return 1;
  }
  std::vector<eval::RecommendationPath> paths;
  for (const auto& rec : model->Recommend(user, k)) {
    std::cout << "item " << rec.item << "  score "
              << static_cast<int>(rec.score * 1000) / 1000.0 << "\n  "
              << eval::FormatPath(dataset.graph, rec.path) << "\n";
    paths.push_back(rec.path);
  }
  const eval::PathQuality q = eval::EvaluatePaths(dataset.graph, paths);
  std::cout << "paths: " << q.num_valid << "/" << q.num_paths
            << " valid, mean length "
            << static_cast<int>(q.mean_length * 100) / 100.0 << "\n";
  return 0;
}

// `cadrl_cli snapshot compile`: compile a trained model into the
// relocatable shard-dir snapshot format (DESIGN.md §16). Recompiling over
// an existing directory is a delta publish: shards whose bytes are
// unchanged are skipped and a `serve --shard_dir` poller remaps only the
// republished ones.
int SnapshotCompile(const std::string& dataset_path,
                    const std::string& model_path, const std::string& dir,
                    int threads, std::vector<std::string> flag_args) {
  int64_t shard_rows = 0;  // 0 keeps the model's default
  std::string precision;
  bool verify = false;
  for (size_t i = 0; i < flag_args.size(); ++i) {
    const std::string& a = flag_args[i];
    if (a == "--shard_rows" && i + 1 < flag_args.size()) {
      shard_rows = std::atoll(flag_args[++i].c_str());
      if (shard_rows < 1) {
        std::cerr << "--shard_rows expects a positive integer\n";
        return 2;
      }
    } else if (a == "--precision" && i + 1 < flag_args.size()) {
      precision = flag_args[++i];
      infer::Precision p;
      if (!infer::ParsePrecision(precision, &p)) {
        std::cerr << "--precision must be f32, f16 or int8\n";
        return 2;
      }
    } else if (a == "--verify") {
      verify = true;
    } else {
      std::cerr << "unknown snapshot compile flag: " << a << "\n";
      return 2;
    }
  }

  data::Dataset dataset;
  std::unique_ptr<core::CadrlRecommender> model;
  if (int rc = LoadOrTrainModel(dataset_path, model_path, threads, &model,
                                &dataset, precision);
      rc != 0) {
    return rc;
  }

  infer::ShardWriteStats stats;
  const auto t0 = std::chrono::steady_clock::now();
  Status status = model->CompileSnapshotToDir(dir, shard_rows, &stats);
  const double ms = std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - t0)
                        .count();
  if (!status.ok()) {
    std::cerr << "error compiling shards: " << status.ToString() << "\n";
    return 1;
  }
  std::cout << "compiled " << dir << " gen " << stats.generation << ": "
            << stats.shards_written << "/" << stats.shards_total
            << " shards written (" << stats.shards_reused << " unchanged), "
            << stats.bytes_written << " B in "
            << static_cast<int>(ms * 100) / 100.0 << "ms at "
            << infer::PrecisionName(model->snapshot_precision()) << "\n";

  if (verify) {
    infer::ShardLoadOptions lopts;
    lopts.verify_payload = true;  // full payload CRC scan, not just headers
    std::shared_ptr<const infer::CompiledModel> check;
    status = infer::LoadFromShardDir(dir, lopts, nullptr, &check);
    if (!status.ok()) {
      std::cerr << "verify failed: " << status.ToString() << "\n";
      return 1;
    }
    std::cout << "verified " << check->shard_stats().shard_count
              << " shards + meta, " << check->shard_stats().mapped_bytes
              << " B mapped\n";
  }
  return 0;
}

struct ServeFlags {
  int requests = 200;
  int timeout_ms = 250;
  double fail_p = 0.0;
  int latency_us = 0;
  double latency_p = 1.0;
  uint64_t seed = 11;
  std::string reload_from;
  std::string shard_dir;  // poll a compiled shard dir for zero-parse reloads
  int reload_every_ms = 200;
  // Empty keeps the CADRL_PRECISION (or f32) default.
  std::string precision;
  bool adaptive_admission = false;
  int metrics_every_ms = 0;  // 0 = no periodic dump
};

bool ParseServeFlags(std::vector<std::string>* args, ServeFlags* flags) {
  std::vector<std::string> rest;
  auto next_value = [&](size_t* i) -> const char* {
    return *i + 1 < args->size() ? (*args)[++*i].c_str() : nullptr;
  };
  for (size_t i = 0; i < args->size(); ++i) {
    const std::string& a = (*args)[i];
    const char* v = nullptr;
    if (a == "--requests" && (v = next_value(&i))) {
      flags->requests = std::atoi(v);
    } else if (a == "--timeout_ms" && (v = next_value(&i))) {
      flags->timeout_ms = std::atoi(v);
    } else if (a == "--fail_p" && (v = next_value(&i))) {
      flags->fail_p = std::atof(v);
    } else if (a == "--latency_us" && (v = next_value(&i))) {
      flags->latency_us = std::atoi(v);
    } else if (a == "--latency_p" && (v = next_value(&i))) {
      flags->latency_p = std::atof(v);
    } else if (a == "--seed" && (v = next_value(&i))) {
      flags->seed = static_cast<uint64_t>(std::strtoull(v, nullptr, 10));
    } else if (a == "--reload_from" && (v = next_value(&i))) {
      flags->reload_from = v;
    } else if (a == "--shard_dir" && (v = next_value(&i))) {
      flags->shard_dir = v;
    } else if (a == "--reload_every_ms" && (v = next_value(&i))) {
      flags->reload_every_ms = std::atoi(v);
    } else if (a == "--precision" && (v = next_value(&i))) {
      flags->precision = v;
    } else if (a == "--adaptive_admission") {
      flags->adaptive_admission = true;
    } else if (a == "--metrics_every_ms" && (v = next_value(&i))) {
      flags->metrics_every_ms = std::atoi(v);
    } else if (a.rfind("--", 0) == 0) {
      std::cerr << "unknown or incomplete flag: " << a << "\n";
      return false;
    } else {
      rest.push_back(a);
    }
  }
  if (flags->requests < 1 || flags->fail_p < 0.0 || flags->fail_p > 1.0 ||
      flags->latency_p < 0.0 || flags->latency_p > 1.0 ||
      flags->latency_us < 0 || flags->reload_every_ms < 1 ||
      flags->metrics_every_ms < 0) {
    std::cerr << "serve flag out of range\n";
    return false;
  }
  if (!flags->precision.empty()) {
    infer::Precision p;
    if (!infer::ParsePrecision(flags->precision, &p)) {
      std::cerr << "--precision must be f32, f16 or int8\n";
      return false;
    }
  }
  if (!flags->reload_from.empty() && !flags->shard_dir.empty()) {
    std::cerr << "--reload_from and --shard_dir are mutually exclusive\n";
    return false;
  }
  *args = std::move(rest);
  return true;
}

double Percentile(std::vector<double> sorted, double p) {
  if (sorted.empty()) return 0.0;
  const size_t idx = std::min(
      sorted.size() - 1,
      static_cast<size_t>(p * static_cast<double>(sorted.size())));
  return sorted[idx];
}

// Replays a synthetic request stream (4 client threads, users round-robin)
// against a RecommendService, optionally with injected faults/latency, and
// prints the degradation mix plus per-level latency percentiles.
int Serve(const std::string& dataset_path, const std::string& model_path,
          int threads, const ServeFlags& flags) {
  data::Dataset dataset;
  std::unique_ptr<core::CadrlRecommender> model;
  // --precision is applied before load/train so the first published
  // snapshot is already at the requested row format.
  if (int rc = LoadOrTrainModel(dataset_path, model_path, threads, &model,
                                &dataset, flags.precision);
      rc != 0) {
    return rc;
  }

  Failpoints::Instance().DisarmAll();
  if (flags.fail_p > 0.0) {
    Failpoints::Instance().ArmWithProbability("cadrl/score", flags.fail_p,
                                              flags.seed);
  }
  if (flags.latency_us > 0) {
    Failpoints::Instance().ArmLatency(
        "cadrl/score", std::chrono::microseconds{flags.latency_us},
        flags.latency_p, flags.seed + 1);
  }

  serve::ServeOptions options;
  options.threads = threads;
  options.default_timeout = std::chrono::milliseconds{flags.timeout_ms};
  options.seed = flags.seed;
  options.admission.enabled = flags.adaptive_admission;
  serve::RecommendService service(model.get(), dataset, options);
  if (const Status s = service.Start(); !s.ok()) {
    std::cerr << "error starting service: " << s.ToString() << "\n";
    return 1;
  }

  std::cout << "serving " << flags.requests << " requests ("
            << options.threads << " workers, " << flags.timeout_ms
            << "ms deadline";
  if (flags.fail_p > 0.0) std::cout << ", fault p=" << flags.fail_p;
  if (flags.latency_us > 0) {
    std::cout << ", +" << flags.latency_us << "us latency p="
              << flags.latency_p;
  }
  if (!flags.reload_from.empty()) {
    std::cout << ", reloading " << flags.reload_from << " every "
              << flags.reload_every_ms << "ms";
  }
  if (!flags.shard_dir.empty()) {
    std::cout << ", polling shard dir " << flags.shard_dir << " every "
              << flags.reload_every_ms << "ms";
  }
  if (flags.adaptive_admission) std::cout << ", adaptive admission";
  std::cout << ")...\n";

  // Optional metrics scraper stand-in: dumps the Prometheus exposition to
  // stdout on a fixed period, the way a sidecar would scrape /metrics.
  std::atomic<bool> metrics_done{false};
  std::thread metrics_dumper;
  if (flags.metrics_every_ms > 0) {
    metrics_dumper = std::thread([&] {
      while (!metrics_done.load(std::memory_order_relaxed)) {
        std::this_thread::sleep_for(
            std::chrono::milliseconds{flags.metrics_every_ms});
        if (metrics_done.load(std::memory_order_relaxed)) break;
        std::cout << "# --- metrics dump ---\n" << service.MetricsText();
      }
    });
  }

  // Live model reload: while the request stream replays, a publisher
  // thread hot-swaps the serving snapshot from --reload_from — the
  // checkpoint a trainer would republish in production. Failures (e.g. the
  // file does not exist yet) leave the current snapshot serving.
  std::atomic<bool> reloads_done{false};
  int64_t reload_failures = 0;
  std::thread reloader;
  if (!flags.reload_from.empty() || !flags.shard_dir.empty()) {
    reloader = std::thread([&] {
      while (!reloads_done.load(std::memory_order_relaxed)) {
        const Status s = flags.shard_dir.empty()
                             ? service.ReloadFromCheckpoint(flags.reload_from)
                             : service.ReloadFromShardDir(flags.shard_dir);
        if (!s.ok()) ++reload_failures;
        std::this_thread::sleep_for(
            std::chrono::milliseconds{flags.reload_every_ms});
      }
    });
  }

  constexpr int kClients = 4;
  std::vector<std::vector<serve::ServeResponse>> responses(kClients);
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      std::vector<std::future<serve::ServeResponse>> futures;
      for (int i = c; i < flags.requests; i += kClients) {
        serve::ServeRequest req;
        req.id = static_cast<uint64_t>(i) + 1;
        req.user =
            dataset.users[static_cast<size_t>(i) % dataset.users.size()];
        futures.push_back(service.Submit(req));
      }
      responses[c].reserve(futures.size());
      for (auto& f : futures) responses[c].push_back(f.get());
    });
  }
  for (std::thread& t : clients) t.join();
  if (reloader.joinable()) {
    reloads_done.store(true, std::memory_order_relaxed);
    reloader.join();
  }
  if (metrics_dumper.joinable()) {
    metrics_done.store(true, std::memory_order_relaxed);
    metrics_dumper.join();
  }
  // Final exposition before Stop() clears in-flight state, so the dump
  // reflects the whole run.
  const std::string final_metrics =
      flags.metrics_every_ms > 0 ? service.MetricsText() : std::string();
  service.Stop();
  Failpoints::Instance().DisarmAll();

  // Latencies per degradation level, then the percentile table.
  std::vector<std::vector<double>> latencies(4);
  for (const auto& per_client : responses) {
    for (const auto& resp : per_client) {
      latencies[static_cast<size_t>(resp.level)].push_back(resp.latency_ms);
    }
  }
  const serve::RecommendService::Stats stats = service.stats();
  std::cout << "served " << stats.requests << " requests: " << stats.full
            << " full, " << stats.cached << " cached, " << stats.popularity
            << " popularity, " << stats.failed << " failed; "
            << stats.load_shed << " shed, " << stats.retries << " retries, "
            << stats.breaker_rejections << " breaker rejections\n"
            << "breaker trips: primary "
            << service.primary_breaker().trips() << ", cache "
            << service.cache_breaker().trips() << "\n"
            << "serving arena: "
            << infer::PrecisionName(model->snapshot_precision()) << ", "
            << stats.arena_store_row_bytes << " B rows + "
            << stats.arena_store_scale_bytes << " B scales + "
            << stats.arena_policy_param_bytes << " B policy\n";
  if (flags.adaptive_admission) {
    const serve::AdmissionController::Snapshot adm =
        service.admission().snapshot();
    std::cout << "admission: limit " << adm.limit << " (x"
              << adm.increases << " increase, x" << adm.decreases
              << " decrease), " << stats.early_sheds << " early + "
              << stats.limit_sheds << " limit + " << stats.queue_full_sheds
              << " queue-full + " << stats.queue_timeout_sheds
              << " queue-timeout sheds\n";
  }
  if (!flags.reload_from.empty()) {
    std::cout << "model reloads: " << stats.reloads << " succeeded, "
              << reload_failures << " failed\n";
  }
  if (!flags.shard_dir.empty()) {
    std::cout << "shard reloads: " << stats.shard_reloads
              << " published (" << stats.shards_remapped << " remapped + "
              << stats.shards_reused << " reused shards), "
              << reload_failures << " failed polls; serving gen "
              << stats.shard_generation << ", " << stats.shard_count
              << " shards, " << stats.shard_mapped_bytes << " B mapped\n";
  }
  for (int level = 0; level < 4; ++level) {
    auto& lat = latencies[static_cast<size_t>(level)];
    if (lat.empty()) continue;
    std::sort(lat.begin(), lat.end());
    std::cout << "  " << serve::DegradationLevelName(
                             static_cast<serve::DegradationLevel>(level))
              << ": n=" << lat.size() << "  p50 "
              << Percentile(lat, 0.50) << "ms  p95 "
              << Percentile(lat, 0.95) << "ms  p99 "
              << Percentile(lat, 0.99) << "ms\n";
  }
  if (!final_metrics.empty()) {
    std::cout << "# --- final metrics ---\n" << final_metrics;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 3) return Usage();
  const std::string command = argv[1];
  std::vector<std::string> args(argv + 2, argv + argc);
  cadrl::CheckpointOptions ckpt;
  int threads = 1;
  if (!ParseCommonFlags(&args, &ckpt, &threads)) return Usage();
  if (command == "generate" && args.size() == 2) {
    return Generate(args[0], args[1]);
  }
  if (command == "eval" && args.size() == 1) {
    return Eval(args[0], ckpt, threads);
  }
  if (command == "train" && args.size() == 2) {
    return Train(args[0], args[1], ckpt, threads);
  }
  if (command == "recommend" && args.size() >= 2 && args.size() <= 4) {
    return Recommend(args[0], args[1],
                     args.size() >= 3 ? std::atoi(args[2].c_str()) : 5,
                     args.size() == 4 ? args[3] : "");
  }
  if (command == "snapshot" && args.size() >= 4 && args[0] == "compile") {
    return SnapshotCompile(
        args[1], args[2], args[3], threads,
        std::vector<std::string>(args.begin() + 4, args.end()));
  }
  if (command == "serve") {
    ServeFlags flags;
    if (!ParseServeFlags(&args, &flags)) return Usage();
    if (args.empty() || args.size() > 2) return Usage();
    return Serve(args[0], args.size() == 2 ? args[1] : "", threads, flags);
  }
  return Usage();
}
