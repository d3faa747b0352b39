#include "world.h"

#include <chrono>
#include <cstring>
#include <unordered_set>

#include "infer/shard_layout.h"
#include "trace.h"
#include "util/logging.h"
#include "util/rng.h"

namespace cadrl {
namespace e2e {

namespace {

baselines::RlBudget BenchBudget() {
  baselines::RlBudget b;
  b.dim = 24;
  b.transe_epochs = 8;
  b.cggnn_epochs = 20;
  b.episodes_per_user = 6;
  b.beam_width = 16;
  b.policy_hidden = 48;
  b.threads = 4;
  return b;
}

}  // namespace

WorldSpec BeautyWorld() {
  return {data::SyntheticConfig::BeautySim(), BenchBudget()};
}

WorldSpec LargeWorld() {
  WorldSpec spec = BeautyWorld();
  spec.config.name = "BeautyX10";
  spec.config.num_users *= 10;
  spec.config.num_items *= 10;
  spec.config.num_categories *= 10;
  spec.config.num_brands *= 10;
  spec.config.num_features *= 10;
  spec.budget.cggnn_epochs = 2;
  spec.budget.episodes_per_user = 1;
  return spec;
}

WorldSpec TinyWorld() {
  WorldSpec spec{data::SyntheticConfig::Tiny(), BenchBudget()};
  spec.budget.transe_epochs = 3;
  spec.budget.cggnn_epochs = 2;
  spec.budget.episodes_per_user = 1;
  spec.budget.beam_width = 8;
  return spec;
}

Fitted SetUp(const WorldSpec& spec, const std::string& shard_dir,
             SetupTimes* times) {
  const auto seconds_since = [](Clock::time_point t) {
    return std::chrono::duration<double>(Clock::now() - t).count();
  };
  const auto start = Clock::now();
  ScopedSpan setup("setup");
  Fitted f;
  {
    ScopedSpan span("data.generate");
    f.dataset = std::make_unique<data::Dataset>(
        data::MustGenerateDataset(spec.config));
  }
  times->generate_s = seconds_since(start);
  // Every world uses the Beauty hyper-parameters (L, delta, alpha_pe,
  // alpha_pc); the large one is Beauty scaled up.
  f.model = baselines::MakeCadrlForDataset(spec.budget, "Beauty");
  {
    ScopedSpan span("core.fit");
    const auto fit_start = Clock::now();
    CADRL_CHECK_OK(f.model->Fit(*f.dataset));
    times->fit_s = seconds_since(fit_start);
  }
  if (!shard_dir.empty()) {
    ScopedSpan span("infer.publish");
    CADRL_CHECK_OK(f.model->CompileSnapshotToDir(shard_dir, kShardRows,
                                                 nullptr));
    CADRL_CHECK_OK(f.model->ReloadFromShardDir(shard_dir));
  }
  times->total_s = seconds_since(start);
  return f;
}

bool ValidWalk(const kg::KnowledgeGraph& graph, kg::EntityId user,
               const eval::RecommendationPath& path) {
  if (path.user != user || path.steps.empty()) return false;
  kg::EntityId current = user;
  for (const eval::PathStep& step : path.steps) {
    if (step.relation == kg::Relation::kSelfLoop ||
        !graph.HasEdge(current, step.relation, step.entity)) {
      return false;
    }
    current = step.entity;
  }
  return true;
}

std::string CheckRecs(const data::Dataset& dataset, kg::EntityId user, int k,
                      const std::vector<eval::Recommendation>& recs,
                      bool with_paths) {
  if (static_cast<int>(recs.size()) != k) {
    return "expected " + std::to_string(k) + " items, got " +
           std::to_string(recs.size());
  }
  std::unordered_set<kg::EntityId> seen;
  for (const eval::Recommendation& rec : recs) {
    if (!seen.insert(rec.item).second) return "duplicate item";
    if (!dataset.graph.IsItem(rec.item)) return "not an item";
    if (dataset.IsTrainInteraction(user, rec.item)) return "train item";
    if (with_paths && (!ValidWalk(dataset.graph, user, rec.path) ||
                       rec.path.endpoint() != rec.item)) {
      return "path is not a KG walk from the user to the item";
    }
  }
  return "";
}

bool SameRecs(const std::vector<eval::Recommendation>& a,
              const std::vector<eval::Recommendation>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].item != b[i].item ||
        std::memcmp(&a[i].score, &b[i].score, sizeof(double)) != 0 ||
        a[i].path.user != b[i].path.user ||
        a[i].path.steps != b[i].path.steps) {
      return false;
    }
  }
  return true;
}

bool SamePaths(const std::vector<eval::RecommendationPath>& a,
               const std::vector<eval::RecommendationPath>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].user != b[i].user || a[i].steps != b[i].steps) return false;
  }
  return true;
}

DeltaPublisher::DeltaPublisher(core::CadrlRecommender* model,
                               const data::Dataset& dataset, std::string dir,
                               uint64_t seed)
    : model_(model), dir_(std::move(dir)), store_(*model->store()),
      order_(dataset.users) {
  Rng rng(seed);
  rng.Shuffle(&order_);
}

Status DeltaPublisher::PublishFull(serve::RecommendService* service) {
  CADRL_RETURN_IF_ERROR(model_->CompileSnapshotToDir(dir_, kShardRows,
                                                     nullptr));
  return service->ReloadFromShardDir(dir_);
}

void DeltaPublisher::NudgeNextRow() {
  const kg::EntityId user = order_[next_ % order_.size()];
  std::vector<float> row(store_.Entity(user).begin(),
                         store_.Entity(user).end());
  // Alternating signs keep every row within 1e-3 of its trained value.
  row[0] += (next_ / order_.size()) % 2 == 0 ? 1e-3f : -1e-3f;
  store_.SetEntityRow(user, row);
  ++next_;
}

Status DeltaPublisher::CompileDelta() {
  NudgeNextRow();
  ScopedSpan span("infer.compile_delta");
  // The snapshot pins the policy parameters the compile reads.
  const std::shared_ptr<const infer::CompiledModel> snap =
      model_->CurrentSnapshot();
  infer::ShardWriteOptions options;
  options.shard_rows = kShardRows;
  options.threads = 1;
  infer::ShardWriteStats stats;
  return infer::CompileToShardDir(
      store_.View(), snap->policy(), snap->score_scale(),
      infer::CompiledModelOptions{snap->precision()}, dir_, options, &stats);
}

Status DeltaPublisher::PublishDelta(serve::RecommendService* service,
                                    double* compile_ms, double* reload_ms) {
  ScopedSpan span("publish");
  const auto t0 = Clock::now();
  CADRL_RETURN_IF_ERROR(CompileDelta());
  const auto t1 = Clock::now();
  {
    ScopedSpan reload("serve.reload");
    CADRL_RETURN_IF_ERROR(service->ReloadFromShardDir(dir_));
  }
  const auto t2 = Clock::now();
  *compile_ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
  *reload_ms = std::chrono::duration<double, std::milli>(t2 - t1).count();
  return Status::OK();
}

}  // namespace e2e
}  // namespace cadrl
