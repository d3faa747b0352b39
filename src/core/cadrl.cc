#include "core/cadrl.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <iomanip>
#include <limits>
#include <sstream>

#include "autograd/ops.h"
#include "core/reward.h"
#include "util/elemwise.h"
#include "util/failpoint.h"
#include "util/io.h"
#include "util/logging.h"
#include "util/stamped_table.h"
#include "util/thread_pool.h"
#include "util/thread_scratch.h"

namespace cadrl {
namespace core {
namespace {

// Softmax probabilities of a logits tensor as raw floats.
std::vector<float> ProbsOf(const ag::Tensor& logits) {
  ag::NoGradGuard guard;
  const ag::Tensor p = ag::Softmax(logits);
  return std::vector<float>(p.data(), p.data() + p.numel());
}

bool AllParamsFinite(const std::vector<ag::Tensor>& params) {
  for (const ag::Tensor& p : params) {
    for (int64_t i = 0; i < p.numel(); ++i) {
      if (!std::isfinite(p.data()[i])) return false;
    }
  }
  return true;
}

}  // namespace

Status CadrlOptions::Validate() const {
  CADRL_RETURN_IF_ERROR(transe.Validate());
  CADRL_RETURN_IF_ERROR(cggnn.Validate());
  if (max_path_length < 1) {
    return Status::InvalidArgument("max_path_length must be >= 1");
  }
  if (max_entity_actions < 2 || max_category_actions < 2) {
    return Status::InvalidArgument("action caps must be >= 2");
  }
  if (alpha_pe < 0.0f || alpha_pc < 0.0f) {
    return Status::InvalidArgument("reward factors must be >= 0");
  }
  if (gamma <= 0.0f || gamma > 1.0f) {
    return Status::InvalidArgument("gamma must be in (0,1]");
  }
  if (policy_hidden < 2 || episodes_per_user < 0 || lr <= 0.0f) {
    return Status::InvalidArgument("bad training configuration");
  }
  if (rollout_batch < 1) {
    return Status::InvalidArgument("rollout_batch must be >= 1");
  }
  if (threads < 0) {
    return Status::InvalidArgument("threads must be >= 0 (0 = auto)");
  }
  if (beam_width < 1 || beam_expand < 1) {
    return Status::InvalidArgument("beam parameters must be >= 1");
  }
  if (demonstration_weight < 0.0f) {
    return Status::InvalidArgument("demonstration_weight must be >= 0");
  }
  return Status::OK();
}

CadrlRecommender::CadrlRecommender(const CadrlOptions& options,
                                   std::string name)
    : name_(std::move(name)), options_(options), rng_(options.seed) {}

Status CadrlRecommender::Fit(const data::Dataset& dataset) {
  return Fit(dataset, CheckpointOptions());
}

Status CadrlRecommender::Fit(const data::Dataset& dataset,
                             const CheckpointOptions& ckpt) {
  CADRL_RETURN_IF_ERROR(options_.Validate());
  CADRL_RETURN_IF_ERROR(ckpt.Validate());
  if (dataset.users.empty()) {
    return Status::InvalidArgument("dataset has no users");
  }
  dataset_ = &dataset;
  const kg::KnowledgeGraph& graph = dataset.graph;
  BuildIndexes(dataset);

  // 1. TransE initialization (§IV-B), checkpointed into the same directory
  //    (prefix "transe") so a resumed run skips completed embedding epochs.
  transe_ = std::make_unique<embed::TransEModel>(
      graph.num_entities(), graph.num_categories(), options_.transe);
  CADRL_RETURN_IF_ERROR(
      embed::TransEModel::Train(graph, options_.transe, ckpt, transe_.get()));

  // 2. CGGNN high-order item representations. One train item per user (for
  //    users with enough history) is held out of the BPR phase as the
  //    validation set that drives score-mode selection below.
  std::vector<std::pair<kg::EntityId, kg::EntityId>> validation_pairs;
  for (size_t u = 0; u < dataset.users.size(); ++u) {
    if (dataset.train_items[u].size() >= 3) {
      validation_pairs.emplace_back(dataset.users[u],
                                    dataset.train_items[u].back());
    }
  }
  cggnn_.reset();
  if (options_.use_cggnn) {
    cggnn_ = std::make_unique<Cggnn>(&graph, transe_.get(), options_.cggnn);
    CADRL_RETURN_IF_ERROR(cggnn_->Train(dataset, &validation_pairs));
  }

  // 3. Frozen embedding store shared by agents/envs/ranker.
  store_ = std::make_unique<EmbeddingStore>(&graph, transe_.get());
  if (cggnn_ != nullptr) {
    // Fine-tuned rows for every entity, then the GNN outputs for items.
    for (kg::EntityId e = 0; e < graph.num_entities(); ++e) {
      store_->SetEntityRow(e, cggnn_->EntityVector(e));
    }
    for (kg::EntityId item : graph.EntitiesOfType(kg::EntityType::kItem)) {
      store_->SetItemRepresentation(item, cggnn_->Representation(item));
    }
    store_->RefreshCategoryVectors();
    // Score-mode selection: pick the plausibility signal (raw translation,
    // refined dot product, or their ensemble) that best ranks the held-out
    // validation purchases. This adapts to how well the BPR fine-tune
    // generalizes on the dataset at hand.
    struct ModeCandidate {
      EmbeddingStore::ScoreMode mode;
      float translation_weight;
    };
    // Demand-fused user rows for the kDemandTranslation candidate.
    for (size_t u = 0; u < dataset.users.size(); ++u) {
      if (dataset.train_items[u].empty()) continue;
      const kg::EntityId user = dataset.users[u];
      std::vector<float> fused(transe_->EntityVec(user).begin(),
                               transe_->EntityVec(user).end());
      std::vector<float> demand(fused.size(), 0.0f);
      for (kg::EntityId item : dataset.train_items[u]) {
        const auto v = transe_->EntityVec(item);
        for (size_t i = 0; i < demand.size(); ++i) demand[i] += v[i];
      }
      const float inv =
          1.0f / static_cast<float>(dataset.train_items[u].size());
      for (size_t i = 0; i < fused.size(); ++i) {
        fused[i] = 0.5f * fused[i] + 0.5f * demand[i] * inv;
      }
      store_->SetDemandUserRow(user, fused);
    }
    const ModeCandidate candidates[] = {
        {EmbeddingStore::ScoreMode::kRawTranslation, 0.0f},
        {EmbeddingStore::ScoreMode::kDemandTranslation, 0.0f},
        {EmbeddingStore::ScoreMode::kDotProduct, 0.0f},
        {EmbeddingStore::ScoreMode::kEnsemble, 1.0f},
        {EmbeddingStore::ScoreMode::kEnsemble, 2.0f},
        {EmbeddingStore::ScoreMode::kEnsemble, 4.0f},
    };
    const auto& items = graph.EntitiesOfType(kg::EntityType::kItem);
    // Deterministic stride-sample of items, scored as one batch per user.
    std::vector<kg::EntityId> sampled_items;
    sampled_items.reserve(items.size() / 3 + 1);
    for (size_t i = 0; i < items.size(); i += 3) {
      sampled_items.push_back(items[i]);
    }
    std::vector<float> sampled_scores(sampled_items.size());
    double best_mrr = -1.0;
    ModeCandidate best = candidates[0];
    for (const ModeCandidate& candidate : candidates) {
      store_->set_score_mode(candidate.mode);
      store_->set_ensemble_translation_weight(candidate.translation_weight);
      double mrr = 0.0;
      for (const auto& [user, val_item] : validation_pairs) {
        const float val_score = store_->ScoreUserEntity(user, val_item);
        store_->ScoreUserEntities(user, sampled_items, sampled_scores);
        int rank = 1;
        for (size_t i = 0; i < sampled_items.size(); ++i) {
          if (sampled_items[i] != val_item &&
              sampled_scores[i] > val_score) {
            ++rank;
          }
        }
        mrr += 1.0 / rank;
      }
      if (mrr > best_mrr) {
        best_mrr = mrr;
        best = candidate;
      }
    }
    store_->set_score_mode(best.mode);
    store_->set_ensemble_translation_weight(best.translation_weight);
  }

  // UCPR-style demand memory (DESIGN.md §4): u <- (u + mean train items)/2.
  if (options_.use_user_demand) {
    const int d = store_->dim();
    for (size_t u = 0; u < dataset.users.size(); ++u) {
      if (dataset.train_items[u].empty()) continue;
      std::vector<float> fused(store_->Entity(dataset.users[u]).begin(),
                               store_->Entity(dataset.users[u]).end());
      std::vector<float> demand(static_cast<size_t>(d), 0.0f);
      for (kg::EntityId item : dataset.train_items[u]) {
        const auto v = store_->Entity(item);
        for (int i = 0; i < d; ++i) demand[static_cast<size_t>(i)] += v[static_cast<size_t>(i)];
      }
      const float inv =
          1.0f / static_cast<float>(dataset.train_items[u].size());
      for (int i = 0; i < d; ++i) {
        fused[static_cast<size_t>(i)] =
            0.5f * fused[static_cast<size_t>(i)] +
            0.5f * demand[static_cast<size_t>(i)] * inv;
      }
      store_->SetEntityRow(dataset.users[u], fused);
    }
  }

  // Soft-reward scale: mean |score| over observed train pairs, scored one
  // batch per user.
  {
    double total = 0.0;
    int64_t count = 0;
    std::vector<float> user_scores;
    for (size_t u = 0; u < dataset.users.size(); ++u) {
      user_scores.resize(dataset.train_items[u].size());
      store_->ScoreUserEntities(dataset.users[u], dataset.train_items[u],
                                user_scores);
      for (const float s : user_scores) {
        total += std::abs(s);
        ++count;
      }
    }
    score_scale_ =
        count > 0 ? std::max(1e-3f, static_cast<float>(total / count)) : 1.0f;
  }

  // 4. Environments and shared policy networks.
  BuildRuntime(dataset);

  // 5. Dual-agent REINFORCE (§IV-C4), with epoch-granular checkpointing,
  //    resume, and divergence rollback.
  ag::Adam optimizer(policy_->Parameters(), options_.lr);
  rl::MovingBaseline entity_baseline, category_baseline;
  epoch_rewards_.clear();

  std::unique_ptr<CheckpointStore> ckpt_store;
  int start_epoch = 0;
  if (ckpt.enabled()) {
    ckpt_store = std::make_unique<CheckpointStore>(ckpt.dir, "fit");
    CADRL_RETURN_IF_ERROR(ckpt_store->Init());
    if (ckpt.resume) {
      int found_epoch = 0;
      std::string payload;
      const Status latest = ckpt_store->LoadLatest(&found_epoch, &payload);
      if (latest.ok()) {
        CADRL_RETURN_IF_ERROR(
            RestoreTrainerState(payload, &start_epoch, &optimizer,
                                &entity_baseline, &category_baseline));
      } else if (!latest.IsNotFound()) {
        return latest;
      }
    }
  }

  std::string last_good = SerializeTrainerState(
      start_epoch, optimizer, entity_baseline, category_baseline);
  ThreadPool pool(ThreadPool::ClampThreads(options_.threads));
  int retries = 0;
  int epoch = start_epoch;
  while (epoch < options_.episodes_per_user) {
    // Fresh shuffle of the canonical user order each epoch, so the epoch's
    // work depends only on the RNG state at its start (resume invariant).
    std::vector<kg::EntityId> order = dataset.users;
    rng_.Shuffle(&order);
    // Episode randomness forks off the post-shuffle state, keyed by the
    // episode's position in the shuffled order (never by worker identity),
    // so the epoch is bit-identical for any thread count (DESIGN.md §9).
    const Rng epoch_rng = rng_;
    double reward_sum = 0.0;
    bool diverged = false;
    // One parallel rollout + imitation tape per episode; losses/baselines
    // are reduced sequentially in episode order below.
    struct EpisodeWork {
      Episode episode;
      ag::Tensor imitation;
    };
    const int64_t num_episodes = static_cast<int64_t>(order.size());
    const int64_t batch = options_.rollout_batch;
    for (int64_t b0 = 0; b0 < num_episodes && !diverged; b0 += batch) {
      const int64_t b1 = std::min(num_episodes, b0 + batch);
      std::vector<EpisodeWork> work(static_cast<size_t>(b1 - b0));
      // Parallel phase: rollouts against the policy frozen at batch start
      // (forward passes only build per-episode tapes; no parameter or
      // gradient writes happen here).
      CADRL_RETURN_IF_ERROR(pool.ParallelFor(
          b0, b1, /*grain=*/1, [&](int64_t e) {
            EpisodeWork& w = work[static_cast<size_t>(e - b0)];
            const kg::EntityId user = order[static_cast<size_t>(e)];
            Rng episode_stream = epoch_rng.Fork(static_cast<uint64_t>(e));
            Rollout(user, &episode_stream, &w.episode);
            // ADAC-style demonstration imitation on a random train item.
            if (options_.demonstration_weight > 0.0f) {
              const auto it = train_sets_.find(user);
              if (it != train_sets_.end() && !it->second.empty()) {
                const int64_t idx = dataset_->UserIndex(user);
                const auto& train =
                    dataset.train_items[static_cast<size_t>(idx)];
                const kg::EntityId target =
                    train[static_cast<size_t>(episode_stream.UniformInt(
                        static_cast<int64_t>(train.size())))];
                const auto demo = DemonstrationPath(user, target);
                if (!demo.empty()) w.imitation = ImitationLoss(user, demo);
              }
            }
            return Status::OK();
          }));
      // Reduction in episode order: baseline updates, reward accumulation
      // and the loss sum see episodes in the shuffled order regardless of
      // which thread collected them.
      std::vector<ag::Tensor> batch_losses;
      for (EpisodeWork& w : work) {
        const Episode& episode = w.episode;
        reward_sum += episode.terminal_entity_reward;
        float total_entity_reward = 0.0f;
        for (float r : episode.entity_trace.rewards) {
          total_entity_reward += r;
        }
        std::vector<ag::Tensor> losses;
        const ag::Tensor entity_loss = rl::ReinforceLoss(
            episode.entity_trace, options_.gamma,
            entity_baseline.Update(total_entity_reward),
            options_.entropy_coef);
        if (entity_loss.defined()) losses.push_back(entity_loss);
        if (!episode.category_trace.log_probs.empty()) {
          float total_category_reward = 0.0f;
          for (float r : episode.category_trace.rewards) {
            total_category_reward += r;
          }
          const ag::Tensor category_loss = rl::ReinforceLoss(
              episode.category_trace, options_.gamma,
              category_baseline.Update(total_category_reward),
              options_.entropy_coef);
          if (category_loss.defined()) losses.push_back(category_loss);
        }
        if (w.imitation.defined()) {
          losses.push_back(
              ag::MulScalar(w.imitation, options_.demonstration_weight));
        }
        if (losses.empty()) continue;
        batch_losses.push_back(ag::AddN(losses));
      }
      if (batch_losses.empty()) continue;
      const ag::Tensor total_loss = ag::MulScalar(
          ag::AddN(batch_losses),
          1.0f / static_cast<float>(batch_losses.size()));
      if (!std::isfinite(total_loss.data()[0])) {
        diverged = true;
        break;
      }
      optimizer.ZeroGrad();
      ag::Backward(total_loss);
      optimizer.ClipGradNorm(options_.grad_clip);
      optimizer.Step();
    }
    if (CADRL_FAILPOINT("cadrl/fit-diverge")) diverged = true;
    if (!diverged) {
      diverged = !std::isfinite(reward_sum) ||
                 !AllParamsFinite(policy_->Parameters());
    }
    if (diverged) {
      if (retries >= ckpt.max_divergence_retries) {
        return Status::Internal(
                   "training diverged at epoch " + std::to_string(epoch) +
                   " after " + std::to_string(retries) + " rollback retries")
            .WithDetail(std::string(Status::kTrainingDivergenceDetail));
      }
      ++retries;
      int rollback_epoch = 0;
      CADRL_RETURN_IF_ERROR(
          RestoreTrainerState(last_good, &rollback_epoch, &optimizer,
                              &entity_baseline, &category_baseline));
      epoch = rollback_epoch;
      // Deterministic jitter so the retry explores a different trajectory
      // (replaying the restored RNG would reproduce the same blow-up).
      rng_ = Rng(options_.seed ^
                 (0x9e3779b97f4a7c15ULL *
                  static_cast<uint64_t>(epoch * 1000 + retries)));
      continue;
    }
    epoch_rewards_.push_back(
        static_cast<float>(reward_sum / static_cast<double>(order.size())));
    ++epoch;
    retries = 0;
    last_good = SerializeTrainerState(epoch, optimizer, entity_baseline,
                                      category_baseline);
    if (ckpt_store != nullptr &&
        (epoch % ckpt.every_n_epochs == 0 ||
         epoch == options_.episodes_per_user)) {
      CADRL_RETURN_IF_ERROR(
          ckpt_store->Write(epoch, last_good, ckpt.keep_last));
      if (CADRL_FAILPOINT("cadrl/fit-kill")) {
        return Status::IOError("simulated crash after training epoch " +
                               std::to_string(epoch));
      }
    }
  }
  // Freeze the fitted state into the serving snapshot: training mutated
  // the live policy/store for the last time above, so the compiled copy is
  // byte-identical to what the tape path would read (modulo the configured
  // snapshot precision's quantization, applied once here).
  PublishSnapshot(BuildSnapshot(*store_, *policy_, score_scale_));
  fitted_ = true;
  return Status::OK();
}

kg::CategoryId CadrlRecommender::InitialCategory(kg::EntityId user,
                                                 bool stochastic,
                                                 Rng* rng) const {
  const auto it = train_categories_.find(user);
  if (it == train_categories_.end() || it->second.empty()) {
    return kg::kInvalidCategory;
  }
  const auto& cats = it->second;
  if (stochastic) {
    CADRL_CHECK(rng != nullptr);
    return cats[static_cast<size_t>(
        rng->UniformInt(static_cast<int64_t>(cats.size())))];
  }
  return GreedyInitialCategory(store_->View(), user);
}

kg::CategoryId CadrlRecommender::GreedyInitialCategory(
    const infer::ScoringView& view, kg::EntityId user) const {
  const auto it = train_categories_.find(user);
  if (it == train_categories_.end() || it->second.empty()) {
    return kg::kInvalidCategory;
  }
  const auto& cats = it->second;
  kg::CategoryId best = cats[0];
  float best_affinity = infer::UserCategoryAffinity(view, user, best);
  for (kg::CategoryId c : cats) {
    const float a = infer::UserCategoryAffinity(view, user, c);
    if (a > best_affinity) {
      best_affinity = a;
      best = c;
    }
  }
  return best;
}

float CadrlRecommender::TerminalEntityReward(kg::EntityId user,
                                             kg::EntityId terminal) const {
  if (options_.terminal_soft_reward) {
    if (!dataset_->graph.IsItem(terminal)) return 0.0f;
    // exp(score/scale) in (0,1]: PGPR's scaled scoring-function reward.
    return std::exp(store_->ScoreUserEntity(user, terminal) / score_scale_);
  }
  const auto it = train_sets_.find(user);
  return (it != train_sets_.end() && it->second.count(terminal) > 0) ? 1.0f
                                                                     : 0.0f;
}

ag::Tensor CadrlRecommender::EntityEmbeddingTensor(kg::EntityId e) const {
  return store_->EntityTensor(e);
}

ag::Tensor CadrlRecommender::EntityActionMatrix(
    const std::vector<EntityAction>& actions) const {
  const int d = store_->dim();
  std::vector<float> rows(actions.size() * static_cast<size_t>(2 * d));
  float* dst = rows.data();
  for (const EntityAction& a : actions) {
    const auto rel = store_->RelationVec(a.relation);
    const auto ent = store_->Entity(a.dst);
    std::copy(rel.begin(), rel.end(), dst);
    std::copy(ent.begin(), ent.end(), dst + d);
    dst += 2 * d;
  }
  return ag::Tensor::FromVector(std::move(rows),
                                {static_cast<int64_t>(actions.size()),
                                 static_cast<int64_t>(2 * d)});
}

ag::Tensor CadrlRecommender::CategoryActionMatrix(
    const std::vector<kg::CategoryId>& actions) const {
  const int d = store_->dim();
  std::vector<float> rows(actions.size() * static_cast<size_t>(d));
  float* dst = rows.data();
  for (kg::CategoryId c : actions) {
    const auto cat = store_->Category(c);
    std::copy(cat.begin(), cat.end(), dst);
    dst += d;
  }
  return ag::Tensor::FromVector(std::move(rows),
                                {static_cast<int64_t>(actions.size()),
                                 static_cast<int64_t>(d)});
}

void CadrlRecommender::BuildIndexes(const data::Dataset& dataset) {
  const kg::KnowledgeGraph& graph = dataset.graph;
  train_sets_.clear();
  train_categories_.clear();
  for (size_t u = 0; u < dataset.users.size(); ++u) {
    const kg::EntityId user = dataset.users[u];
    auto& set = train_sets_[user];
    std::vector<kg::CategoryId> cats;
    for (kg::EntityId item : dataset.train_items[u]) {
      set.insert(item);
      const kg::CategoryId c = graph.CategoryOf(item);
      if (c != kg::kInvalidCategory &&
          std::find(cats.begin(), cats.end(), c) == cats.end()) {
        cats.push_back(c);
      }
    }
    train_categories_[user] = std::move(cats);
  }
}

void CadrlRecommender::BuildRuntime(const data::Dataset& dataset) {
  entity_env_ = std::make_unique<EntityEnvironment>(
      &dataset.graph, store_.get(), options_.max_entity_actions);
  category_env_ = std::make_unique<CategoryEnvironment>(
      &dataset.category_graph, store_.get(), options_.max_category_actions);
  policy_ = std::make_unique<SharedPolicyNetworks>(MakePolicyConfig(), &rng_);
}

PolicyConfig CadrlRecommender::MakePolicyConfig() const {
  PolicyConfig policy_config;
  policy_config.dim = store_->dim();
  policy_config.hidden = options_.policy_hidden;
  policy_config.share_history =
      options_.share_history && options_.use_dual_agent;
  policy_config.condition_on_category = options_.use_dual_agent;
  return policy_config;
}

std::shared_ptr<const infer::CompiledModel> CadrlRecommender::AcquireSnapshot()
    const {
  std::lock_guard<std::mutex> lock(snapshot_mu_);
  return compiled_;
}

void CadrlRecommender::PublishSnapshot(
    std::shared_ptr<const infer::CompiledModel> snapshot) {
  std::lock_guard<std::mutex> lock(snapshot_mu_);
  compiled_ = std::move(snapshot);
}

void CadrlRecommender::RepublishSnapshot() {
  if (!fitted_ || !use_compiled_ || store_ == nullptr || policy_ == nullptr) {
    return;
  }
  PublishSnapshot(BuildSnapshot(*store_, *policy_, score_scale_));
}

std::shared_ptr<const infer::CompiledModel> CadrlRecommender::BuildSnapshot(
    const EmbeddingStore& store, const SharedPolicyNetworks& policy,
    float scale) const {
  return infer::CompiledModel::Build(
      store, policy, scale, infer::CompiledModelOptions{snapshot_precision_});
}

Status CadrlRecommender::CompileSnapshotToDir(
    const std::string& dir, int64_t shard_rows,
    infer::ShardWriteStats* stats) const {
  if (!fitted_ || store_ == nullptr || policy_ == nullptr) {
    return Status::FailedPrecondition(
        "CompileSnapshotToDir requires a fitted or loaded model");
  }
  infer::ShardWriteOptions wopts;
  if (shard_rows > 0) wopts.shard_rows = shard_rows;
  infer::ShardWriteStats local;
  return infer::CompileToShardDir(
      store_->View(), policy_->ParamsView(), score_scale_,
      infer::CompiledModelOptions{snapshot_precision_}, dir, wopts,
      stats != nullptr ? stats : &local);
}

Status CadrlRecommender::ReloadFromShardDir(const std::string& dir) {
  if (!fitted_ || dataset_ == nullptr) {
    return Status::FailedPrecondition(
        "ReloadFromShardDir requires a fitted or loaded model");
  }
  const std::shared_ptr<const infer::CompiledModel> previous =
      AcquireSnapshot();
  infer::ShardLoadOptions lopts;
  lopts.verify_payload = infer::ShardVerifyFromEnv();
  std::shared_ptr<const infer::CompiledModel> next;
  CADRL_RETURN_IF_ERROR(infer::LoadFromShardDir(dir, lopts, previous, &next));
  const infer::ScoringView& sv = next->scoring();
  if (sv.dim != options_.transe.dim) {
    return Status::Corruption("shard dir dim does not match options");
  }
  if (sv.num_entities !=
          static_cast<int64_t>(dataset_->graph.num_entities()) ||
      sv.num_categories !=
          static_cast<int64_t>(dataset_->graph.num_categories())) {
    return Status::Corruption("shard dir table sizes do not match dataset");
  }
  // An unchanged directory (same generation, nothing remapped beyond what
  // the previous snapshot already held) republishes nothing: reloaders can
  // poll cheaply.
  if (previous != nullptr && previous->mapped() &&
      previous->shard_stats().generation == next->shard_stats().generation &&
      next->shard_stats().shards_remapped == 0) {
    return Status::OK();
  }
  PublishSnapshot(std::move(next));
  return Status::OK();
}

eval::Recommender::ShardServingStatus CadrlRecommender::ShardStatus() const {
  const std::shared_ptr<const infer::CompiledModel> snapshot =
      AcquireSnapshot();
  if (snapshot == nullptr || !snapshot->mapped()) return {};
  const infer::ShardSetStats& st = snapshot->shard_stats();
  ShardServingStatus out;
  out.shard_count = st.shard_count;
  out.mapped_bytes = st.mapped_bytes;
  out.generation = st.generation;
  out.shards_remapped = st.shards_remapped;
  out.shards_reused = st.shards_reused;
  out.shard_generations.reserve(snapshot->shard_infos().size());
  for (const infer::ShardSetInfo& info : snapshot->shard_infos()) {
    out.shard_generations.push_back(info.generation);
  }
  return out;
}

eval::Recommender::ServingArena CadrlRecommender::ServingArenaBytes() const {
  const std::shared_ptr<const infer::CompiledModel> snapshot =
      AcquireSnapshot();
  if (snapshot == nullptr) return {};
  const infer::ArenaBytes& ab = snapshot->arena_bytes();
  ServingArena arena;
  arena.store_row_bytes = ab.store_rows;
  arena.store_scale_bytes = ab.store_scales;
  arena.policy_param_bytes = ab.policy_params;
  return arena;
}

namespace {

// Writes the policy parameter tensors as "<count>\n" then per tensor
// "<numel>\n<values...>\n" (exact float round-trip).
void WriteParams(std::ostream& out, const std::vector<ag::Tensor>& params) {
  out << params.size() << '\n';
  for (const ag::Tensor& p : params) {
    out << p.numel() << '\n'
        << std::setprecision(std::numeric_limits<float>::max_digits10);
    for (int64_t i = 0; i < p.numel(); ++i) out << p.data()[i] << ' ';
    out << '\n';
  }
}

// Reads parameter values written by WriteParams into `params`, validating
// the count and every per-tensor numel against the constructed policy
// BEFORE reading any floats, so a corrupted or truncated tail can never
// read past the stream or into the wrong tensor.
Status ReadParams(std::istream& in, std::vector<ag::Tensor>* params) {
  int64_t num_params = -1;
  in >> num_params;
  if (in.fail() || num_params < 0 ||
      num_params != static_cast<int64_t>(params->size())) {
    return Status::Corruption("policy parameter count mismatch");
  }
  for (ag::Tensor& p : *params) {
    int64_t numel = -1;
    in >> numel;
    if (in.fail() || numel != p.numel()) {
      return Status::Corruption("policy parameter shape mismatch");
    }
    for (int64_t i = 0; i < numel; ++i) {
      if (!(in >> p.data()[i])) {
        return Status::Corruption("truncated policy parameters");
      }
    }
  }
  return Status::OK();
}

}  // namespace

std::string CadrlRecommender::SerializeTrainerState(
    int epochs_done, const ag::Adam& optimizer,
    const rl::MovingBaseline& entity_baseline,
    const rl::MovingBaseline& category_baseline) const {
  std::ostringstream out;
  out << "cadrl_fit_ckpt 1\n";
  out << epochs_done << ' ' << options_.seed << '\n';
  rng_.WriteState(out);
  out << std::setprecision(std::numeric_limits<float>::max_digits10);
  out << "rewards " << epoch_rewards_.size();
  for (float r : epoch_rewards_) out << ' ' << r;
  out << '\n';
  out << "baselines " << entity_baseline.value() << ' '
      << (entity_baseline.initialized() ? 1 : 0) << ' '
      << category_baseline.value() << ' '
      << (category_baseline.initialized() ? 1 : 0) << '\n';
  optimizer.WriteState(out);
  WriteParams(out, policy_->Parameters());
  return out.str();
}

Status CadrlRecommender::RestoreTrainerState(
    const std::string& payload, int* epochs_done, ag::Adam* optimizer,
    rl::MovingBaseline* entity_baseline,
    rl::MovingBaseline* category_baseline) {
  CADRL_CHECK(epochs_done != nullptr);
  std::istringstream in(payload);
  std::string magic, keyword;
  int version = 0;
  in >> magic >> version;
  if (in.fail() || magic != "cadrl_fit_ckpt" || version != 1) {
    return Status::Corruption("bad fit checkpoint header");
  }
  int done = -1;
  uint64_t seed = 0;
  in >> done >> seed;
  if (in.fail() || done < 0) {
    return Status::Corruption("bad fit checkpoint epoch record");
  }
  if (seed != options_.seed) {
    return Status::FailedPrecondition(
        "checkpoint was written with a different seed; resuming would not "
        "be deterministic");
  }
  CADRL_RETURN_IF_ERROR(rng_.ReadState(in));
  int64_t num_rewards = -1;
  in >> keyword >> num_rewards;
  if (in.fail() || keyword != "rewards" || num_rewards != done) {
    return Status::Corruption("fit checkpoint reward history mismatch");
  }
  std::vector<float> rewards(static_cast<size_t>(num_rewards));
  for (float& r : rewards) {
    if (!(in >> r)) {
      return Status::Corruption("truncated fit checkpoint rewards");
    }
  }
  float e_value = 0.0f, c_value = 0.0f;
  int e_init = 0, c_init = 0;
  in >> keyword >> e_value >> e_init >> c_value >> c_init;
  if (in.fail() || keyword != "baselines") {
    return Status::Corruption("bad fit checkpoint baselines");
  }
  CADRL_RETURN_IF_ERROR(optimizer->ReadState(in));
  std::vector<ag::Tensor> params = policy_->Parameters();
  CADRL_RETURN_IF_ERROR(ReadParams(in, &params));
  epoch_rewards_ = std::move(rewards);
  entity_baseline->Restore(e_value, e_init == 1);
  category_baseline->Restore(c_value, c_init == 1);
  *epochs_done = done;
  return Status::OK();
}

Status CadrlRecommender::SaveModel(const std::string& path) const {
  if (!fitted_) {
    return Status::FailedPrecondition("call Fit() before SaveModel()");
  }
  // Serialize to memory, then write atomically with a CRC footer: a crash
  // or I/O fault mid-save leaves any previous model at `path` intact.
  std::ostringstream out;
  out << "cadrl_model 1\n";
  out << store_->dim() << ' '
      << std::setprecision(std::numeric_limits<float>::max_digits10)
      << score_scale_ << '\n';
  CADRL_RETURN_IF_ERROR(store_->WriteTo(out));
  WriteParams(out, policy_->Parameters());
  if (!out.good()) return Status::IOError("model serialization failed");
  return WriteFileAtomic(path, out.str());
}

Status CadrlRecommender::LoadModel(const data::Dataset& dataset,
                                   const std::string& path) {
  CADRL_RETURN_IF_ERROR(options_.Validate());
  if (dataset.users.empty()) {
    return Status::InvalidArgument("dataset has no users");
  }
  std::string payload;
  CADRL_RETURN_IF_ERROR(ReadFileVerified(path, &payload));
  std::istringstream in(payload);
  std::string magic;
  int version = 0;
  in >> magic >> version;
  if (magic != "cadrl_model" || version != 1) {
    return Status::Corruption("bad model header");
  }
  int dim = 0;
  float scale = 0.0f;
  in >> dim >> scale;
  if (!in.good() || dim != options_.transe.dim) {
    return Status::Corruption("model dim does not match options");
  }
  dataset_ = &dataset;
  BuildIndexes(dataset);
  // Untrained TransE provides shapes; the store tables are then replaced
  // by the saved (trained) values.
  transe_ = std::make_unique<embed::TransEModel>(
      dataset.graph.num_entities(), dataset.graph.num_categories(),
      options_.transe);
  store_ = std::make_unique<EmbeddingStore>(&dataset.graph, transe_.get());
  CADRL_RETURN_IF_ERROR(store_->ReadFrom(in));
  score_scale_ = scale;
  BuildRuntime(dataset);
  std::vector<ag::Tensor> params = policy_->Parameters();
  CADRL_RETURN_IF_ERROR(ReadParams(in, &params));
  cggnn_.reset();
  PublishSnapshot(BuildSnapshot(*store_, *policy_, score_scale_));
  fitted_ = true;
  return Status::OK();
}

Status CadrlRecommender::ReloadFromCheckpoint(const std::string& path) {
  if (!fitted_ || dataset_ == nullptr || transe_ == nullptr) {
    return Status::FailedPrecondition(
        "ReloadFromCheckpoint requires a fitted or loaded model");
  }
  std::string payload;
  CADRL_RETURN_IF_ERROR(ReadFileVerified(path, &payload));
  std::istringstream in(payload);
  std::string magic;
  int version = 0;
  in >> magic >> version;
  if (magic != "cadrl_model" || version != 1) {
    return Status::Corruption("bad model header");
  }
  int dim = 0;
  float scale = 0.0f;
  in >> dim >> scale;
  if (!in.good() || dim != options_.transe.dim) {
    return Status::Corruption("model dim does not match options");
  }
  // Parse into side tables — the live store/policy (and any snapshot
  // in-flight requests already acquired) are never touched. Only after the
  // whole checkpoint validates is the new snapshot compiled and published.
  EmbeddingStore next_store(&dataset_->graph, transe_.get());
  CADRL_RETURN_IF_ERROR(next_store.ReadFrom(in));
  Rng scratch_rng(options_.seed);
  SharedPolicyNetworks next_policy(MakePolicyConfig(), &scratch_rng);
  std::vector<ag::Tensor> params = next_policy.Parameters();
  CADRL_RETURN_IF_ERROR(ReadParams(in, &params));
  PublishSnapshot(BuildSnapshot(next_store, next_policy, scale));
  return Status::OK();
}

void CadrlRecommender::Rollout(kg::EntityId user, Rng* rng,
                               Episode* episode) {
  const bool dual = options_.use_dual_agent;
  kg::EntityId entity = user;
  kg::Relation last_rel = kg::Relation::kSelfLoop;
  kg::CategoryId category =
      dual ? InitialCategory(user, /*stochastic=*/true, rng)
           : kg::kInvalidCategory;
  const bool category_active = dual && category != kg::kInvalidCategory;
  // Scores this rollout computes (action pruning, potential shaping) are
  // cached per entity — beam-free but steps revisit neighborhoods.
  UserScoreMemo score_memo(store_.get(), user);

  const ag::Tensor user_t = store_->EntityTensor(user);
  ag::Tensor cat_t = category_active ? store_->CategoryTensor(category)
                                     : store_->ZeroTensor();
  ag::Tensor rel_t = store_->RelationTensor(kg::Relation::kSelfLoop);
  ag::Tensor ent_t = store_->EntityTensor(entity);
  SharedPolicyNetworks::RolloutState state =
      policy_->InitialState(user_t, cat_t, rel_t, ent_t);

  for (int l = 0; l < options_.max_path_length; ++l) {
    // --- Category agent: pick the step's milestone (guidance). ---
    kg::CategoryId next_category = category;
    std::vector<float> category_probs;
    std::vector<kg::CategoryId> cat_actions;
    if (category_active) {
      cat_actions = category_env_->ValidActions(user, category);
      const ag::Tensor cat_logits = policy_->CategoryLogits(
          state, user_t, cat_t, CategoryActionMatrix(cat_actions));
      const ag::Tensor cat_log_probs = ag::LogSoftmax(cat_logits);
      category_probs = ProbsOf(cat_logits);
      std::vector<double> weights(category_probs.begin(),
                                  category_probs.end());
      const int64_t pick = rng->SampleWeighted(weights);
      next_category = cat_actions[static_cast<size_t>(pick)];
      episode->category_trace.log_probs.push_back(
          ag::Slice(cat_log_probs, pick, 1));
      episode->category_trace.entropies.push_back(
          ag::Neg(ag::Sum(ag::Mul(ag::Softmax(cat_logits), cat_log_probs))));
      episode->category_trace.rewards.push_back(0.0f);
    }

    // --- Entity agent: conditioned on the category milestone. ---
    const std::vector<EntityAction> ent_actions = entity_env_->ValidActions(
        user, entity, /*milestone_categories=*/nullptr, &score_memo);
    const ag::Tensor ent_mat = EntityActionMatrix(ent_actions);
    const ag::Tensor condition = category_active
                                     ? store_->CategoryTensor(next_category)
                                     : ag::Tensor();
    const ag::Tensor ent_logits =
        policy_->EntityLogits(state, ent_t, rel_t, condition, ent_mat);
    const ag::Tensor ent_log_probs = ag::LogSoftmax(ent_logits);
    const std::vector<float> conditioned_probs = ProbsOf(ent_logits);
    std::vector<double> weights(conditioned_probs.begin(),
                                conditioned_probs.end());
    const int64_t pick = rng->SampleWeighted(weights);
    const EntityAction action = ent_actions[static_cast<size_t>(pick)];
    episode->entity_trace.log_probs.push_back(
        ag::Slice(ent_log_probs, pick, 1));
    episode->entity_trace.entropies.push_back(
        ag::Neg(ag::Sum(ag::Mul(ag::Softmax(ent_logits), ent_log_probs))));
    episode->entity_trace.rewards.push_back(0.0f);

    // --- Potential-based shaping against the sparse reward dilemma. ---
    if (options_.potential_shaping > 0.0f) {
      const float phi_next = score_memo.Score(action.dst) / score_scale_;
      const float phi_cur = score_memo.Score(entity) / score_scale_;
      episode->entity_trace.rewards.back() +=
          options_.potential_shaping * (phi_next - phi_cur);
    }

    // --- Collaborative rewards (Eqs 17-21). ---
    if (category_active && options_.use_partner_rewards) {
      // Marginal p(a^e|s^e) = sum_a~ p(a^e|a~,s^e) p(a~|s^e), exactly over
      // the pruned category action set. All K conditional distributions
      // come from one batched no-grad forward.
      std::vector<std::span<const float>> conditions;
      conditions.reserve(cat_actions.size());
      for (const kg::CategoryId c : cat_actions) {
        conditions.push_back(store_->Category(c));
      }
      std::vector<float> cond_probs;
      policy_->EntityProbsBatch(state, ent_t, rel_t, conditions, ent_mat,
                                &cond_probs);
      std::vector<float> marginal(conditioned_probs.size(), 0.0f);
      for (size_t x = 0; x < cat_actions.size(); ++x) {
        const float* p_x = cond_probs.data() + x * marginal.size();
        for (size_t i = 0; i < marginal.size(); ++i) {
          marginal[i] += category_probs[x] * p_x[i];
        }
      }
      const float r_pc =
          CounterfactualPartnerReward(conditioned_probs, marginal);
      episode->entity_trace.rewards.back() += options_.alpha_pc * r_pc;
      const float r_pe = CosineConsistency(store_->Category(next_category),
                                           store_->Entity(action.dst));
      episode->category_trace.rewards.back() += options_.alpha_pe * r_pe;
    }

    // --- Transition + history update (Eqs 13-14). ---
    category = next_category;
    entity = action.dst;
    last_rel = action.relation;
    cat_t = category_active ? store_->CategoryTensor(category)
                            : store_->ZeroTensor();
    rel_t = store_->RelationTensor(last_rel);
    ent_t = store_->EntityTensor(entity);
    policy_->Advance(&state, user_t, cat_t, rel_t, ent_t);
  }

  // Terminal rewards.
  const float terminal = TerminalEntityReward(user, entity);
  episode->terminal_entity_reward = terminal;
  if (!episode->entity_trace.rewards.empty()) {
    episode->entity_trace.rewards.back() += terminal;
  }
  if (category_active && !episode->category_trace.rewards.empty()) {
    // find(), not operator[]: rollouts run concurrently and must never
    // mutate the shared map.
    const auto it = train_categories_.find(user);
    if (it != train_categories_.end() &&
        std::find(it->second.begin(), it->second.end(), category) !=
            it->second.end()) {
      episode->category_trace.rewards.back() += 1.0f;
    }
  }
}

std::vector<EntityAction> CadrlRecommender::DemonstrationPath(
    kg::EntityId user, kg::EntityId item) const {
  const kg::KnowledgeGraph& graph = dataset_->graph;
  std::vector<int32_t> parent(static_cast<size_t>(graph.num_entities()), -2);
  std::vector<kg::Relation> via(static_cast<size_t>(graph.num_entities()),
                                kg::Relation::kSelfLoop);
  parent[static_cast<size_t>(user)] = -1;
  std::vector<kg::EntityId> frontier = {user};
  bool found = (user == item);
  for (int depth = 0; depth < options_.max_path_length && !found; ++depth) {
    std::vector<kg::EntityId> next;
    for (kg::EntityId e : frontier) {
      for (const kg::Edge& edge : graph.Neighbors(e)) {
        if (parent[static_cast<size_t>(edge.dst)] != -2) continue;
        parent[static_cast<size_t>(edge.dst)] = e;
        via[static_cast<size_t>(edge.dst)] = edge.relation;
        if (edge.dst == item) {
          found = true;
          break;
        }
        next.push_back(edge.dst);
      }
      if (found) break;
    }
    frontier = std::move(next);
  }
  if (!found || user == item) return {};
  std::vector<EntityAction> path;
  for (kg::EntityId e = item; e != user;
       e = static_cast<kg::EntityId>(parent[static_cast<size_t>(e)])) {
    path.push_back({via[static_cast<size_t>(e)], e});
  }
  std::reverse(path.begin(), path.end());
  return path;
}

ag::Tensor CadrlRecommender::ImitationLoss(
    kg::EntityId user, const std::vector<EntityAction>& demo) {
  const ag::Tensor user_t = store_->EntityTensor(user);
  kg::EntityId entity = user;
  kg::Relation last_rel = kg::Relation::kSelfLoop;
  SharedPolicyNetworks::RolloutState state = policy_->InitialState(
      user_t, store_->ZeroTensor(),
      store_->RelationTensor(kg::Relation::kSelfLoop),
      store_->EntityTensor(user));
  std::vector<ag::Tensor> terms;
  for (const EntityAction& target : demo) {
    const std::vector<EntityAction> actions =
        entity_env_->ValidActions(user, entity);
    int64_t target_index = -1;
    for (size_t i = 0; i < actions.size(); ++i) {
      if (actions[i] == target) {
        target_index = static_cast<int64_t>(i);
        break;
      }
    }
    if (target_index >= 0) {
      const ag::Tensor logits = policy_->EntityLogits(
          state, store_->EntityTensor(entity),
          store_->RelationTensor(last_rel), ag::Tensor(),
          EntityActionMatrix(actions));
      terms.push_back(ag::Neg(
          ag::Sum(ag::Slice(ag::LogSoftmax(logits), target_index, 1))));
    }
    policy_->Advance(&state, user_t, store_->ZeroTensor(),
                     store_->RelationTensor(target.relation),
                     store_->EntityTensor(target.dst));
    entity = target.dst;
    last_rel = target.relation;
  }
  if (terms.empty()) return ag::Tensor();
  return ag::MulScalar(ag::AddN(terms),
                       1.0f / static_cast<float>(terms.size()));
}

std::vector<eval::Recommendation> CadrlRecommender::Recommend(
    kg::EntityId user, int k) {
  // With no context there is no deadline, no cancellation and no failpoint
  // evaluation, so the internal search cannot fail.
  std::vector<eval::Recommendation> out;
  const Status status = RecommendWithContext(user, k, nullptr, &out);
  CADRL_CHECK(status.ok()) << status.ToString();
  return out;
}

Status CadrlRecommender::Recommend(kg::EntityId user, int k,
                                   const RequestContext& ctx,
                                   std::vector<eval::Recommendation>* out) {
  return RecommendWithContext(user, k, &ctx, out);
}

Status CadrlRecommender::FindPaths(kg::EntityId user, int max_paths,
                                   const RequestContext& ctx,
                                   std::vector<eval::RecommendationPath>* out) {
  out->clear();
  CADRL_RETURN_IF_ERROR(ctx.Check());
  if (CADRL_FAILPOINT("cadrl/find-paths")) {
    return Status::Internal("injected fault in path finding");
  }
  std::vector<eval::Recommendation> recs;
  CADRL_RETURN_IF_ERROR(RecommendWithContext(user, max_paths, &ctx, &recs));
  out->reserve(recs.size());
  for (eval::Recommendation& rec : recs) {
    if (!rec.path.empty()) out->push_back(std::move(rec.path));
  }
  return Status::OK();
}

namespace {

// One beam element as the search records it. Every survivor of every hop
// is appended to one flat history array and points at its parent, so an
// explanation path is a walk up parent links, built only for the answers
// actually returned.
struct BeamNode {
  int32_t parent;  // history index of the parent; -1 for the root
  kg::EntityId entity;
  kg::Relation last_rel;  // the move onto `entity`; kSelfLoop adds no step
  kg::CategoryId category;
  double log_prob;
};

// One expansion of the current hop: its parent's slot in the current beam
// and the move it takes. Siblings share the parent's next category.
struct BeamChild {
  double log_prob;
  kg::EntityId entity;
  kg::Relation relation;
  kg::CategoryId category;  // kInvalidCategory when no category is active
  int32_t parent;
};

// The best-scoring way found so far to reach one candidate item: the edge
// (relation, item) out of history node `node`.
struct BeamCandidate {
  double score;
  int32_t node;
  kg::Relation relation;
};

// Everything one beam search writes besides its answer. Owned by the
// driver; the compiled driver is per-thread scratch, so these buffers keep
// their capacity across requests and a warmed search allocates nothing
// until it builds the returned paths.
template <typename State>
struct BeamScratch {
  std::vector<BeamNode> history;
  // Recurrent states of the current and the next beam, by slot. Never
  // shrunk, so the states' own buffers survive from request to request.
  std::vector<State> states, next_states;
  std::vector<BeamChild> children;
  CategorySet milestones;
  std::vector<std::pair<float, kg::CategoryId>> category_scored;
  std::vector<kg::CategoryId> category_actions;
  ActionScratch action_scratch;
  std::vector<EntityAction> entity_actions;
  std::vector<float> log_probs, guidance, item_scores;
  std::vector<kg::EntityId> dsts, item_ids;
  std::vector<kg::Relation> item_relations;
  std::vector<std::pair<float, int64_t>> ranked;
  util::StampedTable<BeamCandidate> candidates;  // by item entity id
  std::vector<std::pair<double, kg::EntityId>> ranking;
};

// Builds a candidate's explanation path: the non-self-loop moves from the
// root down to its node, then the edge onto the item. The step vector is
// sized once, so a path costs one allocation.
void BuildPath(const std::vector<BeamNode>& history, kg::EntityId user,
               kg::EntityId item, const BeamCandidate& cand,
               eval::RecommendationPath* path) {
  size_t n = 1;
  for (int32_t i = cand.node; i >= 0; i = history[i].parent) {
    if (history[i].last_rel != kg::Relation::kSelfLoop) ++n;
  }
  path->user = user;
  path->steps.resize(n);
  path->steps[--n] = {cand.relation, item};
  for (int32_t i = cand.node; i >= 0; i = history[i].parent) {
    if (history[i].last_rel != kg::Relation::kSelfLoop) {
      path->steps[--n] = {history[i].last_rel, history[i].entity};
    }
  }
}

}  // namespace

// Tape-path policy forwards for the beam search: the legacy autograd
// composition over fresh constant-leaf tensors, wrapped behind the driver
// interface BeamSearch expects. Kept as the golden reference the compiled
// driver is byte-compared against, so it advances every survivor with one
// full Advance and keeps its scratch per call.
struct CadrlRecommender::TapeBeamDriver {
  using State = SharedPolicyNetworks::RolloutState;

  explicit TapeBeamDriver(const CadrlRecommender& r) : rec(r) {}

  void InitialState(kg::EntityId user, kg::CategoryId category, State* out) {
    user_t = rec.store_->EntityTensor(user);
    *out = rec.policy_->InitialState(
        user_t,
        category != kg::kInvalidCategory ? rec.store_->CategoryTensor(category)
                                         : rec.store_->ZeroTensor(),
        rec.store_->RelationTensor(kg::Relation::kSelfLoop),
        rec.store_->EntityTensor(user));
  }

  kg::CategoryId PickCategory(const State& state, kg::CategoryId current,
                              const std::vector<kg::CategoryId>& actions) {
    const ag::Tensor logits = rec.policy_->CategoryLogits(
        state, user_t, rec.store_->CategoryTensor(current),
        rec.CategoryActionMatrix(actions));
    const std::vector<float> probs = ProbsOf(logits);
    const int64_t best = static_cast<int64_t>(std::distance(
        probs.begin(), std::max_element(probs.begin(), probs.end())));
    return actions[static_cast<size_t>(best)];
  }

  void EntityLogProbs(const State& state, kg::EntityId entity,
                      kg::Relation last_rel, kg::CategoryId condition,
                      const std::vector<EntityAction>& actions,
                      std::vector<float>* out) {
    const ag::Tensor logits = rec.policy_->EntityLogits(
        state, rec.store_->EntityTensor(entity),
        rec.store_->RelationTensor(last_rel),
        condition != kg::kInvalidCategory
            ? rec.store_->CategoryTensor(condition)
            : ag::Tensor(),
        rec.EntityActionMatrix(actions));
    const ag::Tensor log_probs = ag::LogSoftmax(logits);
    out->assign(log_probs.data(), log_probs.data() + log_probs.numel());
  }

  // next[i] = parents[moves[i].parent] advanced by moves[i].
  void Advance(std::span<const State> parents,
               std::span<const BeamChild> moves, std::vector<State>* next) {
    for (size_t i = 0; i < moves.size(); ++i) {
      const BeamChild& m = moves[i];
      State& child = (*next)[i];
      child = parents[static_cast<size_t>(m.parent)];
      rec.policy_->Advance(
          &child, user_t,
          m.category != kg::kInvalidCategory
              ? rec.store_->CategoryTensor(m.category)
              : rec.store_->ZeroTensor(),
          rec.store_->RelationTensor(m.relation),
          rec.store_->EntityTensor(m.entity));
    }
  }

  const CadrlRecommender& rec;
  ag::Tensor user_t;
  BeamScratch<State> beam;
};

// Compiled-path policy forwards: the same four steps over a frozen
// CompiledModel snapshot through infer/policy_forward, allocating no tensor
// graph nodes. One driver per thread is reused across requests (Bind
// points it at the request's snapshot), so its buffers and the beam
// scratch it owns are sized once and a warmed search never allocates.
//
// The snapshot's tables may be quantized (f16/int8): every policy-forward
// operand goes through RowSpan, which is zero-copy for f32 and dequantizes
// into a per-operand slot otherwise. Slots are per *operand position* —
// user/entity/relation/category — because one forward holds up to four row
// pointers live at once (e.g. AdvanceChildRaw reads the user, relation and
// entity rows together). Dequantization is a pure per-row function of the
// stored bytes, so the policy forwards stay byte-identical across thread
// counts for a fixed snapshot.
struct CadrlRecommender::CompiledBeamDriver {
  using State = infer::RawPolicyState;

  // Points the driver at `m`. Called once per request.
  void Bind(const infer::CompiledModel& m) {
    sv = &m.scoring();
    pv = &m.policy();
    zeros.assign(static_cast<size_t>(sv->dim), 0.0f);
  }

  // The requesting user's entity row (user_ is fixed per search).
  std::span<const float> User() {
    return infer::RowSpan(sv->entities, sv->precision, sv->dim,
                          static_cast<int64_t>(user_), &user_slot);
  }
  std::span<const float> Ent(kg::EntityId e) {
    return infer::RowSpan(sv->entities, sv->precision, sv->dim,
                          static_cast<int64_t>(e), &ent_slot);
  }
  std::span<const float> Rel(kg::Relation r) {
    return infer::RowSpan(sv->relations, sv->precision, sv->dim,
                          static_cast<int64_t>(r), &rel_slot);
  }
  std::span<const float> Cat(kg::CategoryId c) {
    return infer::RowSpan(sv->categories, sv->precision, sv->dim,
                          static_cast<int64_t>(c), &cat_slot);
  }
  std::span<const float> CatOrZero(kg::CategoryId c) {
    if (c != kg::kInvalidCategory) return Cat(c);
    return {zeros.data(), zeros.size()};
  }

  void InitialState(kg::EntityId user, kg::CategoryId category, State* out) {
    user_ = user;
    infer::InitialStateRaw(*pv, User(), CatOrZero(category),
                           Rel(kg::Relation::kSelfLoop), Ent(user), &scratch,
                           out);
  }

  kg::CategoryId PickCategory(const State& state, kg::CategoryId current,
                              const std::vector<kg::CategoryId>& actions) {
    const int d = sv->dim;
    const int n = static_cast<int>(actions.size());
    action_rows.resize(static_cast<size_t>(n) * d);
    for (int i = 0; i < n; ++i) {
      infer::MaterializeRow(
          sv->categories, sv->precision, d,
          static_cast<int64_t>(actions[static_cast<size_t>(i)]),
          action_rows.data() + static_cast<size_t>(i) * d);
    }
    logits.resize(static_cast<size_t>(n));
    infer::CategoryLogitsRaw(*pv, state, User(), Cat(current),
                             action_rows.data(), n, &scratch, logits.data());
    probs.resize(static_cast<size_t>(n));
    elemwise::SoftmaxVec(logits.data(), probs.data(), static_cast<size_t>(n));
    const int64_t best = static_cast<int64_t>(std::distance(
        probs.begin(), std::max_element(probs.begin(), probs.end())));
    return actions[static_cast<size_t>(best)];
  }

  void EntityLogProbs(const State& state, kg::EntityId entity,
                      kg::Relation last_rel, kg::CategoryId condition,
                      const std::vector<EntityAction>& actions,
                      std::vector<float>* out) {
    const int d = sv->dim;
    const int n = static_cast<int>(actions.size());
    action_rows.resize(static_cast<size_t>(n) * 2 * d);
    float* dst = action_rows.data();
    for (const EntityAction& a : actions) {
      infer::MaterializeRow(sv->relations, sv->precision, d,
                            static_cast<int64_t>(a.relation), dst);
      infer::MaterializeRow(sv->entities, sv->precision, d,
                            static_cast<int64_t>(a.dst), dst + d);
      dst += 2 * d;
    }
    logits.resize(static_cast<size_t>(n));
    const std::span<const float> condition_row =
        condition != kg::kInvalidCategory ? Cat(condition)
                                          : std::span<const float>();
    infer::EntityLogitsRaw(*pv, state, Ent(entity), Rel(last_rel),
                           condition_row, action_rows.data(), n, &scratch,
                           logits.data());
    out->resize(static_cast<size_t>(n));
    elemwise::LogSoftmaxVec(logits.data(), out->data(),
                            static_cast<size_t>(n));
  }

  // next[i] = parents[moves[i].parent] advanced by moves[i], running the
  // parent-only half of the step once per distinct parent and the
  // per-child half once per survivor.
  void Advance(std::span<const State> parents,
               std::span<const BeamChild> moves, std::vector<State>* next) {
    if (shared.size() < parents.size()) shared.resize(parents.size());
    shared_ready.assign(parents.size(), 0);
    for (size_t i = 0; i < moves.size(); ++i) {
      const BeamChild& m = moves[i];
      const size_t p = static_cast<size_t>(m.parent);
      if (shared_ready[p] == 0) {
        infer::AdvanceSharedRaw(*pv, parents[p], User(),
                                CatOrZero(m.category), &scratch, &shared[p]);
        shared_ready[p] = 1;
      }
      infer::AdvanceChildRaw(*pv, shared[p], parents[p], User(),
                             Rel(m.relation), Ent(m.entity), &scratch,
                             &(*next)[i]);
    }
  }

  const infer::ScoringView* sv = nullptr;
  const infer::PolicyParamsView* pv = nullptr;
  infer::PolicyScratch scratch;
  std::vector<float> zeros;
  // Dequantized operand slots (empty and unused for f32 snapshots); one
  // per operand position so concurrent row pointers never alias.
  std::vector<float> user_slot, ent_slot, rel_slot, cat_slot;
  std::vector<float> action_rows, logits, probs;
  // Advance's per-parent shared halves, by parent slot.
  std::vector<infer::SharedAdvance> shared;
  std::vector<uint8_t> shared_ready;
  kg::EntityId user_ = kg::kInvalidEntity;
  BeamScratch<State> beam;
};

Status CadrlRecommender::RecommendWithContext(
    kg::EntityId user, int k, const RequestContext* ctx,
    std::vector<eval::Recommendation>* out) {
  CADRL_CHECK(fitted_) << "call Fit() before Recommend()";
  CADRL_CHECK_GT(k, 0);
  out->clear();
  if (use_compiled_) {
    // RCU read side: the shared_ptr copy keeps this snapshot alive for the
    // whole request even if a ReloadFromCheckpoint publishes a new one
    // mid-search.
    const std::shared_ptr<const infer::CompiledModel> snapshot =
        AcquireSnapshot();
    if (snapshot != nullptr) {
      util::ThreadScratch<CompiledBeamDriver> driver;
      driver->Bind(*snapshot);
      return BeamSearch(*driver, user, k, ctx, snapshot->scoring(),
                        snapshot->score_scale(), out);
    }
  }
  ag::NoGradGuard guard;
  TapeBeamDriver driver(*this);
  return BeamSearch(driver, user, k, ctx, store_->View(), score_scale_, out);
}

template <typename Driver>
Status CadrlRecommender::BeamSearch(Driver& drv, kg::EntityId user, int k,
                                    const RequestContext* ctx,
                                    const infer::ScoringView& view,
                                    float score_scale,
                                    std::vector<eval::Recommendation>* out) {
  using State = typename Driver::State;
  BeamScratch<State>& s = drv.beam;
  const bool dual = options_.use_dual_agent;
  const kg::KnowledgeGraph& graph = dataset_->graph;

  const auto train_it = train_sets_.find(user);
  const std::unordered_set<kg::EntityId> empty_set;
  const std::unordered_set<kg::EntityId>& exclude =
      train_it != train_sets_.end() ? train_it->second : empty_set;

  // One score cache for the whole beam search: branches revisit the same
  // entities constantly (shared prefixes, overlapping neighborhoods).
  UserScoreMemo score_memo(view, user);

  s.history.clear();
  s.candidates.Reset(static_cast<size_t>(view.num_entities));
  // Milestones visited by the category agent; items inside these
  // categories receive the guidance bonus during ranking (§IV-C1: the
  // category agent's milestone-like category-level guidance).
  s.milestones.Reset(view.num_categories);

  const kg::CategoryId root_category =
      dual ? GreedyInitialCategory(view, user) : kg::kInvalidCategory;
  // Without an active category agent every beam category is
  // kInvalidCategory, which the drivers read as "no category".
  const bool category_active = dual && root_category != kg::kInvalidCategory;
  s.history.push_back(
      {-1, user, kg::Relation::kSelfLoop, root_category, /*log_prob=*/0.0});
  if (s.states.empty()) s.states.resize(1);
  drv.InitialState(user, root_category, &s.states[0]);
  if (category_active) s.milestones.Insert(root_category);
  // The current beam is history[beam_begin, beam_begin + beam_size); its
  // recurrent states are s.states[0, beam_size).
  size_t beam_begin = 0;
  size_t beam_size = 1;

  for (int l = 0; l < options_.max_path_length; ++l) {
    // Hop boundary: the natural cancellation point of the search. Partial
    // beams are abandoned — a degraded answer comes from the serving
    // layer's fallback chain, not from a half-expanded beam.
    if (ctx != nullptr) CADRL_RETURN_IF_ERROR(ctx->Check());
    // The last hop's children would only seed a hop that never runs, so it
    // expands nothing: it moves the category agent (its milestones still
    // earn this hop's candidates the category bonus) and harvests
    // candidates.
    const bool last_hop = l + 1 == options_.max_path_length;
    s.children.clear();
    for (size_t slot = 0; slot < beam_size; ++slot) {
      const int32_t node = static_cast<int32_t>(beam_begin + slot);
      const BeamNode elem = s.history[static_cast<size_t>(node)];
      const State& state = s.states[slot];
      if (ctx != nullptr) {
        CADRL_RETURN_IF_ERROR(ctx->Check());
        // Chaos surface for the scoring hot path: latency injection makes
        // this expansion slow, fault injection makes the request fail.
        if (CADRL_FAILPOINT("cadrl/score")) {
          return Status::Internal("injected fault in beam scoring");
        }
      }
      // Category agent moves greedily, providing the milestone.
      kg::CategoryId next_category = elem.category;
      if (category_active) {
        category_env_->ValidActions(user, elem.category, &view,
                                    &s.category_scored, &s.category_actions);
        next_category =
            drv.PickCategory(state, elem.category, s.category_actions);
        s.milestones.Insert(next_category);
      }

      if (!last_hop) {
        entity_env_->ValidActions(user, elem.entity,
                                  category_active ? &s.milestones : nullptr,
                                  &score_memo, &s.action_scratch,
                                  &s.entity_actions);
        const std::vector<EntityAction>& actions = s.entity_actions;
        drv.EntityLogProbs(state, elem.entity, elem.last_rel, next_category,
                           actions, &s.log_probs);
        if (options_.beam_guidance_weight > 0.0f) {
          s.dsts.clear();
          for (const EntityAction& a : actions) s.dsts.push_back(a.dst);
          s.guidance.resize(s.dsts.size());
          score_memo.ScoreBatch(s.dsts, s.guidance);
        }
        s.ranked.clear();
        for (int64_t i = 0; i < static_cast<int64_t>(s.log_probs.size());
             ++i) {
          float key = s.log_probs[static_cast<size_t>(i)];
          if (options_.beam_guidance_weight > 0.0f) {
            key += options_.beam_guidance_weight *
                   s.guidance[static_cast<size_t>(i)] / score_scale;
          }
          s.ranked.emplace_back(key, i);
        }
        const int64_t expand = std::min<int64_t>(
            options_.beam_expand, static_cast<int64_t>(s.ranked.size()));
        std::partial_sort(s.ranked.begin(), s.ranked.begin() + expand,
                          s.ranked.end(), [](const auto& a, const auto& b) {
                            if (a.first != b.first) return a.first > b.first;
                            return a.second < b.second;
                          });
        for (int64_t i = 0; i < expand; ++i) {
          const size_t idx = static_cast<size_t>(s.ranked[i].second);
          const EntityAction action = actions[idx];
          s.children.push_back(
              {elem.log_prob + static_cast<double>(s.log_probs[idx]),
               action.dst, action.relation, next_category,
               static_cast<int32_t>(slot)});
        }
      }

      // Candidate harvesting considers *every* item adjacent to this beam
      // state (PGPR's terminal consideration), independent of the guided
      // action filtering, so ranking coverage is decoupled from both the
      // beam width and the milestone narrowing. Item endpoints are scored
      // in one batch through the beam-wide memo.
      s.item_relations.clear();
      s.item_ids.clear();
      for (const kg::Edge& edge : graph.Neighbors(elem.entity)) {
        if (!graph.IsItem(edge.dst)) continue;
        if (exclude.count(edge.dst) > 0) continue;
        s.item_relations.push_back(edge.relation);
        s.item_ids.push_back(edge.dst);
      }
      s.item_scores.resize(s.item_ids.size());
      score_memo.ScoreBatch(s.item_ids, s.item_scores);
      for (size_t ei = 0; ei < s.item_ids.size(); ++ei) {
        const kg::EntityId item = s.item_ids[ei];
        const double log_prob = elem.log_prob;
        double score =
            options_.rank_score_weight *
                static_cast<double>(s.item_scores[ei]) +
            options_.rank_path_weight * log_prob;
        if (category_active && s.milestones.Contains(graph.CategoryOf(item))) {
          score += options_.rank_category_weight;
        }
        bool inserted = false;
        BeamCandidate& cand =
            s.candidates.Insert(static_cast<size_t>(item), &inserted);
        if (inserted || score > cand.score) {
          cand = {score, node, s.item_relations[ei]};
        }
      }
    }
    if (last_hop) break;

    std::sort(s.children.begin(), s.children.end(),
              [](const BeamChild& a, const BeamChild& b) {
                if (a.log_prob != b.log_prob) return a.log_prob > b.log_prob;
                return a.entity < b.entity;
              });
    if (static_cast<int64_t>(s.children.size()) > options_.beam_width) {
      s.children.resize(static_cast<size_t>(options_.beam_width));
    }
    if (s.children.empty()) break;
    // Survivors join the history, and their recurrent states are advanced
    // into the next beam's slots.
    const size_t next_begin = s.history.size();
    for (const BeamChild& c : s.children) {
      s.history.push_back({static_cast<int32_t>(beam_begin) + c.parent,
                           c.entity, c.relation, c.category, c.log_prob});
    }
    if (s.next_states.size() < s.children.size()) {
      s.next_states.resize(s.children.size());
    }
    drv.Advance(std::span<const State>(s.states.data(), beam_size),
                s.children, &s.next_states);
    std::swap(s.states, s.next_states);
    beam_begin = next_begin;
    beam_size = s.children.size();
  }

  s.ranking.clear();
  for (const uint32_t item : s.candidates.keys()) {
    s.ranking.emplace_back(s.candidates.at(item).score,
                           static_cast<kg::EntityId>(item));
  }
  const size_t n = std::min(static_cast<size_t>(k), s.ranking.size());
  std::partial_sort(s.ranking.begin(), s.ranking.begin() + n, s.ranking.end(),
                    [](const auto& a, const auto& b) {
                      if (a.first != b.first) return a.first > b.first;
                      return a.second < b.second;
                    });
  out->reserve(n);
  for (size_t i = 0; i < n; ++i) {
    const auto [score, item] = s.ranking[i];
    eval::Recommendation rec;
    rec.item = item;
    rec.score = score;
    BuildPath(s.history, user, item, s.candidates.at(static_cast<size_t>(item)),
              &rec.path);
    out->push_back(std::move(rec));
  }
  return Status::OK();
}

std::vector<eval::RecommendationPath> CadrlRecommender::FindPaths(
    kg::EntityId user, int max_paths) {
  std::vector<eval::Recommendation> recs = Recommend(user, max_paths);
  std::vector<eval::RecommendationPath> out;
  out.reserve(recs.size());
  for (eval::Recommendation& rec : recs) {
    if (!rec.path.empty()) out.push_back(std::move(rec.path));
  }
  return out;
}

}  // namespace core
}  // namespace cadrl
