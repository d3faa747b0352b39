#ifndef CADRL_CORE_CADRL_H_
#define CADRL_CORE_CADRL_H_

#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "core/cggnn.h"
#include "core/embedding_store.h"
#include "core/environment.h"
#include "core/policy.h"
#include "data/dataset.h"
#include "autograd/optimizer.h"
#include "embed/transe.h"
#include "eval/recommender.h"
#include "infer/compiled_model.h"
#include "infer/shard_layout.h"
#include "rl/reinforce.h"
#include "util/checkpoint.h"
#include "util/rng.h"

namespace cadrl {
namespace core {

// Full configuration of the CADRL model (§IV) plus the ablation switches of
// §V-E/F. Defaults follow the paper where the paper fixes a value (L=6,
// |A^c|=10, |A^e|=50, k=3, m=2, Adam) and use CI-scale budgets elsewhere.
struct CadrlOptions {
  embed::TransEOptions transe;
  CggnnOptions cggnn;

  // --- Component switches (Table IV / Figs 3-4 ablations) ---
  bool use_cggnn = true;         // off => "CADRL w/o CGGNN"
  bool use_dual_agent = true;    // off => "CADRL w/o DARL" (single agent)
  bool share_history = true;     // off => RSHI
  bool use_partner_rewards = true;  // off => RCRM

  // --- MDP geometry (§V-A3) ---
  int max_path_length = 6;       // L
  int max_entity_actions = 50;   // |A^e|
  int max_category_actions = 10; // |A^c|

  // --- Rewards (Eqs 20-21) ---
  float alpha_pe = 0.4f;
  float alpha_pc = 0.5f;
  float gamma = 0.99f;
  // PGPR-style scaled TransE terminal reward instead of the paper's binary
  // indicator; used by the PGPR/UCPR baseline wrappers.
  bool terminal_soft_reward = false;
  // Potential-based reward shaping (Ng et al. 1999): each step adds
  // weight * (phi(e_{l+1}) - phi(e_l)) with phi the normalized user-entity
  // plausibility. Densifies the sparse terminal signal without changing
  // the optimal policy; applied to every RL model equally.
  float potential_shaping = 0.3f;
  // ADAC-style demonstration imitation: weight of the cross-entropy of the
  // policy on BFS shortest-path demonstrations (0 disables it).
  float demonstration_weight = 0.0f;
  // UCPR-style demand memory: fuses the mean train-item embedding into each
  // user's row before training.
  bool use_user_demand = false;

  // --- Policy & training ---
  int policy_hidden = 64;
  int episodes_per_user = 5;
  float lr = 2e-3f;
  float entropy_coef = 0.05f;
  float grad_clip = 5.0f;
  // Episodes per REINFORCE minibatch: rollouts for one batch are collected
  // against the policy frozen at the batch start (in parallel when
  // threads > 1, each episode on its own Rng::Fork stream keyed by the
  // episode's position in the epoch's shuffled user order), losses are
  // reduced in episode order, and one optimizer step is taken per batch.
  // Results depend on rollout_batch but are bit-identical for every thread
  // count.
  int rollout_batch = 2;
  // Worker threads for rollout collection (and, via transe.threads in the
  // CLI, embedding training); 0 means one per hardware thread, 1 runs
  // inline.
  int threads = 1;

  // --- Inference ---
  int beam_width = 20;
  // Children expanded per beam element per step.
  int beam_expand = 5;
  // Beam expansion key = log pi(a) + beam_guidance_weight * normalized
  // plausibility of the endpoint; keeps the search anchored to plausible
  // regions (PGPR scores beam actions the same way).
  float beam_guidance_weight = 1.0f;
  // Candidate ranking: score = rank_score_weight * plausibility(u, item)
  // + rank_path_weight * accumulated log pi(path)
  // + rank_category_weight * cos(u, category(item)).
  // Plausibility uses the CGGNN-refined representations (BPR-trained on the
  // same quantity); the category term is the category agent's milestone
  // guidance folded into ranking and is only active with the dual agent.
  float rank_score_weight = 1.0f;
  float rank_path_weight = 0.05f;
  float rank_category_weight = 0.15f;

  uint64_t seed = 11;

  Status Validate() const;
};

// The CADRL recommender: TransE initialization -> CGGNN item refinement ->
// dual-agent REINFORCE training -> beam-search inference with explanation
// paths. Every model variant in the paper's ablations is an option switch.
class CadrlRecommender : public eval::Recommender {
 public:
  explicit CadrlRecommender(const CadrlOptions& options,
                            std::string name = "CADRL");

  std::string name() const override { return name_; }
  Status Fit(const data::Dataset& dataset) override;

  // Checkpointed training: writes an epoch-granular checkpoint of the full
  // trainer state (policy parameters, Adam moments, baselines, RNG, epoch
  // rewards) into `ckpt.dir` and, when `ckpt.resume` is set, restarts from
  // the latest valid one, skipping completed epochs. The pre-RL stages
  // (TransE — itself checkpointed into the same dir — CGGNN, embedding
  // store) are recomputed deterministically, so a resumed run finishes
  // bit-identical to an uninterrupted run with the same seed. Non-finite
  // losses, rewards or parameters trigger a rollback to the last good epoch
  // (deterministically re-randomized); when ckpt.max_divergence_retries
  // consecutive rollbacks fail, Fit returns an Internal status carrying
  // Status::kTrainingDivergenceDetail instead of aborting.
  Status Fit(const data::Dataset& dataset, const CheckpointOptions& ckpt);
  std::vector<eval::Recommendation> Recommend(kg::EntityId user,
                                              int k) override;
  bool SupportsPaths() const override { return true; }
  // Inference reads only frozen state (by default an immutable compiled
  // snapshot acquired per request, otherwise the embedding store + policy
  // weights) and the beam search keeps its scratch per call or per thread,
  // so concurrent Recommend/FindPaths calls on one fitted model are safe;
  // cadrl_stress_test and serve_chaos_test exercise this under
  // ThreadSanitizer, including snapshot hot-swaps mid-load.
  bool SupportsConcurrentInference() const override { return true; }
  std::vector<eval::RecommendationPath> FindPaths(kg::EntityId user,
                                                  int max_paths) override;

  // Deadline/cancellation-aware inference for the serving layer: the beam
  // search checks `ctx` at every hop boundary and per expanded beam
  // element, so an expired deadline or a Cancel() stops in-flight work
  // within one policy forward instead of one full search. The "cadrl/score"
  // and "cadrl/find-paths" failpoints (latency or fault injection) are
  // evaluated only on this path — the blocking Recommend/FindPaths above
  // stay byte-identical to their pre-serving behavior for evaluation and
  // benchmarks.
  Status Recommend(kg::EntityId user, int k, const RequestContext& ctx,
                   std::vector<eval::Recommendation>* out) override;
  Status FindPaths(kg::EntityId user, int max_paths,
                   const RequestContext& ctx,
                   std::vector<eval::RecommendationPath>* out) override;

  // Mean episode reward (entity agent) per training epoch; for tests.
  const std::vector<float>& epoch_rewards() const { return epoch_rewards_; }

  const CadrlOptions& options() const { return options_; }

  // The fitted embedding store (null before Fit); exposes the selected
  // score mode and the refined representations.
  const EmbeddingStore* store() const { return store_.get(); }

  // Persists the fitted inference state — embedding tables, scoring
  // configuration and policy parameters — so a model can be reloaded
  // without retraining. LoadModel must be called on a recommender
  // constructed with the same options, against the same dataset.
  Status SaveModel(const std::string& path) const;
  Status LoadModel(const data::Dataset& dataset, const std::string& path);

  // Hot-swaps the serving snapshot to the model persisted at `path`
  // (written by SaveModel) without touching the live training state:
  // the checkpoint is parsed into side tables, compiled, and published
  // with an atomic shared_ptr swap. In-flight Recommend/FindPaths calls
  // finish on the snapshot they acquired at entry (RCU-style); calls that
  // start after the publish see the new model. Requires a fitted (or
  // loaded) recommender against the same dataset/options.
  Status ReloadFromCheckpoint(const std::string& path) override;

  // Compiles the current fitted state into a relocatable shard directory
  // (infer/shard_layout.h): entity-range shards + meta shard + manifest,
  // encoded at snapshot_precision(). Delta-aware — recompiling into a dir
  // that already holds an older compile rewrites only the shards whose
  // bytes changed. `shard_rows <= 0` uses the format default; `stats` may
  // be null.
  Status CompileSnapshotToDir(const std::string& dir, int64_t shard_rows,
                              infer::ShardWriteStats* stats) const;

  // Zero-parse hot swap from a compiled shard directory: open + mmap +
  // validate and publish, with the same RCU semantics as
  // ReloadFromCheckpoint but no full-model parse — reload cost is
  // independent of arena size, and when the currently served snapshot came
  // from the same directory lineage only changed shards are remapped. A
  // reload of an unchanged directory (same manifest generation) publishes
  // nothing.
  Status ReloadFromShardDir(const std::string& dir) override;

  // Shard-set accounting of the served snapshot (zeros for heap arenas).
  ShardServingStatus ShardStatus() const override;

  // Compiled (tape-free) inference is the default; switching it off routes
  // Recommend/FindPaths through the legacy autograd forwards. Golden tests
  // flip this toggle to prove both paths are byte-identical.
  void set_use_compiled_inference(bool on) { use_compiled_ = on; }
  bool use_compiled_inference() const { return use_compiled_; }

  // Row format of snapshots published from now on (default: CADRL_PRECISION
  // env, f32 when unset). Training and the live store stay f32 regardless;
  // quantization happens once per publish. Changing this does not touch the
  // currently published snapshot — call RepublishSnapshot() (or reload) to
  // re-encode. Mixed-precision hot swap is safe: in-flight requests finish
  // on the snapshot they acquired.
  void set_snapshot_precision(infer::Precision p) { snapshot_precision_ = p; }
  infer::Precision snapshot_precision() const { return snapshot_precision_; }

  // Rebuilds a snapshot from the live store/policy at the current
  // snapshot_precision() and publishes it (no-op before Fit/LoadModel or
  // with compiled inference off).
  void RepublishSnapshot();

  // Arena footprint of the currently published snapshot (zeros when none).
  ServingArena ServingArenaBytes() const override;

  // The currently published inference snapshot (null before Fit/LoadModel
  // or when compiled inference is disabled at publish time); for tests and
  // benchmarks.
  std::shared_ptr<const infer::CompiledModel> CurrentSnapshot() const {
    return AcquireSnapshot();
  }

 private:
  struct Episode {
    rl::EpisodeTrace entity_trace;
    rl::EpisodeTrace category_trace;
    float terminal_entity_reward = 0.0f;
  };

  // Beam-search core shared by the blocking and deadline-aware entry
  // points. `ctx == nullptr` (the blocking path) skips every deadline
  // check and failpoint, preserving the exact legacy behavior. Dispatches
  // to the compiled snapshot when one is published (and the toggle is on),
  // else to the tape forwards.
  Status RecommendWithContext(kg::EntityId user, int k,
                              const RequestContext* ctx,
                              std::vector<eval::Recommendation>* out);

  // The beam-search control flow, written once and instantiated for both
  // inference backends: `Driver` supplies the four policy forwards
  // (initial state, category pick, entity log-probs, advancing the beam
  // survivors) over either ag tensors (TapeBeamDriver) or raw snapshot
  // buffers (CompiledBeamDriver), and owns the search's scratch.
  // `view`/`score_scale` come from the same backend as the driver, so one
  // request never mixes live and snapshot tables.
  struct TapeBeamDriver;
  struct CompiledBeamDriver;
  template <typename Driver>
  Status BeamSearch(Driver& drv, kg::EntityId user, int k,
                    const RequestContext* ctx, const infer::ScoringView& view,
                    float score_scale, std::vector<eval::Recommendation>* out);

  // RCU-style snapshot handle: readers copy the shared_ptr under the mutex
  // and keep the model alive for the whole request; PublishSnapshot swaps
  // the pointer so later readers see the new model.
  std::shared_ptr<const infer::CompiledModel> AcquireSnapshot() const;
  void PublishSnapshot(std::shared_ptr<const infer::CompiledModel> snapshot);

  // Compiles a publishable snapshot from an f32 store + policy at the
  // current snapshot precision. Every publish site routes through here.
  std::shared_ptr<const infer::CompiledModel> BuildSnapshot(
      const EmbeddingStore& store, const SharedPolicyNetworks& policy,
      float scale) const;

  PolicyConfig MakePolicyConfig() const;

  // Builds the per-user train indexes and the environments/policy from
  // `dataset` (shared by Fit and LoadModel).
  void BuildIndexes(const data::Dataset& dataset);
  void BuildRuntime(const data::Dataset& dataset);

  // Full RL-trainer state after `epochs_done` epochs as a checkpoint
  // payload; RestoreTrainerState is the exact inverse (returns Corruption/
  // FailedPrecondition when the payload does not match the current policy
  // shapes or seed).
  std::string SerializeTrainerState(
      int epochs_done, const ag::Adam& optimizer,
      const rl::MovingBaseline& entity_baseline,
      const rl::MovingBaseline& category_baseline) const;
  Status RestoreTrainerState(const std::string& payload, int* epochs_done,
                             ag::Adam* optimizer,
                             rl::MovingBaseline* entity_baseline,
                             rl::MovingBaseline* category_baseline);

  // Runs one training rollout for `user`, drawing every stochastic choice
  // from `rng` (an Rng::Fork stream owned by the caller, so rollouts for
  // different episodes can run on different threads), and fills `episode`.
  void Rollout(kg::EntityId user, Rng* rng, Episode* episode);

  // BFS shortest path user -> item (<= max_path_length hops); empty if
  // unreachable. Used for ADAC-style demonstrations.
  std::vector<EntityAction> DemonstrationPath(kg::EntityId user,
                                              kg::EntityId item) const;

  // Imitation cross-entropy of the policy along a demonstration (tape-built).
  ag::Tensor ImitationLoss(kg::EntityId user,
                           const std::vector<EntityAction>& demo);

  // Initial category for an episode (category of a train item; the
  // affinity-max one at inference, a random one — drawn from `rng` — during
  // training). `rng` may be null when stochastic is false.
  kg::CategoryId InitialCategory(kg::EntityId user, bool stochastic,
                                 Rng* rng) const;
  // The deterministic affinity-max branch of InitialCategory over an
  // explicit scoring view (live store or compiled snapshot).
  kg::CategoryId GreedyInitialCategory(const infer::ScoringView& view,
                                       kg::EntityId user) const;

  float TerminalEntityReward(kg::EntityId user, kg::EntityId terminal) const;

  ag::Tensor EntityEmbeddingTensor(kg::EntityId e) const;

  // Stacked action-embedding matrices (no-grad constant leaves) for the
  // batched policy forward: one contiguous gather from the store tables
  // instead of per-action Concat/StackRows tensors. Row i holds the same
  // values the per-action embedding tensors would.
  ag::Tensor EntityActionMatrix(
      const std::vector<EntityAction>& actions) const;  // (n x 2d)
  ag::Tensor CategoryActionMatrix(
      const std::vector<kg::CategoryId>& actions) const;  // (n x d)

  std::string name_;
  CadrlOptions options_;
  const data::Dataset* dataset_ = nullptr;
  Rng rng_;

  std::unique_ptr<embed::TransEModel> transe_;
  std::unique_ptr<Cggnn> cggnn_;
  std::unique_ptr<EmbeddingStore> store_;
  std::unique_ptr<EntityEnvironment> entity_env_;
  std::unique_ptr<CategoryEnvironment> category_env_;
  std::unique_ptr<SharedPolicyNetworks> policy_;

  // Per-user train-item sets for candidate exclusion.
  std::unordered_map<kg::EntityId, std::unordered_set<kg::EntityId>>
      train_sets_;
  // Per-user train categories (targets of the category agent).
  std::unordered_map<kg::EntityId, std::vector<kg::CategoryId>>
      train_categories_;
  // Best soft-reward normalizer (max |score|) for terminal_soft_reward.
  float score_scale_ = 1.0f;

  // Published inference snapshot (see AcquireSnapshot/PublishSnapshot).
  mutable std::mutex snapshot_mu_;
  std::shared_ptr<const infer::CompiledModel> compiled_;
  bool use_compiled_ = true;
  infer::Precision snapshot_precision_ = infer::PrecisionFromEnv();

  std::vector<float> epoch_rewards_;
  bool fitted_ = false;
};

}  // namespace core
}  // namespace cadrl

#endif  // CADRL_CORE_CADRL_H_
