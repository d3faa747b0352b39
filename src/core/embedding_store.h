#ifndef CADRL_CORE_EMBEDDING_STORE_H_
#define CADRL_CORE_EMBEDDING_STORE_H_

#include <iosfwd>
#include <span>
#include <vector>

#include "autograd/tensor.h"
#include "embed/transe.h"
#include "infer/scoring.h"
#include "kg/graph.h"
#include "util/stamped_table.h"
#include "util/status.h"
#include "util/thread_scratch.h"

namespace cadrl {
namespace core {

// Frozen embedding tables shared by the DARL agents, environments and the
// inference ranker: TransE entity/relation/category vectors, with item rows
// optionally overridden by CGGNN's high-order representations (§IV-C2: "if
// the current entity type is an item, its representation is derived from
// CGGNN, otherwise ... generated by TransE"). The self-loop relation maps to
// the zero vector so self-loop actions are translation-neutral.
class EmbeddingStore {
 public:
  // How ScoreUserEntity judges user->entity plausibility. Translation is
  // TransE's -||u + r_p - v||^2 over the *original* TransE rows; dot
  // product matches the BPR objective the CGGNN representations are
  // trained with; ensemble sums both (refined dot + weighted raw
  // translation), combining structural and high-order signals. The enum is
  // shared with the tape-free inference layer so the store and a compiled
  // snapshot can never disagree on mode encodings.
  using ScoreMode = infer::ScoreMode;

  EmbeddingStore(const kg::KnowledgeGraph* graph,
                 const embed::TransEModel* transe);

  int dim() const { return dim_; }

  void set_score_mode(ScoreMode mode) { score_mode_ = mode; }
  ScoreMode score_mode() const { return score_mode_; }
  // Weight of the raw-translation term in kEnsemble mode.
  void set_ensemble_translation_weight(float w) {
    ensemble_translation_weight_ = w;
  }

  // Demand-fused user row for kDemandTranslation (UCPR-style memory:
  // typically (u + mean of train items) / 2 over the raw rows).
  void SetDemandUserRow(kg::EntityId user, std::span<const float> vec);

  // Serializes / restores all tables and the scoring configuration
  // (hex-float text, exact round-trip). ReadFrom validates shapes against
  // the graph this store was constructed with.
  Status WriteTo(std::ostream& out) const;
  Status ReadFrom(std::istream& in);

  // Overrides an item's row (e.g. with its CGGNN representation) and keeps
  // category vectors consistent by recomputing the affected means lazily via
  // RefreshCategoryVectors().
  void SetItemRepresentation(kg::EntityId item, std::span<const float> vec);

  // Overrides any entity's row (e.g. UCPR-style demand fusion into users).
  void SetEntityRow(kg::EntityId e, std::span<const float> vec);

  // Recomputes category vectors as means of the (possibly refined) item rows.
  void RefreshCategoryVectors();

  std::span<const float> Entity(kg::EntityId e) const;
  std::span<const float> RelationVec(kg::Relation r) const;  // incl. self-loop
  std::span<const float> Category(kg::CategoryId c) const;

  // Fresh constant (no-grad leaf) tensors for policy inputs.
  ag::Tensor EntityTensor(kg::EntityId e) const;
  ag::Tensor RelationTensor(kg::Relation r) const;
  ag::Tensor CategoryTensor(kg::CategoryId c) const;
  ag::Tensor ZeroTensor() const { return ag::Tensor::Zeros({dim_}); }

  // TransE-style user->item plausibility -||u + r_purchase - v||^2 over the
  // current (refined) vectors; drives action pruning and inference ranking.
  float ScoreUserEntity(kg::EntityId user, kg::EntityId entity) const;

  // Batched ScoreUserEntity: gathers the candidate rows into a contiguous
  // scratch buffer and scores the whole set with one fused kernel call per
  // term instead of entities.size() independent calls. out[i] is
  // bit-identical to ScoreUserEntity(user, entities[i]) for every score
  // mode (each row reduces in the same documented kernel order).
  void ScoreUserEntities(kg::EntityId user,
                         std::span<const kg::EntityId> entities,
                         std::span<float> out) const;

  // Dot-product similarity of user and category vectors (category pruning).
  float UserCategoryAffinity(kg::EntityId user, kg::CategoryId c) const;

  // Raw-buffer view of the current tables + scoring configuration: the
  // scoring methods above are thin callers of infer::* free functions over
  // this view, and CompiledModel::Build copies it into a frozen snapshot.
  // The view borrows this store's buffers — it is invalidated by any
  // mutation or by destroying the store.
  infer::ScoringView View() const;

 private:
  ag::Tensor SpanTensor(std::span<const float> v) const;

  const kg::KnowledgeGraph* graph_;
  int dim_;
  ScoreMode score_mode_ = ScoreMode::kTranslation;
  float ensemble_translation_weight_ = 0.5f;
  // Original TransE rows, untouched by SetEntityRow (translation scoring).
  std::vector<float> raw_entities_;
  // Raw rows with demand-fused users (lazily copied from raw_entities_).
  std::vector<float> demand_entities_;
  std::vector<float> entities_;    // num_entities x dim (items may be refined)
  std::vector<float> relations_;   // (kNumRelations + 1) x dim; last = self-loop
  std::vector<float> categories_;  // num_categories x dim
};

// Memoizes ScoreUserEntity for one (user, score-mode) scope — typically a
// single rollout or beam search, where the same entity is re-scored across
// beam branches and reward shaping. Values are keyed by entity; the score
// mode is captured at construction and checked on use, so a memo can never
// serve scores across a mode switch. Not thread-safe: each worker owns its
// own memo (stack-local per rollout / per Recommend call).
//
// The cache is an entity-indexed util::StampedTable borrowed from this
// thread's scratch, so opening a memo is an O(1) generation bump and a
// warmed thread scores without touching the heap.
class UserScoreMemo {
 public:
  UserScoreMemo(const EmbeddingStore* store, kg::EntityId user)
      : UserScoreMemo(store->View(), user) {
    store_ = store;
  }

  // Memoized scoring over a frozen snapshot view (compiled inference).
  // The view is immutable by contract, so there is no mode-switch hazard
  // to check against.
  UserScoreMemo(const infer::ScoringView& view, kg::EntityId user)
      : store_(nullptr), user_(user), mode_(view.mode), view_(view) {
    tables_->cache.Reset(static_cast<size_t>(view.num_entities));
  }

  float Score(kg::EntityId entity);

  // Batched lookup: cache misses are scored together through
  // EmbeddingStore::ScoreUserEntities (bit-identical to per-entity calls).
  void ScoreBatch(std::span<const kg::EntityId> entities,
                  std::span<float> out);

 private:
  const EmbeddingStore* store_;  // null when constructed from a view
  kg::EntityId user_;
  EmbeddingStore::ScoreMode mode_;
  infer::ScoringView view_;
  struct Tables {
    util::StampedTable<float> cache;
    // ScoreBatch misses, gathered for one batched scoring call.
    std::vector<kg::EntityId> miss_ids;
    std::vector<size_t> miss_pos;
    std::vector<float> miss_scores;
  };
  util::ThreadScratch<Tables> tables_;
};

}  // namespace core
}  // namespace cadrl

#endif  // CADRL_CORE_EMBEDDING_STORE_H_
