#ifndef CADRL_CORE_ENVIRONMENT_H_
#define CADRL_CORE_ENVIRONMENT_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "core/embedding_store.h"
#include "kg/category_graph.h"
#include "kg/graph.h"

namespace cadrl {
namespace core {

// One entity-agent action (r', e') of A_l^e (§IV-C2). The self-loop action
// is encoded as {kSelfLoop, current entity} and is always present, so both
// agents can synchronize on a fixed horizon L.
struct EntityAction {
  kg::Relation relation;
  kg::EntityId dst;

  friend bool operator==(const EntityAction&, const EntityAction&) = default;
};

// A set of category ids as a bitset over [0, num_categories): the beam
// search's milestone set, reset per request without freeing its words.
class CategorySet {
 public:
  void Reset(int64_t num_categories) {
    words_.assign(static_cast<size_t>((num_categories + 63) / 64), 0);
    size_ = 0;
  }
  void Insert(kg::CategoryId c) {
    uint64_t& word = words_[static_cast<size_t>(c) >> 6];
    const uint64_t bit = uint64_t{1} << (static_cast<uint32_t>(c) & 63);
    if ((word & bit) == 0) ++size_;
    word |= bit;
  }
  bool Contains(kg::CategoryId c) const {
    if (c < 0 || static_cast<size_t>(c) >= 64 * words_.size()) return false;
    return (words_[static_cast<size_t>(c) >> 6] >>
            (static_cast<uint32_t>(c) & 63)) & 1;
  }
  bool empty() const { return size_ == 0; }

 private:
  std::vector<uint64_t> words_;
  int64_t size_ = 0;
};

// Reusable buffers of EntityEnvironment::ValidActions' pruning step.
struct ActionScratch {
  std::vector<const kg::Edge*> edges;
  std::vector<kg::EntityId> endpoints;
  std::vector<float> scores;
  std::vector<std::pair<float, const kg::Edge*>> scored;
};

// The entity agent's MDP view of the KG: states are (user, current entity),
// actions are pruned outgoing edges plus the self-loop. Pruning keeps the
// max_actions-1 edges whose endpoints score highest under the TransE
// translation query u + r_purchase (PGPR's strategy, DESIGN.md §3.4).
class EntityEnvironment {
 public:
  EntityEnvironment(const kg::KnowledgeGraph* graph,
                    const EmbeddingStore* store, int max_actions);

  // Valid actions at `current` for an episode rooted at `user`. The
  // self-loop is always element 0. Deterministic.
  //
  // If `milestone_categories` is non-null, item endpoints outside those
  // categories are dropped before pruning — the category agent's guidance
  // shrinking the entity action space from O(|E|) toward O(|E|/|C|), which
  // is the efficiency mechanism of §V-D. Non-item endpoints always pass;
  // if filtering removes every move, the unfiltered set is used instead.
  //
  // Candidate endpoints are scored in one batched ScoreUserEntities call;
  // when `memo` is non-null (a per-rollout/per-beam cache for this user)
  // already-scored entities are served from it instead of re-scored.
  std::vector<EntityAction> ValidActions(
      kg::EntityId user, kg::EntityId current,
      const CategorySet* milestone_categories = nullptr,
      UserScoreMemo* memo = nullptr) const;

  // The same actions written into `out`, with the pruning buffers in
  // `scratch`: a caller that keeps both across calls allocates nothing
  // once they have grown.
  void ValidActions(kg::EntityId user, kg::EntityId current,
                    const CategorySet* milestone_categories,
                    UserScoreMemo* memo, ActionScratch* scratch,
                    std::vector<EntityAction>* out) const;

  int max_actions() const { return max_actions_; }

 private:
  const kg::KnowledgeGraph* graph_;
  const EmbeddingStore* store_;
  int max_actions_;
};

// The category agent's MDP view of G^c: states are (user, current
// category), actions are the strongest-weighted neighbor categories plus
// the stay-here self action (element 0).
class CategoryEnvironment {
 public:
  CategoryEnvironment(const kg::CategoryGraph* category_graph,
                      const EmbeddingStore* store, int max_actions);

  // When `view` is non-null, user->category affinities are read from that
  // scoring view (a frozen inference snapshot) instead of the live store;
  // the pruning logic is identical either way.
  std::vector<kg::CategoryId> ValidActions(
      kg::EntityId user, kg::CategoryId current,
      const infer::ScoringView* view = nullptr) const;

  // The same actions written into `out`; `scored` is the pruning buffer.
  void ValidActions(kg::EntityId user, kg::CategoryId current,
                    const infer::ScoringView* view,
                    std::vector<std::pair<float, kg::CategoryId>>* scored,
                    std::vector<kg::CategoryId>* out) const;

  int max_actions() const { return max_actions_; }

 private:
  const kg::CategoryGraph* category_graph_;
  const EmbeddingStore* store_;
  int max_actions_;
};

}  // namespace core
}  // namespace cadrl

#endif  // CADRL_CORE_ENVIRONMENT_H_
