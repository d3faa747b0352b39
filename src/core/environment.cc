#include "core/environment.h"

#include <algorithm>

#include "util/logging.h"

namespace cadrl {
namespace core {

EntityEnvironment::EntityEnvironment(const kg::KnowledgeGraph* graph,
                                     const EmbeddingStore* store,
                                     int max_actions)
    : graph_(graph), store_(store), max_actions_(max_actions) {
  CADRL_CHECK(graph != nullptr);
  CADRL_CHECK(store != nullptr);
  CADRL_CHECK_GE(max_actions, 2) << "need room for self-loop + one move";
}

std::vector<EntityAction> EntityEnvironment::ValidActions(
    kg::EntityId user, kg::EntityId current,
    const CategorySet* milestone_categories, UserScoreMemo* memo) const {
  ActionScratch scratch;
  std::vector<EntityAction> actions;
  ValidActions(user, current, milestone_categories, memo, &scratch, &actions);
  return actions;
}

void EntityEnvironment::ValidActions(kg::EntityId user, kg::EntityId current,
                                     const CategorySet* milestone_categories,
                                     UserScoreMemo* memo,
                                     ActionScratch* scratch,
                                     std::vector<EntityAction>* out) const {
  std::vector<EntityAction>& actions = *out;
  actions.clear();
  actions.push_back({kg::Relation::kSelfLoop, current});
  const auto all_edges = graph_->Neighbors(current);
  // Category-guided narrowing (§V-D): item endpoints must lie in a
  // milestone category; attribute/user endpoints always pass.
  std::vector<const kg::Edge*>& edges = scratch->edges;
  edges.clear();
  edges.reserve(all_edges.size());
  if (milestone_categories != nullptr && !milestone_categories->empty()) {
    for (const kg::Edge& e : all_edges) {
      if (graph_->IsItem(e.dst) &&
          !milestone_categories->Contains(graph_->CategoryOf(e.dst))) {
        continue;
      }
      edges.push_back(&e);
    }
    if (edges.empty()) {
      for (const kg::Edge& e : all_edges) edges.push_back(&e);
    }
  } else {
    for (const kg::Edge& e : all_edges) edges.push_back(&e);
  }
  const int64_t budget = max_actions_ - 1;
  if (static_cast<int64_t>(edges.size()) <= budget) {
    for (const kg::Edge* e : edges) actions.push_back({e->relation, e->dst});
    return;
  }
  // Prune: keep the edges whose endpoints best answer the user's purchase
  // query, scored as one batch. Deterministic tie-break on (relation, dst).
  std::vector<kg::EntityId>& endpoints = scratch->endpoints;
  endpoints.clear();
  endpoints.reserve(edges.size());
  for (const kg::Edge* e : edges) endpoints.push_back(e->dst);
  std::vector<float>& scores = scratch->scores;
  scores.resize(endpoints.size());
  if (memo != nullptr) {
    memo->ScoreBatch(endpoints, scores);
  } else {
    store_->ScoreUserEntities(user, endpoints, scores);
  }
  std::vector<std::pair<float, const kg::Edge*>>& scored = scratch->scored;
  scored.clear();
  scored.reserve(edges.size());
  for (size_t i = 0; i < edges.size(); ++i) {
    scored.emplace_back(scores[i], edges[i]);
  }
  std::partial_sort(
      scored.begin(), scored.begin() + budget, scored.end(),
      [](const auto& a, const auto& b) {
        if (a.first != b.first) return a.first > b.first;
        if (a.second->relation != b.second->relation) {
          return static_cast<int>(a.second->relation) <
                 static_cast<int>(b.second->relation);
        }
        return a.second->dst < b.second->dst;
      });
  for (int64_t i = 0; i < budget; ++i) {
    actions.push_back({scored[static_cast<size_t>(i)].second->relation,
                       scored[static_cast<size_t>(i)].second->dst});
  }
}

CategoryEnvironment::CategoryEnvironment(
    const kg::CategoryGraph* category_graph, const EmbeddingStore* store,
    int max_actions)
    : category_graph_(category_graph),
      store_(store),
      max_actions_(max_actions) {
  CADRL_CHECK(category_graph != nullptr);
  CADRL_CHECK(store != nullptr);
  CADRL_CHECK_GE(max_actions, 2);
}

std::vector<kg::CategoryId> CategoryEnvironment::ValidActions(
    kg::EntityId user, kg::CategoryId current,
    const infer::ScoringView* view) const {
  std::vector<std::pair<float, kg::CategoryId>> scored;
  std::vector<kg::CategoryId> actions;
  ValidActions(user, current, view, &scored, &actions);
  return actions;
}

void CategoryEnvironment::ValidActions(
    kg::EntityId user, kg::CategoryId current, const infer::ScoringView* view,
    std::vector<std::pair<float, kg::CategoryId>>* scored_buf,
    std::vector<kg::CategoryId>* out) const {
  std::vector<kg::CategoryId>& actions = *out;
  actions.clear();
  actions.push_back(current);  // stay (self-loop)
  const auto neighbors = category_graph_->Neighbors(current);
  const int64_t budget = max_actions_ - 1;
  if (static_cast<int64_t>(neighbors.size()) <= budget) {
    for (const kg::CategoryEdge& e : neighbors) actions.push_back(e.dst);
    return;
  }
  // Neighbors arrive sorted by co-occurrence weight; among them prefer the
  // categories most aligned with the user.
  std::vector<std::pair<float, kg::CategoryId>>& scored = *scored_buf;
  scored.clear();
  scored.reserve(neighbors.size());
  for (const kg::CategoryEdge& e : neighbors) {
    const float affinity =
        view != nullptr ? infer::UserCategoryAffinity(*view, user, e.dst)
                        : store_->UserCategoryAffinity(user, e.dst);
    scored.emplace_back(affinity, e.dst);
  }
  std::partial_sort(scored.begin(), scored.begin() + budget, scored.end(),
                    [](const auto& a, const auto& b) {
                      if (a.first != b.first) return a.first > b.first;
                      return a.second < b.second;
                    });
  for (int64_t i = 0; i < budget; ++i) {
    actions.push_back(scored[static_cast<size_t>(i)].second);
  }
}

}  // namespace core
}  // namespace cadrl
