#include "core/embedding_store.h"

#include <algorithm>
#include <iomanip>
#include <limits>
#include <istream>
#include <ostream>

#include "util/kernels.h"
#include "util/logging.h"

namespace cadrl {
namespace core {

EmbeddingStore::EmbeddingStore(const kg::KnowledgeGraph* graph,
                               const embed::TransEModel* transe)
    : graph_(graph), dim_(transe->dim()) {
  CADRL_CHECK(graph != nullptr);
  CADRL_CHECK(transe != nullptr);
  CADRL_CHECK(graph->finalized());
  entities_ = transe->EntityTable();
  raw_entities_ = entities_;
  relations_ = transe->RelationTable();
  // Self-loop relation: zero vector (translation-neutral).
  relations_.resize(relations_.size() + static_cast<size_t>(dim_), 0.0f);
  categories_ = transe->CategoryTable();
}

void EmbeddingStore::SetItemRepresentation(kg::EntityId item,
                                           std::span<const float> vec) {
  CADRL_CHECK(graph_->IsItem(item));
  SetEntityRow(item, vec);
}

void EmbeddingStore::SetEntityRow(kg::EntityId e, std::span<const float> vec) {
  CADRL_CHECK_GE(e, 0);
  CADRL_CHECK_LT(e, graph_->num_entities());
  CADRL_CHECK_EQ(static_cast<int>(vec.size()), dim_);
  std::copy(vec.begin(), vec.end(),
            entities_.begin() + static_cast<int64_t>(e) * dim_);
}

void EmbeddingStore::SetDemandUserRow(kg::EntityId user,
                                      std::span<const float> vec) {
  CADRL_CHECK_GE(user, 0);
  CADRL_CHECK_LT(user, graph_->num_entities());
  CADRL_CHECK_EQ(static_cast<int>(vec.size()), dim_);
  if (demand_entities_.empty()) demand_entities_ = raw_entities_;
  std::copy(vec.begin(), vec.end(),
            demand_entities_.begin() + static_cast<int64_t>(user) * dim_);
}

void EmbeddingStore::RefreshCategoryVectors() {
  std::fill(categories_.begin(), categories_.end(), 0.0f);
  for (kg::CategoryId c = 0; c < graph_->num_categories(); ++c) {
    const auto& items = graph_->ItemsInCategory(c);
    if (items.empty()) continue;
    float* cat = categories_.data() + static_cast<int64_t>(c) * dim_;
    for (kg::EntityId item : items) {
      kernels::Axpy(dim_, 1.0f,
                    entities_.data() + static_cast<int64_t>(item) * dim_,
                    cat);
    }
    const float inv = 1.0f / static_cast<float>(items.size());
    for (int i = 0; i < dim_; ++i) cat[i] *= inv;
  }
}

std::span<const float> EmbeddingStore::Entity(kg::EntityId e) const {
  CADRL_CHECK_GE(e, 0);
  CADRL_CHECK_LT(e, graph_->num_entities());
  return {entities_.data() + static_cast<int64_t>(e) * dim_,
          static_cast<size_t>(dim_)};
}

std::span<const float> EmbeddingStore::RelationVec(kg::Relation r) const {
  const int v = static_cast<int>(r);
  CADRL_CHECK_GE(v, 0);
  CADRL_CHECK_LE(v, kg::kNumRelations);  // kSelfLoop is the extra last row
  return {relations_.data() + static_cast<int64_t>(v) * dim_,
          static_cast<size_t>(dim_)};
}

std::span<const float> EmbeddingStore::Category(kg::CategoryId c) const {
  CADRL_CHECK_GE(c, 0);
  CADRL_CHECK_LT(c, graph_->num_categories());
  return {categories_.data() + static_cast<int64_t>(c) * dim_,
          static_cast<size_t>(dim_)};
}

ag::Tensor EmbeddingStore::SpanTensor(std::span<const float> v) const {
  return ag::Tensor::FromVector(std::vector<float>(v.begin(), v.end()),
                                {dim_});
}

ag::Tensor EmbeddingStore::EntityTensor(kg::EntityId e) const {
  return SpanTensor(Entity(e));
}

ag::Tensor EmbeddingStore::RelationTensor(kg::Relation r) const {
  return SpanTensor(RelationVec(r));
}

ag::Tensor EmbeddingStore::CategoryTensor(kg::CategoryId c) const {
  return SpanTensor(Category(c));
}

infer::ScoringView EmbeddingStore::View() const {
  infer::ScoringView view;
  view.dim = dim_;
  view.mode = score_mode_;
  view.ensemble_weight = ensemble_translation_weight_;
  view.precision = infer::Precision::kF32;  // the live store is always f32
  view.entities.f32 = entities_.data();
  view.raw_entities.f32 = raw_entities_.data();
  view.demand_entities.f32 =
      demand_entities_.empty() ? nullptr : demand_entities_.data();
  view.relations.f32 = relations_.data();
  view.categories.f32 = categories_.data();
  view.num_entities = graph_->num_entities();
  view.num_categories = graph_->num_categories();
  return view;
}

float EmbeddingStore::ScoreUserEntity(kg::EntityId user,
                                      kg::EntityId entity) const {
  return infer::ScoreUserEntity(View(), user, entity);
}

void EmbeddingStore::ScoreUserEntities(kg::EntityId user,
                                       std::span<const kg::EntityId> entities,
                                       std::span<float> out) const {
  infer::ScoreUserEntities(View(), user, entities, out);
}

namespace {

void WriteTable(std::ostream& out, const std::vector<float>& table) {
  // max_digits10 decimal digits round-trip IEEE floats exactly.
  out << table.size() << '\n'
      << std::setprecision(std::numeric_limits<float>::max_digits10);
  for (float x : table) out << x << ' ';
  out << '\n';
}

// Reads a table written by WriteTable. The declared size must equal
// `expected` (or 0 when `allow_empty` — the optional demand table), so a
// corrupted length can never drive an unbounded allocation or shift the
// read frame of the tables that follow.
Status ReadTable(std::istream& in, size_t expected, bool allow_empty,
                 std::vector<float>* table) {
  int64_t n = -1;
  in >> n;
  if (in.fail() || n < 0 ||
      !(static_cast<size_t>(n) == expected || (allow_empty && n == 0))) {
    return Status::Corruption("table size mismatch");
  }
  table->resize(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) {
    if (!(in >> (*table)[static_cast<size_t>(i)])) {
      return Status::Corruption("truncated table");
    }
  }
  return Status::OK();
}

}  // namespace

Status EmbeddingStore::WriteTo(std::ostream& out) const {
  out << "cadrl_store 1\n";
  out << static_cast<int>(score_mode_) << ' '
      << std::setprecision(std::numeric_limits<float>::max_digits10)
      << ensemble_translation_weight_ << '\n';
  WriteTable(out, entities_);
  WriteTable(out, raw_entities_);
  WriteTable(out, demand_entities_);  // may be empty
  WriteTable(out, relations_);
  WriteTable(out, categories_);
  if (!out.good()) return Status::IOError("store write failed");
  return Status::OK();
}

Status EmbeddingStore::ReadFrom(std::istream& in) {
  std::string magic;
  int version = 0;
  in >> magic >> version;
  if (magic != "cadrl_store" || version != 1) {
    return Status::Corruption("bad store header");
  }
  int mode = 0;
  float weight = 0.0f;
  in >> mode >> weight;
  if (!in.good() || mode < 0 ||
      mode > static_cast<int>(ScoreMode::kDemandTranslation)) {
    return Status::Corruption("bad store mode");
  }
  const size_t entity_size =
      static_cast<size_t>(graph_->num_entities()) * static_cast<size_t>(dim_);
  CADRL_RETURN_IF_ERROR(
      ReadTable(in, entity_size, /*allow_empty=*/false, &entities_));
  CADRL_RETURN_IF_ERROR(
      ReadTable(in, entity_size, /*allow_empty=*/false, &raw_entities_));
  std::vector<float> demand;
  CADRL_RETURN_IF_ERROR(
      ReadTable(in, entity_size, /*allow_empty=*/true, &demand));
  demand_entities_ = std::move(demand);
  CADRL_RETURN_IF_ERROR(
      ReadTable(in, static_cast<size_t>(kg::kNumRelations + 1) * dim_,
                /*allow_empty=*/false, &relations_));
  CADRL_RETURN_IF_ERROR(
      ReadTable(in,
                static_cast<size_t>(graph_->num_categories()) *
                    static_cast<size_t>(dim_),
                /*allow_empty=*/false, &categories_));
  score_mode_ = static_cast<ScoreMode>(mode);
  ensemble_translation_weight_ = weight;
  return Status::OK();
}

float EmbeddingStore::UserCategoryAffinity(kg::EntityId user,
                                           kg::CategoryId c) const {
  return infer::UserCategoryAffinity(View(), user, c);
}

float UserScoreMemo::Score(kg::EntityId entity) {
  if (store_ != nullptr) {
    CADRL_CHECK(mode_ == store_->score_mode())
        << "UserScoreMemo used across a score-mode switch";
  }
  bool inserted = false;
  float& score =
      tables_->cache.Insert(static_cast<size_t>(entity), &inserted);
  if (inserted) score = infer::ScoreUserEntity(view_, user_, entity);
  return score;
}

void UserScoreMemo::ScoreBatch(std::span<const kg::EntityId> entities,
                               std::span<float> out) {
  if (store_ != nullptr) {
    CADRL_CHECK(mode_ == store_->score_mode())
        << "UserScoreMemo used across a score-mode switch";
  }
  CADRL_CHECK_EQ(entities.size(), out.size());
  Tables& t = *tables_;
  t.miss_ids.clear();
  t.miss_pos.clear();
  for (size_t i = 0; i < entities.size(); ++i) {
    if (const float* hit = t.cache.Find(static_cast<size_t>(entities[i]))) {
      out[i] = *hit;
    } else {
      t.miss_ids.push_back(entities[i]);
      t.miss_pos.push_back(i);
    }
  }
  if (t.miss_ids.empty()) return;
  t.miss_scores.resize(t.miss_ids.size());
  infer::ScoreUserEntities(view_, user_, t.miss_ids, t.miss_scores);
  for (size_t i = 0; i < t.miss_ids.size(); ++i) {
    // A batch may name one entity twice; the first copy's score is the
    // one kept, matching the map's emplace.
    bool inserted = false;
    float& cached =
        t.cache.Insert(static_cast<size_t>(t.miss_ids[i]), &inserted);
    if (inserted) cached = t.miss_scores[i];
    out[t.miss_pos[i]] = t.miss_scores[i];
  }
}

}  // namespace core
}  // namespace cadrl
