#ifndef CADRL_BENCH_E2E_WORLD_H_
#define CADRL_BENCH_E2E_WORLD_H_

// The benchmark's synthetic worlds, model set-up, output checks and the
// delta publisher shared by the workloads.

#include <memory>
#include <string>
#include <vector>

#include "baselines/rl_baselines.h"
#include "core/cadrl.h"
#include "data/dataset.h"
#include "data/generator.h"
#include "eval/recommender.h"
#include "serve/recommend_service.h"
#include "util/status.h"

namespace cadrl {
namespace e2e {

// A synthetic world and the training budget used on it. The generator and
// training seeds are fixed: across generator seeds NDCG@10 ranges over 5x
// and offline throughput over +-9% (README.md), which would swamp the
// regression bounds. The run seed drives only the traffic.
struct WorldSpec {
  data::SyntheticConfig config;
  baselines::RlBudget budget;
};

// BeautySim with the bench budget of bench/bench_common.h (dim 24, hidden
// 48, beam 16, 6 episodes/user, TransE 8 and CGGNN 20 epochs), 4 threads.
WorldSpec BeautyWorld();
// BeautySim x10 (1,500 users, 6,000 items, 120 categories, 480 brands, 720
// features) with CGGNN 2 epochs and 1 episode/user.
WorldSpec LargeWorld();
// The Tiny world with the fast budget, for the smoke test.
WorldSpec TinyWorld();

// A fitted model over its own dataset (the model keeps a pointer into it).
struct Fitted {
  std::unique_ptr<data::Dataset> dataset;
  std::unique_ptr<core::CadrlRecommender> model;
};

struct SetupTimes {
  double generate_s = 0.0;
  double fit_s = 0.0;
  double total_s = 0.0;  // generation + Fit + first publish
};

// Generates the world and fits the model (Fit publishes the first heap
// snapshot). With a non-empty `shard_dir` the snapshot is also compiled
// into that directory and served from its mapping.
Fitted SetUp(const WorldSpec& spec, const std::string& shard_dir,
             SetupTimes* times);

// True when `path` starts at `user` and each hop is a KG edge.
bool ValidWalk(const kg::KnowledgeGraph& graph, kg::EntityId user,
               const eval::RecommendationPath& path);

// Empty when `recs` holds exactly `k` distinct non-train items and (for
// full answers) every path walks the KG from `user` to its item; otherwise
// what is wrong.
std::string CheckRecs(const data::Dataset& dataset, kg::EntityId user, int k,
                      const std::vector<eval::Recommendation>& recs,
                      bool with_paths);

// Byte-for-byte equality of two answers (items, score bits, paths).
bool SameRecs(const std::vector<eval::Recommendation>& a,
              const std::vector<eval::Recommendation>& b);
bool SamePaths(const std::vector<eval::RecommendationPath>& a,
               const std::vector<eval::RecommendationPath>& b);

// Publishes model updates through a shard directory: a full compile once,
// then one-row deltas. Each delta nudges the next user's row (users in a
// seed-drawn order) in a private copy of the store, compiles the delta into
// the directory and reloads through the service.
class DeltaPublisher {
 public:
  DeltaPublisher(core::CadrlRecommender* model, const data::Dataset& dataset,
                 std::string dir, uint64_t seed);

  Status PublishFull(serve::RecommendService* service);
  Status PublishDelta(serve::RecommendService* service, double* compile_ms,
                      double* reload_ms);
  // Compiles the next delta without publishing it, for the direct-load
  // probe.
  Status CompileDelta();

  const std::string& dir() const { return dir_; }

 private:
  void NudgeNextRow();

  core::CadrlRecommender* model_;
  std::string dir_;
  core::EmbeddingStore store_;
  std::vector<kg::EntityId> order_;
  size_t next_ = 0;
};

// Shard rows of the published snapshot: small, so the Beauty world splits
// into a real multi-shard set and a delta rewrites one shard of several.
inline constexpr int64_t kShardRows = 64;

}  // namespace e2e
}  // namespace cadrl

#endif  // CADRL_BENCH_E2E_WORLD_H_
