#ifndef CADRL_BENCH_E2E_PROBES_H_
#define CADRL_BENCH_E2E_PROBES_H_

// Per-layer probes of the traced run: direct calls into core, infer, embed
// and util on the workload's own fitted model, each timed in isolation on
// a fixed set of seed-drawn users.

#include <vector>

#include "report.h"
#include "world.h"

namespace cadrl {
namespace e2e {

struct ProbeOptions {
  std::vector<kg::EntityId> users;  // probe users
  double batch_ms = 20.0;  // minimum time per timing batch
  uint64_t seed = 1;
};

// core.*, infer.* kernel, util.* and arena metrics. Checks that the
// deadline-aware Recommend answers exactly like the blocking one.
void RunLayerProbes(const Fitted& fitted, const ProbeOptions& options,
                    Report* report);

// Standalone TransE and CGGNN training with the model's options; reports
// embed.transe_train_s, core.cggnn_train_s and the derived
// rl.rollout_phase_s (Fit minus both).
void RunTrainingProbes(const Fitted& fitted, double fit_s, Report* report);

// infer.load_delta_ms: LoadFromShardDir of a one-row delta against the
// previous mapping, without publishing.
void RunLoadProbe(DeltaPublisher* publisher, core::CadrlRecommender* model,
                  int repeats, Report* report);

}  // namespace e2e
}  // namespace cadrl

#endif  // CADRL_BENCH_E2E_PROBES_H_
