#include "probes.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <thread>

#include "alloc_counter.h"
#include "core/cggnn.h"
#include "core/environment.h"
#include "embed/transe.h"
#include "infer/policy_forward.h"
#include "infer/scoring.h"
#include "infer/shard_layout.h"
#include "trace.h"
#include "util/alloc_stats.h"
#include "util/failpoint.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace cadrl {
namespace e2e {

namespace {

double MsSince(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

// Median over five batches of the time per call of `fn`, in ns; each batch
// runs long enough to last about `batch_ms`.
template <typename Fn>
double NsPerCall(Fn&& fn, double batch_ms) {
  int64_t iters = 1;
  double ms = 0.0;
  for (;;) {
    const auto t0 = Clock::now();
    for (int64_t i = 0; i < iters; ++i) fn();
    ms = MsSince(t0);
    if (ms >= batch_ms / 8 || iters >= (int64_t{1} << 24)) break;
    iters *= 2;
  }
  iters = std::max<int64_t>(1, static_cast<int64_t>(
                                   static_cast<double>(iters) * batch_ms /
                                   std::max(ms, 1e-3)));
  std::vector<double> per_call;
  for (int b = 0; b < 5; ++b) {
    const auto t0 = Clock::now();
    for (int64_t i = 0; i < iters; ++i) fn();
    per_call.push_back(MsSince(t0) * 1e6 / static_cast<double>(iters));
  }
  return Median(per_call);
}

int64_t ElementBytes(infer::Precision p) {
  return p == infer::Precision::kF32 ? 4 : p == infer::Precision::kF16 ? 2 : 1;
}

// FLOPs and parameter bytes of one fully connected layer's forward.
double LinearFlops(const infer::LinearView& l) {
  return 2.0 * l.in * l.out;
}
double LinearBytes(const infer::LinearView& l) {
  return 4.0 * (static_cast<double>(l.in) * l.out +
                (l.bias != nullptr ? l.out : 0));
}
double LstmFlops(const infer::LstmView& l) {
  return 2.0 * 4 * l.hidden * (l.in + l.hidden) + 10.0 * l.hidden;
}
double LstmBytes(const infer::LstmView& l) {
  return 4.0 * (4.0 * l.hidden * (l.in + l.hidden) + 4.0 * l.hidden);
}

void ProbeCore(const Fitted& f, const ProbeOptions& opt, Report* r) {
  core::CadrlRecommender* model = f.model.get();
  const std::vector<kg::EntityId>& users = opt.users;
  const double n_users = static_cast<double>(users.size());
  model->Recommend(users.front(), 10);  // warm scratch and caches

  // Blocking vs deadline-aware on the same users, interleaved per user so
  // both see the same cache state.
  std::vector<double> blocking_ms, overhead_ms;
  for (int round = 0; round < 3; ++round) {
    for (const kg::EntityId u : users) {
      const auto t0 = Clock::now();
      const std::vector<eval::Recommendation> direct = model->Recommend(u, 10);
      const double b = MsSince(t0);
      const RequestContext ctx =
          RequestContext::WithTimeout(std::chrono::milliseconds(250));
      std::vector<eval::Recommendation> via_ctx;
      const auto t1 = Clock::now();
      const Status status = model->Recommend(u, 10, ctx, &via_ctx);
      const double c = MsSince(t1);
      if (!status.ok() || !SameRecs(direct, via_ctx)) {
        r->Fail("deadline-aware Recommend differs from blocking for user " +
                std::to_string(u));
      }
      blocking_ms.push_back(b);
      overhead_ms.push_back(c - b);
    }
  }
  r->Layer("core.recommend_blocking_ms_p50", Median(blocking_ms), "ms",
           static_cast<int64_t>(blocking_ms.size()));
  r->Layer("core.ctx_overhead_ms", Median(overhead_ms), "ms",
           static_cast<int64_t>(overhead_ms.size()));

  const int64_t heap0 = ThreadHeapAllocs();
  {
    util::TensorAllocScope tensors;
    for (const kg::EntityId u : users) model->Recommend(u, 10);
    r->Layer("core.tensor_allocs_per_recommend",
             static_cast<double>(tensors.delta()) / n_users, "count",
             static_cast<int64_t>(users.size()));
  }
  r->Layer("core.mallocs_per_recommend",
           static_cast<double>(ThreadHeapAllocs() - heap0) / n_users, "count",
           static_cast<int64_t>(users.size()));

  std::vector<double> find_ms;
  for (const kg::EntityId u : users) {
    const auto t0 = Clock::now();
    const auto paths = model->FindPaths(u, 100);
    find_ms.push_back(MsSince(t0));
    for (const auto& p : paths) {
      if (!ValidWalk(f.dataset->graph, u, p)) {
        r->Fail("FindPaths returned a path that is not a KG walk");
      }
    }
  }
  r->Layer("core.find_paths_ms_p50", Median(find_ms), "ms",
           static_cast<int64_t>(find_ms.size()));

  // Closed-loop throughput of 3 direct callers over 1.
  const auto calls_per_s = [&](int threads) {
    const double seconds = opt.batch_ms * 12 / 1e3;
    std::atomic<int64_t> calls{0};
    std::vector<std::thread> callers;
    const auto t0 = Clock::now();
    for (int t = 0; t < threads; ++t) {
      callers.emplace_back([&, t] {
        size_t i = static_cast<size_t>(t) * users.size() / 3;
        while (MsSince(t0) < seconds * 1e3) {
          model->Recommend(users[i++ % users.size()], 10);
          calls.fetch_add(1, std::memory_order_relaxed);
        }
      });
    }
    for (std::thread& c : callers) c.join();
    return static_cast<double>(calls.load()) / (MsSince(t0) / 1e3);
  };
  const double one = calls_per_s(1);
  const double three = calls_per_s(3);
  r->Layer("core.scaling_3t", three / one, "ratio", 2);

  // Action enumeration at the states the beam search visits: every entity
  // on the users' recommendation paths.
  const core::EntityEnvironment env(&f.dataset->graph, model->store(),
                                    model->options().max_entity_actions);
  std::vector<std::pair<kg::EntityId, kg::EntityId>> states;
  for (const kg::EntityId u : users) {
    states.emplace_back(u, u);
    for (const eval::Recommendation& rec : model->Recommend(u, 10)) {
      for (const eval::PathStep& step : rec.path.steps) {
        states.emplace_back(u, step.entity);
      }
    }
  }
  size_t next = 0;
  r->Layer("core.valid_actions_us",
           NsPerCall(
               [&] {
                 const auto& [u, at] = states[next++ % states.size()];
                 env.ValidActions(u, at);
               },
               opt.batch_ms) /
               1e3,
           "us", static_cast<int64_t>(states.size()));

  std::vector<double> build_ms;
  for (int i = 0; i < 5; ++i) {
    const auto t0 = Clock::now();
    model->RepublishSnapshot();
    build_ms.push_back(MsSince(t0));
  }
  r->Layer("infer.build_snapshot_ms", Median(build_ms), "ms", 5);

  const eval::Recommender::ServingArena arena = model->ServingArenaBytes();
  r->Layer("infer.arena_store_row_bytes",
           static_cast<double>(arena.store_row_bytes), "bytes", 1);
  r->Layer("infer.arena_policy_param_bytes",
           static_cast<double>(arena.policy_param_bytes), "bytes", 1);
}

// The compiled forwards at the beam search's shapes: 50 entity candidates,
// 50 entity actions, 10 category actions. FLOPs and bytes are computed
// from the tensor sizes, not measured.
void ProbeInfer(const Fitted& f, const ProbeOptions& opt, Report* r) {
  const std::shared_ptr<const infer::CompiledModel> snap =
      f.model->CurrentSnapshot();
  const infer::ScoringView& sv = snap->scoring();
  const infer::PolicyParamsView& pv = snap->policy();
  const int d = sv.dim;
  const auto row = [&](const infer::RowTable& t, int64_t idx) {
    std::vector<float> v(static_cast<size_t>(d));
    infer::MaterializeRow(t, sv.precision, d, idx, v.data());
    return v;
  };
  const kg::KnowledgeGraph& graph = f.dataset->graph;
  const kg::EntityId user = opt.users.front();
  std::vector<kg::EntityId> items =
      graph.EntitiesOfType(kg::EntityType::kItem);
  Rng rng(opt.seed);
  rng.Shuffle(&items);
  constexpr int kEntityActions = 50;
  constexpr int kCategoryActions = 10;
  items.resize(std::min<size_t>(items.size(), kEntityActions));
  const int n_ent = static_cast<int>(items.size());

  const std::vector<float> u = row(sv.entities, static_cast<int64_t>(user));
  const std::vector<float> e =
      row(sv.entities, static_cast<int64_t>(items.front()));
  const std::vector<float> rel =
      row(sv.relations, static_cast<int64_t>(kg::Relation::kSelfLoop));
  const std::vector<float> c = row(
      sv.categories, static_cast<int64_t>(graph.CategoryOf(items.front())));
  std::vector<float> ent_actions;
  for (int i = 0; i < n_ent; ++i) {
    const std::vector<float> a = row(sv.relations, i % kg::kNumRelations);
    const std::vector<float> b =
        row(sv.entities, static_cast<int64_t>(items[static_cast<size_t>(i)]));
    ent_actions.insert(ent_actions.end(), a.begin(), a.end());
    ent_actions.insert(ent_actions.end(), b.begin(), b.end());
  }
  const int n_cat = static_cast<int>(
      std::min<int64_t>(sv.num_categories, kCategoryActions));
  std::vector<float> cat_actions;
  for (int i = 0; i < n_cat; ++i) {
    const std::vector<float> a = row(sv.categories, i);
    cat_actions.insert(cat_actions.end(), a.begin(), a.end());
  }

  infer::PolicyScratch scratch;
  infer::RawPolicyState state;
  std::vector<float> out(static_cast<size_t>(kEntityActions));
  const int64_t eb = ElementBytes(sv.precision);

  std::vector<float> scores(items.size());
  const bool ensemble = sv.mode == infer::ScoreMode::kEnsemble;
  const double score_flops = sv.mode == infer::ScoreMode::kDotProduct
                                 ? 2.0 * d
                                 : ensemble ? 5.0 * d + 2 : 3.0 * d;
  const double score_ns = NsPerCall(
      [&] {
        infer::ScoreUserEntities(sv, user, items, scores);
      },
      opt.batch_ms);
  r->Add(Kind::kLayer, "infer.score_user_entities_ns_per_row",
         score_ns / n_ent, "ns", n_ent,
         {{"flops_per_row", score_flops},
          {"bytes_per_row", static_cast<double>(eb * d * (ensemble ? 2 : 1))},
          {"computed", 1}});

  const auto span = [](const std::vector<float>& v) {
    return std::span<const float>(v.data(), v.size());
  };
  const double init_ns = NsPerCall(
      [&] {
        infer::InitialStateRaw(pv, span(u), span(c), span(rel), span(e),
                               &scratch, &state);
      },
      opt.batch_ms);
  r->Add(Kind::kLayer, "infer.initial_state_us", init_ns / 1e3, "us", 1,
         {{"flops", LstmFlops(pv.lstm_c) + LstmFlops(pv.lstm_e)},
          {"bytes", LstmBytes(pv.lstm_c) + LstmBytes(pv.lstm_e)},
          {"computed", 1}});

  const auto head_cost = [](const infer::LinearView& h1,
                            const infer::LinearView& h2, int n) {
    return std::pair<double, double>{
        LinearFlops(h1) + LinearFlops(h2) + 2.0 * n * h2.out,
        LinearBytes(h1) + LinearBytes(h2) + 4.0 * (n * h2.out + h1.in)};
  };
  const double ent_ns = NsPerCall(
      [&] {
        infer::EntityLogitsRaw(pv, state, span(e), span(rel), span(c),
                               ent_actions.data(), n_ent, &scratch,
                               out.data());
      },
      opt.batch_ms);
  const auto [ent_flops, ent_bytes] = head_cost(pv.head1_e, pv.head2_e, n_ent);
  r->Add(Kind::kLayer, "infer.entity_logits_us", ent_ns / 1e3, "us", n_ent,
         {{"flops", ent_flops}, {"bytes", ent_bytes}, {"computed", 1}});

  const double cat_ns = NsPerCall(
      [&] {
        infer::CategoryLogitsRaw(pv, state, span(u), span(c),
                                 cat_actions.data(), n_cat, &scratch,
                                 out.data());
      },
      opt.batch_ms);
  const auto [cat_flops, cat_bytes] = head_cost(pv.head1_c, pv.head2_c, n_cat);
  r->Add(Kind::kLayer, "infer.category_logits_us", cat_ns / 1e3, "us", n_cat,
         {{"flops", cat_flops}, {"bytes", cat_bytes}, {"computed", 1}});

  const double adv_ns = NsPerCall(
      [&] {
        infer::AdvanceRaw(pv, &state, span(u), span(c), span(rel), span(e),
                          &scratch);
      },
      opt.batch_ms);
  r->Add(Kind::kLayer, "infer.advance_us", adv_ns / 1e3, "us", 1,
         {{"flops", LstmFlops(pv.lstm_c) + LstmFlops(pv.lstm_e) +
                        LinearFlops(pv.mix_c) + LinearFlops(pv.mix_e)},
          {"bytes", LstmBytes(pv.lstm_c) + LstmBytes(pv.lstm_e) +
                        LinearBytes(pv.mix_c) + LinearBytes(pv.mix_e)},
          {"computed", 1}});
}

void ProbeUtil(const ProbeOptions& opt, Report* r) {
  // An unarmed failpoint, as every beam element of a served request hits.
  Failpoints& fp = Failpoints::Instance();
  const double hit_ns =
      NsPerCall([&] { fp.Hit("cadrl/score"); }, opt.batch_ms);
  r->Layer("util.failpoint_hit_ns_1t", hit_ns, "ns", 1);

  constexpr int kThreads = 3;
  const int64_t hits = std::max<int64_t>(
      1000, static_cast<int64_t>(opt.batch_ms * 1e6 / hit_ns / 4));
  std::vector<std::thread> threads;
  const auto t0 = Clock::now();
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int64_t i = 0; i < hits; ++i) fp.Hit("cadrl/score");
    });
  }
  for (std::thread& t : threads) t.join();
  r->Layer("util.failpoint_hit_ns_3t",
           MsSince(t0) * 1e6 / static_cast<double>(hits), "ns", kThreads);

  ThreadPool pool(4);
  r->Layer("util.parallel_for_us",
           NsPerCall(
               [&] {
                 pool.ParallelFor(0, 64, 1,
                                  [](int64_t) { return Status::OK(); })
                     .ok();
               },
               opt.batch_ms) /
               1e3,
           "us", 64);
}

}  // namespace

void RunLayerProbes(const Fitted& fitted, const ProbeOptions& options,
                    Report* report) {
  ScopedSpan span("probes");
  ProbeCore(fitted, options, report);
  ProbeInfer(fitted, options, report);
  ProbeUtil(options, report);
}

void RunTrainingProbes(const Fitted& fitted, double fit_s, Report* report) {
  ScopedSpan span("probes.train");
  const core::CadrlOptions& o = fitted.model->options();
  auto t0 = Clock::now();
  const embed::TransEModel transe =
      embed::TransEModel::Train(fitted.dataset->graph, o.transe);
  const double transe_s = MsSince(t0) / 1e3;
  t0 = Clock::now();
  core::Cggnn cggnn(&fitted.dataset->graph, &transe, o.cggnn);
  CADRL_CHECK_OK(cggnn.Train(*fitted.dataset));
  const double cggnn_s = MsSince(t0) / 1e3;
  report->Layer("embed.transe_train_s", transe_s, "s", 1);
  report->Layer("core.cggnn_train_s", cggnn_s, "s", 1);
  // Derived: what Fit spends outside TransE and CGGNN (rollouts, losses,
  // backward and optimizer steps, snapshot publish).
  report->Add(Kind::kLayer, "rl.rollout_phase_s", fit_s - transe_s - cggnn_s,
              "s", 1, {{"derived", 1}});
}

void RunLoadProbe(DeltaPublisher* publisher, core::CadrlRecommender* model,
                  int repeats, Report* report) {
  std::shared_ptr<const infer::CompiledModel> previous =
      model->CurrentSnapshot();
  std::vector<double> load_ms;
  for (int i = 0; i < repeats; ++i) {
    CADRL_CHECK_OK(publisher->CompileDelta());
    std::shared_ptr<const infer::CompiledModel> next;
    const auto t0 = Clock::now();
    const Status status =
        infer::LoadFromShardDir(publisher->dir(), {}, previous, &next);
    load_ms.push_back(MsSince(t0));
    if (!status.ok()) {
      report->Fail("LoadFromShardDir: " + status.ToString());
      return;
    }
    previous = next;
  }
  report->Layer("infer.load_delta_ms", Median(load_ms), "ms", repeats);
}

}  // namespace e2e
}  // namespace cadrl
