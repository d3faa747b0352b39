#include "infer/policy_forward.h"

#include <algorithm>
#include <cmath>

#include "util/elemwise.h"
#include "util/kernels.h"
#include "util/logging.h"

namespace cadrl {
namespace infer {

namespace {

// One fully connected layer: out = W x (+ bias). The Gemv is the same
// kernel call ag::MatMul makes for a rank-1 right operand, and the bias add
// is the same loop as ag::Add, so the result matches Linear::Forward
// bit-for-bit.
void LinearForwardRaw(const LinearView& layer, const float* x, float* out) {
  kernels::Gemv(layer.weight, layer.out, layer.in, x, out);
  if (layer.bias != nullptr) {
    elemwise::AddVec(out, layer.bias, out, static_cast<size_t>(layer.out));
  }
}

// One LSTM step, mirroring ag::LstmCell::Forward op-for-op:
//   gates = (W_x x + W_h h) + b
//   i,f,o = sigmoid(slices), g = tanh(slice)
//   c' = f*c + i*g ;  h' = o * tanh(c')
// Each tape op is one loop writing through memory, which pins f32 rounding
// exactly as the autograd forwards do. The step is split at the hidden
// product gh = W_h h (LstmHiddenProductRaw) so a caller can share it
// across inputs; LstmFinishRaw does the rest. h_out/c_out must not alias
// prev_c.
void LstmHiddenProductRaw(const LstmView& lstm, const float* prev_h,
                          float* gh) {
  kernels::Gemv(lstm.w_hidden, 4 * lstm.hidden, lstm.hidden, prev_h, gh);
}

void LstmFinishRaw(const LstmView& lstm, const float* x, const float* gh,
                   const float* prev_c, PolicyScratch* s, float* h_out,
                   float* c_out) {
  const size_t h = static_cast<size_t>(lstm.hidden);
  const size_t g4 = 4 * h;
  s->gx.resize(g4);
  s->gsum.resize(g4);
  s->gates.resize(g4);
  kernels::Gemv(lstm.w_input, static_cast<int>(g4), lstm.in, x, s->gx.data());
  elemwise::AddVec(s->gx.data(), gh, s->gsum.data(), g4);
  elemwise::AddVec(s->gsum.data(), lstm.bias, s->gates.data(), g4);
  s->ig.resize(h);
  s->fg.resize(h);
  s->cu.resize(h);
  s->og.resize(h);
  elemwise::SigmoidVec(s->gates.data(), s->ig.data(), h);
  elemwise::SigmoidVec(s->gates.data() + h, s->fg.data(), h);
  elemwise::TanhVec(s->gates.data() + 2 * h, s->cu.data(), h);
  elemwise::SigmoidVec(s->gates.data() + 3 * h, s->og.data(), h);
  s->ta.resize(h);
  s->tb.resize(h);
  s->tc.resize(h);
  elemwise::MulVec(s->fg.data(), prev_c, s->ta.data(), h);
  elemwise::MulVec(s->ig.data(), s->cu.data(), s->tb.data(), h);
  elemwise::AddVec(s->ta.data(), s->tb.data(), c_out, h);
  elemwise::TanhVec(c_out, s->tc.data(), h);
  elemwise::MulVec(s->og.data(), s->tc.data(), h_out, h);
}

void LstmStepRaw(const LstmView& lstm, const float* x, const float* prev_h,
                 const float* prev_c, PolicyScratch* s, float* h_out,
                 float* c_out) {
  s->gh.resize(4 * static_cast<size_t>(lstm.hidden));
  LstmHiddenProductRaw(lstm, prev_h, s->gh.data());
  LstmFinishRaw(lstm, x, s->gh.data(), prev_c, s, h_out, c_out);
}

// Concatenates rank-1 spans into s->x (the ag::Concat of the tape path is
// a plain copy, so this is trivially bit-identical).
const float* ConcatInto(std::vector<float>* buf,
                        std::initializer_list<std::span<const float>> parts) {
  size_t total = 0;
  for (const auto& p : parts) total += p.size();
  buf->resize(total);
  float* dst = buf->data();
  for (const auto& p : parts) {
    std::copy(p.begin(), p.end(), dst);
    dst += p.size();
  }
  return buf->data();
}

// Shared head pipeline: hid = Linear2(relu(Linear1(features))), then one
// Gemv against the stacked action matrix — the rank-1 ag::MatMul of the
// tape path.
void HeadLogitsRaw(const LinearView& head1, const LinearView& head2,
                   const float* features, const float* action_matrix,
                   int num_actions, PolicyScratch* s, float* out) {
  s->a1.resize(static_cast<size_t>(head1.out));
  LinearForwardRaw(head1, features, s->a1.data());
  s->r1.resize(static_cast<size_t>(head1.out));
  elemwise::ReluVec(s->a1.data(), s->r1.data(),
                    static_cast<size_t>(head1.out));
  s->hid.resize(static_cast<size_t>(head2.out));
  LinearForwardRaw(head2, s->r1.data(), s->hid.data());
  kernels::Gemv(action_matrix, num_actions, head2.out, s->hid.data(), out);
}

// Eq 15 feature row: [user ; current_cat ; h_c], written into *features.
void CategoryFeaturesRaw(const RawPolicyState& state,
                         std::span<const float> user,
                         std::span<const float> current_cat,
                         std::vector<float>* features) {
  ConcatInto(features,
             {user, current_cat, std::span<const float>(state.cat_h)});
}

// Eq 16 feature row: [ent ; rel ; condition ; h_e]; an empty `condition`
// (or conditioning disabled) uses the tape path's zero condition, built in
// scratch->zeros so the warmed path stays allocation-free.
void EntityFeaturesRaw(const PolicyParamsView& view,
                       const RawPolicyState& state,
                       std::span<const float> current_ent,
                       std::span<const float> last_rel,
                       std::span<const float> condition,
                       PolicyScratch* s, std::vector<float>* features) {
  const size_t d = static_cast<size_t>(view.dim);
  std::span<const float> cond = condition;
  if (!view.condition_on_category || cond.empty()) {
    s->zeros.assign(d, 0.0f);
    cond = std::span<const float>(s->zeros.data(), d);
  }
  ConcatInto(features, {current_ent, last_rel, cond,
                        std::span<const float>(state.ent_h)});
}

}  // namespace

void InitialStateRaw(const PolicyParamsView& view, std::span<const float> user,
                     std::span<const float> cat0, std::span<const float> rel0,
                     std::span<const float> ent0, PolicyScratch* s,
                     RawPolicyState* state) {
  const size_t h = static_cast<size_t>(view.hidden);
  s->zeros.assign(h, 0.0f);
  state->cat_h.resize(h);
  state->cat_c.resize(h);
  state->ent_h.resize(h);
  state->ent_c.resize(h);
  const float* x = ConcatInto(&s->x, {user, cat0});
  LstmStepRaw(view.lstm_c, x, s->zeros.data(), s->zeros.data(), s,
              state->cat_h.data(), state->cat_c.data());
  x = ConcatInto(&s->x, {user, rel0, ent0});
  LstmStepRaw(view.lstm_e, x, s->zeros.data(), s->zeros.data(), s,
              state->ent_h.data(), state->ent_c.data());
}

void AdvanceRaw(const PolicyParamsView& view, RawPolicyState* state,
                std::span<const float> user, std::span<const float> cat_emb,
                std::span<const float> rel_emb, std::span<const float> ent_emb,
                PolicyScratch* s) {
  CADRL_CHECK(state != nullptr);
  AdvanceSharedRaw(view, *state, user, cat_emb, s, &s->shared);
  AdvanceChildRaw(view, s->shared, *state, user, rel_emb, ent_emb, s, state);
}

void AdvanceSharedRaw(const PolicyParamsView& view,
                      const RawPolicyState& parent,
                      std::span<const float> user,
                      std::span<const float> cat_emb, PolicyScratch* s,
                      SharedAdvance* shared) {
  const size_t h = static_cast<size_t>(view.hidden);
  const float* hidden_c = parent.cat_h.data();
  const float* hidden_e = parent.ent_h.data();
  if (view.share_history) {
    // Eqs 13-14: each agent's next hidden input fuses both histories —
    // both mixes read the OLD state.
    s->mixed_c.resize(h);
    s->mixed_e.resize(h);
    const float* mc_in = ConcatInto(&s->x, {parent.cat_h, parent.ent_h});
    LinearForwardRaw(view.mix_c, mc_in, s->mixed_c.data());
    const float* me_in = ConcatInto(&s->x, {parent.ent_h, parent.cat_h});
    LinearForwardRaw(view.mix_e, me_in, s->mixed_e.data());
    hidden_c = s->mixed_c.data();
    hidden_e = s->mixed_e.data();
  }
  shared->cat_h.resize(h);
  shared->cat_c.resize(h);
  const float* x = ConcatInto(&s->x, {user, cat_emb});
  LstmStepRaw(view.lstm_c, x, hidden_c, parent.cat_c.data(), s,
              shared->cat_h.data(), shared->cat_c.data());
  shared->ent_gh.resize(4 * h);
  LstmHiddenProductRaw(view.lstm_e, hidden_e, shared->ent_gh.data());
}

void AdvanceChildRaw(const PolicyParamsView& view, const SharedAdvance& shared,
                     const RawPolicyState& parent, std::span<const float> user,
                     std::span<const float> rel_emb,
                     std::span<const float> ent_emb, PolicyScratch* s,
                     RawPolicyState* child) {
  CADRL_CHECK(child != nullptr);
  const size_t h = static_cast<size_t>(view.hidden);
  s->nh.resize(h);
  s->nc.resize(h);
  const float* x = ConcatInto(&s->x, {user, rel_emb, ent_emb});
  LstmFinishRaw(view.lstm_e, x, shared.ent_gh.data(), parent.ent_c.data(), s,
                s->nh.data(), s->nc.data());
  // Swaps, not copies: the child's old buffers become the next scratch.
  std::swap(child->ent_h, s->nh);
  std::swap(child->ent_c, s->nc);
  child->cat_h.assign(shared.cat_h.begin(), shared.cat_h.end());
  child->cat_c.assign(shared.cat_c.begin(), shared.cat_c.end());
}

void CategoryLogitsRaw(const PolicyParamsView& view,
                       const RawPolicyState& state,
                       std::span<const float> user,
                       std::span<const float> current_cat,
                       const float* action_matrix, int num_actions,
                       PolicyScratch* s, float* out) {
  CategoryFeaturesRaw(state, user, current_cat, &s->features);
  HeadLogitsRaw(view.head1_c, view.head2_c, s->features.data(), action_matrix,
                num_actions, s, out);
}

void EntityLogitsRaw(const PolicyParamsView& view, const RawPolicyState& state,
                     std::span<const float> current_ent,
                     std::span<const float> last_rel,
                     std::span<const float> condition,
                     const float* action_matrix, int num_actions,
                     PolicyScratch* s, float* out) {
  EntityFeaturesRaw(view, state, current_ent, last_rel, condition, s,
                    &s->features);
  HeadLogitsRaw(view.head1_e, view.head2_e, s->features.data(), action_matrix,
                num_actions, s, out);
}

void EntityProbsBatchRaw(const PolicyParamsView& view,
                         std::span<const float> ent_h,
                         std::span<const float> current_ent,
                         std::span<const float> last_rel,
                         const std::vector<std::span<const float>>& conditions,
                         const float* action_matrix, int num_actions,
                         std::vector<float>* probs) {
  CADRL_CHECK(probs != nullptr);
  const int d = view.dim;
  const int h = view.hidden;
  const int in1 = 3 * d + h;  // entity head input width
  const int out2 = 2 * d;     // entity head output width
  const int num_cond = static_cast<int>(conditions.size());

  // Feature rows [ent ; rel ; condition_k ; h_e]: only the condition block
  // differs across rows. condition_on_category=false mirrors the tape
  // path's zero condition.
  static thread_local std::vector<float> features;
  features.assign(static_cast<size_t>(num_cond) * in1, 0.0f);
  for (int row = 0; row < num_cond; ++row) {
    float* f = features.data() + static_cast<size_t>(row) * in1;
    std::copy(current_ent.begin(), current_ent.end(), f);
    std::copy(last_rel.begin(), last_rel.end(), f + d);
    if (view.condition_on_category) {
      const std::span<const float>& c = conditions[static_cast<size_t>(row)];
      CADRL_CHECK_EQ(static_cast<int>(c.size()), d);
      std::copy(c.begin(), c.end(), f + 2 * d);
    }
    std::copy(ent_h.begin(), ent_h.end(), f + 3 * d);
  }

  // Head stack as three GEMMs. Each output element is the same kernel Dot
  // the tape path computes (Linear::Forward is a row-dot GEMV), so every
  // row stays bit-identical to the per-condition forward.
  static thread_local std::vector<float> h1, h2;
  h1.assign(static_cast<size_t>(num_cond) * h, 0.0f);
  kernels::GemmNTAcc(features.data(), view.head1_e.weight, h1.data(), num_cond,
                     h, in1);
  const float* b1 = view.head1_e.bias;
  for (int row = 0; row < num_cond; ++row) {
    float* out = h1.data() + static_cast<size_t>(row) * h;
    for (int i = 0; i < h; ++i) {
      out[i] += b1[i];
      out[i] = std::max(0.0f, out[i]);  // mirror ag::Relu
    }
  }
  h2.assign(static_cast<size_t>(num_cond) * out2, 0.0f);
  kernels::GemmNTAcc(h1.data(), view.head2_e.weight, h2.data(), num_cond,
                     out2, h);
  const float* b2 = view.head2_e.bias;
  for (int row = 0; row < num_cond; ++row) {
    float* out = h2.data() + static_cast<size_t>(row) * out2;
    for (int i = 0; i < out2; ++i) out[i] += b2[i];
  }
  probs->assign(static_cast<size_t>(num_cond) * num_actions, 0.0f);
  kernels::GemmNTAcc(h2.data(), action_matrix, probs->data(), num_cond,
                     num_actions, out2);

  // Per-row softmax in exactly ag::Softmax's order.
  for (int row = 0; row < num_cond; ++row) {
    float* p = probs->data() + static_cast<size_t>(row) * num_actions;
    elemwise::SoftmaxVec(p, p, num_actions);
  }
}

}  // namespace infer
}  // namespace cadrl
