#ifndef CADRL_INFER_POLICY_FORWARD_H_
#define CADRL_INFER_POLICY_FORWARD_H_

#include <span>
#include <vector>

// Tape-free forward passes of the shared dual-agent policy networks
// (core::SharedPolicyNetworks). Each function mirrors the autograd
// composition op-for-op — one loop (or kernel call) per tape op, routed
// through util/elemwise + util/kernels — so its outputs are byte-identical
// to the tape path; the contract is locked by golden tests
// (tests/compiled_inference_test.cc). Parameters come in through raw-buffer
// views so the same code serves both the live module (training-side
// inference) and a frozen CompiledModel snapshot (serving).
namespace cadrl {
namespace infer {

// Non-owning view of one fully connected layer. `bias` is null for
// bias-free layers (the history-mixing Linears).
struct LinearView {
  const float* weight = nullptr;  // (out, in) row-major
  const float* bias = nullptr;    // (out) or null
  int in = 0;
  int out = 0;
};

// Non-owning view of one LSTM cell. Gate layout in the fused matrices is
// [input, forget, cell, output], matching ag::LstmCell.
struct LstmView {
  const float* w_input = nullptr;   // (4*hidden, in)
  const float* w_hidden = nullptr;  // (4*hidden, hidden)
  const float* bias = nullptr;      // (4*hidden)
  int in = 0;
  int hidden = 0;
};

// Raw-buffer view of all SharedPolicyNetworks parameters + config.
struct PolicyParamsView {
  int dim = 0;
  int hidden = 0;
  bool share_history = true;
  bool condition_on_category = true;
  LstmView lstm_c;    // category-agent LSTM (input 2d)
  LstmView lstm_e;    // entity-agent LSTM (input 3d)
  LinearView mix_c;   // Eq 13 history mix (2h -> h, no bias)
  LinearView mix_e;   // Eq 14 history mix (2h -> h, no bias)
  LinearView head1_c, head2_c;  // Eq 15 category head
  LinearView head1_e, head2_e;  // Eq 16 entity head
};

// Joint recurrent state of both agents as plain float vectors (the
// tape-free analogue of SharedPolicyNetworks::RolloutState). Cheap to copy
// per beam element.
struct RawPolicyState {
  std::vector<float> cat_h, cat_c;
  std::vector<float> ent_h, ent_c;
};

// The half of one AdvanceRaw step that depends only on the parent state and
// the step's category (AdvanceSharedRaw). Beam children of one parent
// inherit the parent's next category, so they share all of it: both
// history mixes, the whole category-LSTM step and the entity LSTM's
// hidden-state product; only the entity LSTM's input product and gate
// tail differ per child (AdvanceChildRaw).
struct SharedAdvance {
  std::vector<float> cat_h, cat_c;  // the category agent's next state
  std::vector<float> ent_gh;        // entity LSTM W_h * hidden, 4*hidden
};

// Reusable per-call scratch buffers; one instance per beam search /
// thread. Keeping them out of the functions makes the steady state
// allocation-free once the vectors have grown to their working sizes.
struct PolicyScratch {
  std::vector<float> x;                    // concatenated LSTM input
  std::vector<float> zeros;                // zero prev-state / condition
  std::vector<float> gx, gh, gsum, gates;  // LSTM gate pipeline
  std::vector<float> ig, fg, cu, og;       // gate activations
  std::vector<float> ta, tb, tc;           // cell/hidden products
  std::vector<float> mixed_c, mixed_e;     // Eq 13-14 mixed hiddens
  std::vector<float> nh, nc;               // next h/c before commit
  std::vector<float> features, a1, r1, hid;  // head pipeline
  SharedAdvance shared;                    // AdvanceRaw's shared half
};

// Eq 12: seeds both agents from zero LSTM state with the episode's first
// inputs (user, initial category, self-loop relation, user entity). All
// input spans have length view.dim.
void InitialStateRaw(const PolicyParamsView& view, std::span<const float> user,
                     std::span<const float> cat0, std::span<const float> rel0,
                     std::span<const float> ent0, PolicyScratch* scratch,
                     RawPolicyState* state);

// Eqs 13-14: advances both histories after the step's moves, mixing the
// previous hidden outputs across agents when share_history is on. It is
// AdvanceSharedRaw followed by AdvanceChildRaw on the same state.
void AdvanceRaw(const PolicyParamsView& view, RawPolicyState* state,
                std::span<const float> user, std::span<const float> cat_emb,
                std::span<const float> rel_emb, std::span<const float> ent_emb,
                PolicyScratch* scratch);

// The parent-only half of AdvanceRaw: fills *shared from `parent` and the
// step's category embedding.
void AdvanceSharedRaw(const PolicyParamsView& view,
                      const RawPolicyState& parent,
                      std::span<const float> user,
                      std::span<const float> cat_emb, PolicyScratch* scratch,
                      SharedAdvance* shared);

// The per-child half: *child becomes `parent` advanced by the move
// (rel_emb, ent_emb), given the parent's `shared` half. The entity gates
// are summed (W_x x + W_h h) + b as in AdvanceRaw, so the result is
// byte-identical to it. `child` may be `parent`.
void AdvanceChildRaw(const PolicyParamsView& view, const SharedAdvance& shared,
                     const RawPolicyState& parent, std::span<const float> user,
                     std::span<const float> rel_emb,
                     std::span<const float> ent_emb, PolicyScratch* scratch,
                     RawPolicyState* child);

// Eq 15: logits of `num_actions` category actions against a pre-stacked
// (num_actions x d) action matrix. `out` has length num_actions.
void CategoryLogitsRaw(const PolicyParamsView& view,
                       const RawPolicyState& state,
                       std::span<const float> user,
                       std::span<const float> current_cat,
                       const float* action_matrix, int num_actions,
                       PolicyScratch* scratch, float* out);

// Eq 16 (+ category conditioning): logits of `num_actions` entity actions
// against a pre-stacked (num_actions x 2d) action matrix. `condition` may
// be empty (or conditioning disabled), in which case the zero condition of
// the tape path is used.
void EntityLogitsRaw(const PolicyParamsView& view, const RawPolicyState& state,
                     std::span<const float> current_ent,
                     std::span<const float> last_rel,
                     std::span<const float> condition,
                     const float* action_matrix, int num_actions,
                     PolicyScratch* scratch, float* out);

// Entity-action probabilities for conditions.size() category conditions at
// once, written row-major (conditions.size() x num_actions) into *probs.
// Row k is bit-identical to softmax(EntityLogitsRaw(..., condition_k)).
// `ent_h` is the entity agent's hidden state (length view.hidden).
void EntityProbsBatchRaw(const PolicyParamsView& view,
                         std::span<const float> ent_h,
                         std::span<const float> current_ent,
                         std::span<const float> last_rel,
                         const std::vector<std::span<const float>>& conditions,
                         const float* action_matrix, int num_actions,
                         std::vector<float>* probs);

}  // namespace infer
}  // namespace cadrl

#endif  // CADRL_INFER_POLICY_FORWARD_H_
