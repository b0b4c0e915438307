#include "nn/infer/engine.hpp"

#include <algorithm>
#include <cassert>

#include "nn/infer/blocked_gemv.hpp"
#include "nn/gate_math.hpp"
#include "nn/lstm.hpp"
#include "nn/next_action_model.hpp"
#include "tensor/ops.hpp"

namespace misuse::nn::infer {

// Bit-identity contract: every step must produce exactly the bits of the
// reference forward (compute_gates / Dense::infer in nn/). The GEMVs are
// blocked_gates / blocked_head (nn/infer/blocked_gemv.hpp), which keep
// gemm_rows' per-element operation sequence and expression shape, so the
// compiler makes the same contraction choice for both whatever the
// flags. The nonlinearities, the cell update and the softmax are the
// helpers the reference cell and the trainer call too
// (nn/gate_math.hpp, softmax_row).

std::unique_ptr<LstmInferEngine> LstmInferEngine::build(const NextActionModel& model) {
  const ModelConfig& config = model.config();
  if (config.layers != 1 || config.embedding_dim != 0 || config.cell != CellKind::kLstm ||
      model.layer_count() != 1 || model.has_embedding()) {
    return nullptr;
  }
  const auto* cell = dynamic_cast<const Lstm*>(&model.layer(0));
  if (cell == nullptr) return nullptr;
  return std::unique_ptr<LstmInferEngine>(new LstmInferEngine(pack_lstm(*cell, model.head())));
}

EngineState LstmInferEngine::make_state() const {
  EngineState state;
  state.h.assign(packed_.hidden, 0.0f);
  state.c.assign(packed_.hidden, 0.0f);
  return state;
}

void LstmInferEngine::step(EngineState& state, int action, std::vector<float>& probs,
                           EngineScratch& scratch) const {
  EngineState* row = &state;
  std::vector<float>* out = &probs;
  step_batch(std::span<EngineState* const>(&row, 1), std::span<const int>(&action, 1),
             std::span<std::vector<float>* const>(&out, 1), scratch);
}

void LstmInferEngine::step_batch(std::span<EngineState* const> states, std::span<const int> actions,
                                 std::span<std::vector<float>* const> probs,
                                 EngineScratch& scratch, bool defer_heads) const {
  assert(states.size() == actions.size() && states.size() == probs.size());
  const std::size_t n = states.size();
  if (n == 0) return;
  const std::size_t hidden = packed_.hidden;
  const std::size_t g4 = 4 * hidden;
  scratch.gates.resize(n * g4);
  scratch.h_rows.resize(n);
  scratch.gate_rows.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    scratch.h_rows[i] = states[i]->h.data();
    scratch.gate_rows[i] = scratch.gates.data() + i * g4;
  }
  blocked_gates(packed_, scratch.h_rows.data(), actions.data(), scratch.gate_rows.data(), n);
  for (std::size_t i = 0; i < n; ++i) {
    lstm_activate_gates(scratch.gate_rows[i], hidden);
    lstm_cell_update(scratch.gate_rows[i], hidden, states[i]->c.data(), states[i]->h.data());
  }
  if (defer_heads) return;
  scratch.logit_rows.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    probs[i]->resize(packed_.head_out);
    scratch.logit_rows[i] = probs[i]->data();
  }
  // h advanced in place above; h_rows still point at the live storage.
  blocked_head(packed_, scratch.h_rows.data(), scratch.logit_rows.data(), n);
  for (std::size_t i = 0; i < n; ++i) (void)softmax_row(*probs[i], *probs[i]);
}

void LstmInferEngine::finish_probs(const EngineState& state, std::vector<float>& probs) const {
  probs.resize(packed_.head_out);
  const float* h = state.h.data();
  float* logits = probs.data();
  blocked_head(packed_, &h, &logits, 1);
  (void)softmax_row(probs, probs);
}

}  // namespace misuse::nn::infer
