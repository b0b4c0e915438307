#include "nn/infer/engine.hpp"

#include <algorithm>
#include <cassert>

#include "nn/infer/kernels.hpp"
#include "nn/gate_math.hpp"
#include "nn/lstm.hpp"
#include "nn/next_action_model.hpp"
#include "tensor/ops.hpp"

namespace misuse::nn::infer {

namespace {

// --- Scalar kernel table ---------------------------------------------------
//
// Bit-identity contract: the scalar float kernels must produce exactly
// the bits of the reference forward (compute_gates / Dense::infer in
// nn/). That requires more than the same math — it requires the same
// LOOP SHAPE, because the compiler contracts a j-inner accumulation
// (`row[j] += hp * wrow[j]`, what gemm_rows compiles to) into per-element
// FMAs, while a transposed dot reduction (`acc += h[p] * wt[p]`) keeps
// mul and add as separate roundings. So the float kernels below replay
// gemm_rows' exact iteration order on the REFERENCE weight layouts
// (wh: H x 4H, head_w: H x V): seed with bias (+ the token's wx row),
// then per p ascending skip h[p] == 0.0f and accumulate h[p] * row into
// the output row. Identical expression shape on both sides means the
// compiler makes the same contraction choice for both, whatever the
// flags. The nonlinearities/cell update are the same inline helpers
// (nn/gate_math.hpp) the reference compiles.

void scalar_gates(const PackedLstm& w, const float* h, int token, float* gates) {
  const std::size_t hidden = w.hidden;
  const std::size_t g4 = 4 * hidden;
  const float* bias = w.bias.data();
  for (std::size_t j = 0; j < g4; ++j) gates[j] = bias[j];
  if (token != kPadToken) {
    assert(token >= 0 && static_cast<std::size_t>(token) < w.vocab);
    const float* wxrow = w.wx.data() + static_cast<std::size_t>(token) * g4;
    for (std::size_t j = 0; j < g4; ++j) gates[j] += wxrow[j];
  }
  for (std::size_t p = 0; p < hidden; ++p) {
    const float hp = h[p];
    if (hp == 0.0f) continue;  // matches gemm_rows' zero-skip
    const float* wrow = w.wh.data() + p * g4;
    for (std::size_t j = 0; j < g4; ++j) gates[j] += hp * wrow[j];
  }
}

// Batch twins of scalar_gates / scalar_head. Each weight row is loaded
// once per (p, column tile) and applied to every batch row while it is
// hot, instead of once per row; the weight stream is what bounds a
// one-row step at paper shape (H = 256: 1 MB of wh per cluster). Every
// output element still sees exactly the one-row kernel's operation
// sequence — the same seed, then `+= h[p] * w[p][j]` in ascending p with
// h[p] == 0 rows skipped — and tiling j only changes which elements are
// in flight, never the order of operations on one of them. So batch ==
// one-row bitwise, row by row.
constexpr std::size_t kScalarTile = 256;  // columns per tile: 1 KB of a gate row

void scalar_gates_batch(const PackedLstm& w, const float* const* h, const int* tokens,
                        float* const* gates, std::size_t n) {
  const std::size_t hidden = w.hidden;
  const std::size_t g4 = 4 * hidden;
  const float* bias = w.bias.data();
  for (std::size_t i = 0; i < n; ++i) {
    float* g = gates[i];
    for (std::size_t j = 0; j < g4; ++j) g[j] = bias[j];
    if (tokens[i] != kPadToken) {
      assert(tokens[i] >= 0 && static_cast<std::size_t>(tokens[i]) < w.vocab);
      const float* wxrow = w.wx.data() + static_cast<std::size_t>(tokens[i]) * g4;
      for (std::size_t j = 0; j < g4; ++j) g[j] += wxrow[j];
    }
  }
  for (std::size_t j0 = 0; j0 < g4; j0 += kScalarTile) {
    const std::size_t j1 = std::min(g4, j0 + kScalarTile);
    for (std::size_t p = 0; p < hidden; ++p) {
      const float* wrow = w.wh.data() + p * g4;
      for (std::size_t i = 0; i < n; ++i) {
        const float hp = h[i][p];
        if (hp == 0.0f) continue;
        float* g = gates[i];
        for (std::size_t j = j0; j < j1; ++j) g[j] += hp * wrow[j];
      }
    }
  }
}

void scalar_head_batch(const PackedLstm& w, const float* const* h, float* const* logits,
                       std::size_t n) {
  const std::size_t hidden = w.hidden;
  const std::size_t v = w.head_out;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < v; ++j) logits[i][j] = 0.0f;
  }
  for (std::size_t j0 = 0; j0 < v; j0 += kScalarTile) {
    const std::size_t j1 = std::min(v, j0 + kScalarTile);
    for (std::size_t p = 0; p < hidden; ++p) {
      const float* wrow = w.head_w.data() + p * v;
      for (std::size_t i = 0; i < n; ++i) {
        const float hp = h[i][p];
        if (hp == 0.0f) continue;
        float* out = logits[i];
        for (std::size_t j = j0; j < j1; ++j) out[j] += hp * wrow[j];
      }
    }
  }
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < v; ++j) logits[i][j] += w.head_b[j];
  }
}

void scalar_activate_update(float* gates, std::size_t hidden, float* c, float* h) {
  lstm_activate_gates(gates, hidden);
  lstm_cell_update(gates, hidden, c, h);
}

void scalar_head(const PackedLstm& w, const float* h, float* logits) {
  const std::size_t hidden = w.hidden;
  const std::size_t n = w.head_out;
  for (std::size_t j = 0; j < n; ++j) logits[j] = 0.0f;  // Dense::infer gemm has beta == 0
  for (std::size_t p = 0; p < hidden; ++p) {
    const float hp = h[p];
    if (hp == 0.0f) continue;
    const float* wrow = w.head_w.data() + p * n;
    for (std::size_t j = 0; j < n; ++j) logits[j] += hp * wrow[j];
  }
  // Bias lands AFTER the full accumulation, as add_row_broadcast does.
  for (std::size_t j = 0; j < n; ++j) logits[j] += w.head_b[j];
}

void scalar_softmax(const float* logits, std::size_t n, float* probs) {
  (void)softmax_row(std::span<const float>(logits, n), std::span<float>(probs, n));
}

const Kernels* select_kernels() {
  if (effective_infer_mode() == InferMode::kAvx2) {
    if (const Kernels* k = avx2_kernels(); k != nullptr) return k;
  }
  return scalar_kernels();
}

}  // namespace

const Kernels* scalar_kernels() {
  static const Kernels kernels = {
      &scalar_gates,   &scalar_activate_update, &scalar_head,
      &scalar_softmax, &scalar_gates_batch,     &scalar_head_batch,
  };
  return &kernels;
}

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
  const Kernels* k = select_kernels();
  scratch.gates.resize(4 * packed_.hidden);
  probs.resize(packed_.head_out);
  float* gates = scratch.gates.data();
  k->gates(packed_, state.h.data(), action, gates);
  k->activate_update(gates, packed_.hidden, state.c.data(), state.h.data());
  k->head(packed_, state.h.data(), probs.data());
  k->softmax(probs.data(), packed_.head_out, probs.data());
}

void LstmInferEngine::step_batch(std::span<EngineState* const> states, std::span<const int> actions,
                                 std::span<std::vector<float>* const> probs,
                                 EngineScratch& scratch, bool defer_heads) const {
  assert(states.size() == actions.size() && states.size() == probs.size());
  const std::size_t n = states.size();
  if (n == 0) return;
  const Kernels* k = select_kernels();
  // One row takes the one-row kernels (so a batch of one is exactly
  // step() on every table); more rows take the fused batch kernels,
  // which reuse each weight row across the batch.
  const std::size_t hidden = packed_.hidden;
  const std::size_t g4 = 4 * hidden;
  scratch.gates.resize(n * g4);
  scratch.h_rows.resize(n);
  scratch.gate_rows.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    scratch.h_rows[i] = states[i]->h.data();
    scratch.gate_rows[i] = scratch.gates.data() + i * g4;
  }
  if (n == 1) {
    k->gates(packed_, scratch.h_rows[0], actions[0], scratch.gate_rows[0]);
  } else {
    k->gates_batch(packed_, scratch.h_rows.data(), actions.data(), scratch.gate_rows.data(), n);
  }
  for (std::size_t i = 0; i < n; ++i) {
    k->activate_update(scratch.gate_rows[i], hidden, states[i]->c.data(), states[i]->h.data());
  }
  if (defer_heads) return;
  scratch.logit_rows.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    probs[i]->resize(packed_.head_out);
    scratch.logit_rows[i] = probs[i]->data();
  }
  // h advanced in place above; h_rows still point at the live storage.
  if (n == 1) {
    k->head(packed_, scratch.h_rows[0], scratch.logit_rows[0]);
  } else {
    k->head_batch(packed_, scratch.h_rows.data(), scratch.logit_rows.data(), n);
  }
  for (std::size_t i = 0; i < n; ++i) {
    k->softmax(scratch.logit_rows[i], packed_.head_out, scratch.logit_rows[i]);
  }
}

void LstmInferEngine::finish_probs(const EngineState& state, std::vector<float>& probs) const {
  const Kernels* k = select_kernels();
  probs.resize(packed_.head_out);
  k->head(packed_, state.h.data(), probs.data());
  k->softmax(probs.data(), packed_.head_out, probs.data());
}

}  // namespace misuse::nn::infer
