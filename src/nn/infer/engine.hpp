// Inference-only LSTM forward for the paper architecture (one token-input
// LSTM layer + dense softmax head — the shape every trained detector
// cluster uses). Weights are packed once at detector-load time, the GEMV
// operands column-block-major (nn/infer/packed.hpp); per-step scoring
// then runs allocation-free; its GEMVs keep a register tile of several
// batch rows across the whole hidden loop (nn/infer/blocked_gemv.hpp).
//
// Contract: step() and step_batch() (one fused call over all rows,
// deferred heads recovered by finish_probs) are bit-identical to
// NextActionModel::step_into on the same weights and state — proven by
// tests/test_infer.cpp — so every determinism guarantee (WAL replay, hot
// swap, server-vs-offline, cross-session batches) survives the fast
// path.
#pragma once

#include <algorithm>
#include <cstddef>
#include <memory>
#include <span>
#include <vector>

#include "nn/infer/packed.hpp"

namespace misuse::nn {
class NextActionModel;
}

namespace misuse::nn::infer {

/// Streaming state of one session on the engine (h and c, length H).
struct EngineState {
  std::vector<float> h;
  std::vector<float> c;
  void reset() {
    std::fill(h.begin(), h.end(), 0.0f);
    std::fill(c.begin(), c.end(), 0.0f);
  }
};

/// Reusable per-caller scratch.
struct EngineScratch {
  std::vector<float> gates;
  // Batch staging: row pointers into states, the shared gates buffer,
  // and the callers' probability vectors.
  std::vector<float*> h_rows;
  std::vector<float*> gate_rows;
  std::vector<float*> logit_rows;
};

class LstmInferEngine {
 public:
  /// Packs the model's weights; returns null when the model is outside
  /// the supported shape (stacked layers, embeddings, or a non-LSTM
  /// cell score through NextActionModel::step_into instead).
  static std::unique_ptr<LstmInferEngine> build(const NextActionModel& model);

  std::size_t vocab() const { return packed_.vocab; }
  std::size_t hidden() const { return packed_.hidden; }

  EngineState make_state() const;

  /// Advances one session by one action; writes the softmax'd
  /// next-action distribution into probs (resized to vocab).
  void step(EngineState& state, int action, std::vector<float>& probs,
            EngineScratch& scratch) const;

  /// Batched variant: states[i] advances on actions[i] into *probs[i].
  /// All rows run through one fused kernel call per layer; the result
  /// is bit-identical to n calls of step() in order. step() is this with
  /// n == 1.
  ///
  /// With defer_heads (n == 1 included) the states advance but the head
  /// + softmax is skipped (most batch consumers only ever read one or
  /// two clusters' distributions; see OnlineMonitor): the probs vectors
  /// are left untouched — recover any row later with finish_probs.
  void step_batch(std::span<EngineState* const> states, std::span<const int> actions,
                  std::span<std::vector<float>* const> probs, EngineScratch& scratch,
                  bool defer_heads = false) const;

  /// Head + softmax only, from the state's current h (i.e. the
  /// distribution the last step() / step_batch() advance implies). This
  /// is the exact tail of step(), so a deferred batch step +
  /// finish_probs stays bit-identical to the eager step.
  void finish_probs(const EngineState& state, std::vector<float>& probs) const;

 private:
  explicit LstmInferEngine(PackedLstm packed) : packed_(std::move(packed)) {}

  PackedLstm packed_;
};

}  // namespace misuse::nn::infer
