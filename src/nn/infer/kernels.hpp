// Internal kernel table for the inference engine.
//
// Both tables run the GEMVs through the same register-blocked kernel
// (nn/infer/blocked_gemv.hpp) over the column-block-major weights, each
// table compiling its own copy. Every entry takes a batch of n >= 1 rows;
// a one-row step is the n == 1 call.
//
// The scalar table reproduces the reference forward (nn/lstm.cpp +
// nn/dense.cpp + softmax_row) expression for expression: each output
// element keeps its per-element operation sequence (seed with bias, then
// `+= wx[token]`; accumulate `+= h[p] * w[p][j]` in ascending p; skip
// rows where h[p] == 0), so a batched step is bit-identical to n one-row
// steps and to NextActionModel::step_into — the determinism contract
// (WAL replay, hot swap, cross-session batching in the server) rides on
// this. Its activation and cell update are nn/gate_math.hpp's, which the
// reference cell and the trainer call too: libm's exp for the sigmoid and
// the repo's own tanh, equal to libm's tanhf on every float, run several
// vector lanes at a time.
//
// The avx2 table (nn/infer/engine_avx2.cpp, compiled with -mavx2 -mfma)
// is ULP-close to scalar, not bit-identical: its GEMV copy may contract
// to FMAs where the baseline build does not, and its gate nonlinearities
// and softmax use a vectorized exp approximation (only their scalar tails
// call libm's exp and the repo's tanh).
#pragma once

#include <cstddef>

namespace misuse::nn::infer {

struct PackedLstm;

struct Kernels {
  /// gates[i][0..4H) = bias + wx[tokens[i]] (unless kPadToken) + Wh^T h[i].
  void (*gates)(const PackedLstm& w, const float* const* h, const int* tokens,
                float* const* gates, std::size_t n);
  /// In-place gate nonlinearities + cell update (c, h advance), one row.
  void (*activate_update)(float* gates, std::size_t hidden, float* c, float* h);
  /// logits[i][0..V) = head_w h[i] + head_b.
  void (*head)(const PackedLstm& w, const float* const* h, float* const* logits,
               std::size_t n);
  /// Stable softmax logits -> probs (may alias), one row.
  void (*softmax)(const float* logits, std::size_t n, float* probs);
};

const Kernels* scalar_kernels();
/// nullptr when the tree is built without MISUSE_SIMD.
const Kernels* avx2_kernels();

}  // namespace misuse::nn::infer
