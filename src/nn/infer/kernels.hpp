// Internal kernel table for the inference engine.
//
// The scalar table reproduces the reference forward (nn/lstm.cpp +
// nn/dense.cpp + softmax_row) expression-for-expression. Its *_batch
// entries are real fused kernels that load each weight row once per
// batch, but they keep every row's per-element operation sequence
// unchanged (seed with bias, then `+= wx[token]`; accumulate
// `+= h[p] * w[p][j]` in ascending p; skip rows where h[p] == 0), so a
// batched scalar step is bit-identical to the one-row kernels — the
// determinism contract (WAL replay, hot swap, cross-session batching in
// the server) rides on this.
//
// The avx2 table (nn/infer/engine_avx2.cpp, compiled with -mavx2 -mfma)
// is ULP-close to scalar, not bit-identical (vectorized exp
// approximation, FMA reassociation). Its kernels are register-blocked
// broadcast-FMA GEMVs over the same p-major weights; a one-row call is
// the batch kernel with n == 1.
#pragma once

#include <cstddef>

namespace misuse::nn::infer {

struct PackedLstm;

struct Kernels {
  /// gates[0..4H) = bias + wx[token] (token != kPadToken) + Wh^T h.
  void (*gates)(const PackedLstm& w, const float* h, int token, float* gates);
  /// In-place gate nonlinearities + cell update (c, h advance).
  void (*activate_update)(float* gates, std::size_t hidden, float* c, float* h);
  /// logits[0..V) = head_w h + head_b.
  void (*head)(const PackedLstm& w, const float* h, float* logits);
  /// Stable softmax logits -> probs (may alias).
  void (*softmax)(const float* logits, std::size_t n, float* probs);
  /// Fused batch variants over n >= 2 rows. The scalar ones are
  /// bit-identical to n one-row calls; the avx2 ones may re-associate
  /// for throughput but must stay inside the table's ULP envelope vs
  /// the scalar kernels.
  void (*gates_batch)(const PackedLstm& w, const float* const* h, const int* tokens,
                      float* const* gates, std::size_t n);
  void (*head_batch)(const PackedLstm& w, const float* const* h, float* const* logits,
                     std::size_t n);
};

const Kernels* scalar_kernels();
/// nullptr when the tree is built without MISUSE_SIMD.
const Kernels* avx2_kernels();

}  // namespace misuse::nn::infer
