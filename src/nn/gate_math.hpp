// Shared LSTM gate nonlinearities and cell update, inlined into both the
// training-grade reference cell (nn/lstm.cpp) and the inference engine's
// scalar kernel (nn/infer/engine.cpp).
//
// The repo's headline guarantee is bit-identical determinism (WAL
// replay, hot swap, server-vs-offline equivalence), so the scalar
// inference path must reproduce the reference forward *exactly* — not
// just to the same formula, but to the same floating-point expression
// tree. Expressions like `f * c + i * g` are contraction-ambiguous (the
// compiler may fuse either multiply into an FMA); routing every consumer
// through these helpers guarantees both paths compile the identical
// expression and therefore round identically.
//
// The repo owns its tanh. gate_tanh (nn/gate_math.cpp) is a transcription
// of fdlibm's tanhf, the one glibc ships, and gate_tanh_span runs the same
// operation sequence in vector lanes, so the activation vectorizes
// without giving up bit identity: one out-of-line definition serves the
// reference cell, the trainer and every kernel table. That TU is compiled
// with -ffp-contract=off, because libm rounds each multiply and add on
// its own; with contraction on, ~150k of the 2^32 floats come out an ulp
// off. tests/test_lstm.cpp (GateMath) compares both forms with std::tanh
// bit for bit: a tier-1 sweep over every 1021st float plus every
// threshold and edge value, and a disabled test over all 2^32 floats.
// Equality with libm is what keeps the trained weights and committed
// goldens from before the port valid; identity among the repo's own
// paths holds by construction. exp (the sigmoid) stays libm's: glibc
// picks its expf variant by CPU at run time, so no single build could
// match it.
#pragma once

#include <cmath>
#include <cstddef>

namespace misuse::nn {

/// Logistic sigmoid, exactly as the reference gate activation computes it.
inline float gate_sigmoid(float x) { return 1.0f / (1.0f + std::exp(-x)); }

/// tanh(x), bit-identical to glibc's tanhf (fdlibm) on every float.
float gate_tanh(float x);

/// x[j] = gate_tanh(x[j]) for j < n, several lanes at a time.
void gate_tanh_span(float* x, std::size_t n);

/// In-place activation of one fused gate row g[0..4H): sigmoid on the
/// input/forget block, tanh on the candidate block, sigmoid on the
/// output block (gate layout [i | f | g | o], see nn/lstm.hpp).
inline void lstm_activate_gates(float* g, std::size_t hidden) {
  for (std::size_t j = 0; j < 2 * hidden; ++j) g[j] = gate_sigmoid(g[j]);
  gate_tanh_span(g + 2 * hidden, hidden);
  for (std::size_t j = 3 * hidden; j < 4 * hidden; ++j) g[j] = gate_sigmoid(g[j]);
}

/// Streaming cell update from one activated gate row: c = f*c + i*g,
/// h = o * tanh(c), the tanh taken in place in h.
inline void lstm_cell_update(const float* g, std::size_t hidden, float* c, float* h) {
  for (std::size_t j = 0; j < hidden; ++j) {
    const float i_g = g[j];
    const float f_g = g[hidden + j];
    const float g_g = g[2 * hidden + j];
    c[j] = f_g * c[j] + i_g * g_g;
    h[j] = c[j];
  }
  gate_tanh_span(h, hidden);
  for (std::size_t j = 0; j < hidden; ++j) h[j] = g[3 * hidden + j] * h[j];
}

}  // namespace misuse::nn
