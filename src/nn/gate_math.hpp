// Shared LSTM gate nonlinearities and cell update, inlined into both the
// training-grade reference cell (nn/lstm.cpp) and the inference engine
// (nn/infer/engine.cpp).
//
// The repo's headline guarantee is bit-identical determinism (WAL
// replay, hot swap, server-vs-offline equivalence), so the inference
// path must reproduce the reference forward *exactly* — not
// just to the same formula, but to the same floating-point expression
// tree. Expressions like `f * c + i * g` are contraction-ambiguous (the
// compiler may fuse either multiply into an FMA); routing every consumer
// through these helpers guarantees both paths compile the identical
// expression and therefore round identically.
//
// The repo owns both activations, so the gates round the same way on
// every CPU and build. gate_tanh (nn/gate_math.cpp) is a transcription of
// fdlibm's tanhf, the one glibc ships; the sigmoid's exp is
// tensor/exp.hpp's, a transcription of glibc 2.36's expf as it runs on
// FMA+AVX2 CPUs. gate_tanh_span and sigmoid_span run the same operation
// sequences in vector lanes, so the activations vectorize without giving
// up bit identity: one out-of-line definition of each serves the
// reference cell, the trainer and the inference engine. Both TUs are
// compiled with -ffp-contract=off, so each multiply and add rounds as in
// the libm code they transcribe. tests/test_lstm.cpp (GateMath) compares
// both with libm bit for bit: a tier-1 sweep over every 1021st float plus
// every threshold and edge value, and disabled tests over all 2^32
// floats. Equality with libm is what keeps the trained weights and
// committed goldens from before the port valid; identity among the
// repo's own paths holds by construction.
#pragma once

#include <cstddef>

#include "tensor/exp.hpp"

namespace misuse::nn {

/// tanh(x), bit-identical to glibc's tanhf (fdlibm) on every float.
float gate_tanh(float x);

/// x[j] = gate_tanh(x[j]) for j < n, several lanes at a time.
void gate_tanh_span(float* x, std::size_t n);

/// In-place activation of one fused gate row g[0..4H): sigmoid on the
/// input/forget block, tanh on the candidate block, sigmoid on the
/// output block (gate layout [i | f | g | o], see nn/lstm.hpp).
inline void lstm_activate_gates(float* g, std::size_t hidden) {
  sigmoid_span(g, 2 * hidden);
  gate_tanh_span(g + 2 * hidden, hidden);
  sigmoid_span(g + 3 * hidden, hidden);
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
