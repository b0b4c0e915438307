// The repo's own float exp, used wherever a model layer exponentiates:
// the LSTM sigmoid gates (nn/gate_math.hpp), the softmax of every
// next-action distribution (softmax_row), log_softmax and the GRU's
// sigmoid (tensor/ops.cpp).
//
// exp_float transcribes glibc 2.36's expf as glibc runs it on CPUs with
// FMA and AVX2 (its __expf_fma variant): a double-precision evaluation
// with a 32-entry table of 2^(i/32), four fused multiply-adds and one
// rounding to float. glibc picks its expf variant by CPU at run time, so
// calling libm would make a verdict depend on the host; this one returns
// the same bits on every CPU and build. exp_span and sigmoid_span run the
// same operation sequence in vector lanes, so they equal the scalar form
// element for element. tests/test_lstm.cpp (GateMath) compares all three
// with std::exp bit for bit; on an FMA+AVX2 CPU, where glibc runs the
// variant transcribed here, that holds for every float.
#pragma once

#include <cstddef>

namespace misuse {

/// exp(x), bit-identical to glibc 2.36's expf on an FMA+AVX2 CPU.
float exp_float(float x);

/// x[j] = exp_float(x[j]) for j < n, several lanes at a time.
void exp_span(float* x, std::size_t n);

/// x[j] = 1.0f / (1.0f + exp_float(-x[j])) for j < n, several lanes at a
/// time: the logistic sigmoid of the LSTM and GRU gates.
void sigmoid_span(float* x, std::size_t n);

}  // namespace misuse
