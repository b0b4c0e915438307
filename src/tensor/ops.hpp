// Matrix/vector kernels. GEMM dominates LSTM training time, so it is
// register-blocked over the K loop with the B operand walked row-wise for
// cache-friendly access; everything else is straightforward.
//
// Large GEMMs are additionally row-partitioned over the global thread
// pool: each task owns a contiguous block of C's rows, and every element
// of C is accumulated in exactly the serial loop order, so the parallel
// kernels are bit-identical to the serial ones (0 ULP) at any thread
// count.
#pragma once

#include <algorithm>
#include <cmath>
#include <span>

#include "tensor/exp.hpp"
#include "tensor/matrix.hpp"

namespace misuse {

/// Log-partition pieces of one softmax row: (max, log(sum exp(shifted))).
/// The cross-entropy loss is -(logit[target] - max - log_sum).
struct RowSoftmax {
  float max;
  float log_sum;
};

/// Numerically stable softmax of `logits_row` into `probs_row` (aliasing
/// the two spans is fine — each element is read before it is written).
/// The sum is accumulated in double so the normalizer doesn't lose bits
/// on wide rows; the exp is the repo's own (tensor/exp.hpp). Every
/// consumer of a softmax'd distribution (training loss,
/// NextActionModel::step, the inference engine) shares this one
/// definition so their outputs stay bit-identical to each other.
inline RowSoftmax softmax_row(std::span<const float> logits_row, std::span<float> probs_row) {
  const float mx = *std::max_element(logits_row.begin(), logits_row.end());
  for (std::size_t j = 0; j < logits_row.size(); ++j) probs_row[j] = logits_row[j] - mx;
  exp_span(probs_row.data(), probs_row.size());
  double sum = 0.0;
  for (const float e : probs_row) sum += e;
  const float inv = static_cast<float>(1.0 / sum);
  for (auto& p : probs_row) p *= inv;
  return {mx, static_cast<float>(std::log(sum))};
}

/// Execution policy of the GEMM kernels. kAuto parallelizes across the
/// global pool when the flop count clears gemm_parallel_threshold() and
/// more than one lane is available; kSerial / kParallel force a path
/// (used by tests and benchmarks to pin the comparison).
enum class GemmPolicy { kAuto, kSerial, kParallel };

/// 2*m*n*k flop count at or above which kAuto goes parallel.
std::size_t gemm_parallel_threshold();

/// C = alpha * A(m x k) * B(k x n) + beta * C(m x n).
void gemm(float alpha, const Matrix& a, const Matrix& b, float beta, Matrix& c,
          GemmPolicy policy = GemmPolicy::kAuto);

/// C = alpha * A^T(m x k; stored k x m... ) — explicit variants so callers
/// never materialize transposes on the hot path:
/// C(m x n) += alpha * A(k x m)^T * B(k x n) + beta * C  (used for weight grads)
void gemm_at_b(float alpha, const Matrix& a, const Matrix& b, float beta, Matrix& c,
               GemmPolicy policy = GemmPolicy::kAuto);
/// C(m x n) = alpha * A(m x k) * B(n x k)^T + beta * C   (used for input grads)
void gemm_a_bt(float alpha, const Matrix& a, const Matrix& b, float beta, Matrix& c,
               GemmPolicy policy = GemmPolicy::kAuto);

/// y = alpha * x + y over equal-length spans.
void axpy(float alpha, std::span<const float> x, std::span<float> y);

/// Elementwise in-place scale.
void scale(std::span<float> x, float alpha);

/// Adds a row vector (bias) to every row of m.
void add_row_broadcast(Matrix& m, std::span<const float> bias);

/// Sums the rows of m into out (length m.cols()); used for bias grads.
void sum_rows(const Matrix& m, std::span<float> out);

/// Numerically stable in-place softmax over each row.
void softmax_rows(Matrix& m);

/// Stable log-softmax of a single row into out.
void log_softmax(std::span<const float> logits, std::span<float> out);

std::size_t argmax(std::span<const float> xs);

float dot(std::span<const float> a, std::span<const float> b);

/// Squared L2 norm.
float squared_norm(std::span<const float> xs);

/// Elementwise tanh / sigmoid, in place.
void tanh_inplace(std::span<float> xs);
void sigmoid_inplace(std::span<float> xs);

}  // namespace misuse
