#include "tensor/ops.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdint>
#include <optional>

#include "util/metrics.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

namespace misuse {

namespace {

// 2*m*n*k at which kAuto fans a GEMM out over the pool. Below this the
// dispatch overhead beats the win; the LSTM training matmuls at paper
// scale (batch x vocab x 4*hidden) sit comfortably above it.
constexpr std::size_t kGemmParallelFlops = std::size_t{1} << 20;

// Flop count below which GEMMs go unrecorded: the per-step monitor
// matmuls are tiny and hot, and even a clock read per call would eat the
// <5% overhead budget. Training-sized GEMMs all clear this bar.
constexpr std::size_t kGemmMetricsFlops = std::size_t{1} << 16;

// Accumulates gemm.calls / gemm.flops / gemm.nanos for large GEMMs.
class GemmMetricsScope {
 public:
  explicit GemmMetricsScope(std::size_t flops) : flops_(flops) {
    if (flops_ >= kGemmMetricsFlops && metrics_enabled()) timer_.emplace();
  }
  ~GemmMetricsScope() {
    if (!timer_) return;
    static Counter& calls = metrics().counter("gemm.calls");
    static Counter& flops = metrics().counter("gemm.flops");
    static Counter& nanos = metrics().counter("gemm.nanos");
    calls.inc();
    flops.inc(flops_);
    nanos.inc(static_cast<std::uint64_t>(timer_->seconds() * 1e9));
  }
  GemmMetricsScope(const GemmMetricsScope&) = delete;
  GemmMetricsScope& operator=(const GemmMetricsScope&) = delete;

 private:
  std::size_t flops_;
  std::optional<Timer> timer_;
};

bool use_parallel(GemmPolicy policy, std::size_t m, std::size_t n, std::size_t k) {
  switch (policy) {
    case GemmPolicy::kSerial:
      return false;
    case GemmPolicy::kParallel:
      return true;
    case GemmPolicy::kAuto:
      return m > 1 && 2 * m * n * k >= kGemmParallelFlops && global_thread_count() > 1;
  }
  return false;
}

// Partitions [0, m) into contiguous row blocks and runs `body(lo, hi)`
// for each block on the pool. Blocks are disjoint, so the kernels below
// write disjoint rows of C and stay race-free; each element keeps the
// serial accumulation order, so results are bit-identical to the serial
// path at any thread count.
template <typename Body>
void for_row_blocks(std::size_t m, const Body& body) {
  ThreadPool& pool = global_pool();
  const std::size_t blocks = std::max<std::size_t>(1, std::min(m, pool.size() * 4));
  const std::size_t rows_per_block = (m + blocks - 1) / blocks;
  pool.parallel_for(0, blocks, [&](std::size_t block) {
    const std::size_t lo = block * rows_per_block;
    const std::size_t hi = std::min(m, lo + rows_per_block);
    if (lo < hi) body(lo, hi);
  });
}

// C rows [row_begin, row_end) of C = alpha * A * B + beta * C.
void gemm_rows(float alpha, const Matrix& a, const Matrix& b, float beta, Matrix& c,
               std::size_t row_begin, std::size_t row_end) {
  const std::size_t k = a.cols();
  const std::size_t n = b.cols();
  // i-k-j loop order: the inner j loop streams both B's row k and C's row
  // i sequentially, which vectorizes well and keeps B in cache.
  for (std::size_t i = row_begin; i < row_end; ++i) {
    float* ci = c.data() + i * n;
    if (beta == 0.0f) {
      std::fill(ci, ci + n, 0.0f);
    } else if (beta != 1.0f) {
      for (std::size_t j = 0; j < n; ++j) ci[j] *= beta;
    }
    const float* ai = a.data() + i * k;
    for (std::size_t p = 0; p < k; ++p) {
      const float aip = alpha * ai[p];
      if (aip == 0.0f) continue;
      const float* bp = b.data() + p * n;
      for (std::size_t j = 0; j < n; ++j) ci[j] += aip * bp[j];
    }
  }
}

// C rows [row_begin, row_end) of C = alpha * A^T * B + beta * C with A
// stored (k x m). The p loop stays outermost within the block, so every
// C element sees the same p-ascending accumulation order as the serial
// whole-matrix kernel.
void gemm_at_b_rows(float alpha, const Matrix& a, const Matrix& b, float beta, Matrix& c,
                    std::size_t row_begin, std::size_t row_end) {
  const std::size_t k = a.rows();
  const std::size_t m = a.cols();
  const std::size_t n = b.cols();
  for (std::size_t i = row_begin; i < row_end; ++i) {
    float* ci = c.data() + i * n;
    if (beta == 0.0f) {
      std::fill(ci, ci + n, 0.0f);
    } else if (beta != 1.0f) {
      for (std::size_t j = 0; j < n; ++j) ci[j] *= beta;
    }
  }
  for (std::size_t p = 0; p < k; ++p) {
    const float* ap = a.data() + p * m;
    const float* bp = b.data() + p * n;
    for (std::size_t i = row_begin; i < row_end; ++i) {
      const float v = alpha * ap[i];
      if (v == 0.0f) continue;
      float* ci = c.data() + i * n;
      for (std::size_t j = 0; j < n; ++j) ci[j] += v * bp[j];
    }
  }
}

// C rows [row_begin, row_end) of C = alpha * A * B^T + beta * C with B
// stored (n x k).
void gemm_a_bt_rows(float alpha, const Matrix& a, const Matrix& b, float beta, Matrix& c,
                    std::size_t row_begin, std::size_t row_end) {
  const std::size_t k = a.cols();
  const std::size_t n = b.rows();
  for (std::size_t i = row_begin; i < row_end; ++i) {
    const float* ai = a.data() + i * k;
    float* ci = c.data() + i * n;
    for (std::size_t j = 0; j < n; ++j) {
      const float* bj = b.data() + j * k;
      float acc = 0.0f;
      for (std::size_t p = 0; p < k; ++p) acc += ai[p] * bj[p];
      ci[j] = alpha * acc + (beta == 0.0f ? 0.0f : beta * ci[j]);
    }
  }
}

}  // namespace

std::size_t gemm_parallel_threshold() { return kGemmParallelFlops; }

void gemm(float alpha, const Matrix& a, const Matrix& b, float beta, Matrix& c,
          GemmPolicy policy) {
  const std::size_t m = a.rows();
  const std::size_t k = a.cols();
  const std::size_t n = b.cols();
  assert(b.rows() == k);
  assert(c.rows() == m && c.cols() == n);
  GemmMetricsScope gemm_metrics(2 * m * n * k);
  if (use_parallel(policy, m, n, k)) {
    for_row_blocks(m, [&](std::size_t lo, std::size_t hi) {
      gemm_rows(alpha, a, b, beta, c, lo, hi);
    });
  } else {
    gemm_rows(alpha, a, b, beta, c, 0, m);
  }
}

void gemm_at_b(float alpha, const Matrix& a, const Matrix& b, float beta, Matrix& c,
               GemmPolicy policy) {
  // C(m x n) = alpha * A^T * B + beta * C with A stored (k x m).
  const std::size_t k = a.rows();
  const std::size_t m = a.cols();
  const std::size_t n = b.cols();
  assert(b.rows() == k);
  assert(c.rows() == m && c.cols() == n);
  GemmMetricsScope gemm_metrics(2 * m * n * k);
  if (use_parallel(policy, m, n, k)) {
    for_row_blocks(m, [&](std::size_t lo, std::size_t hi) {
      gemm_at_b_rows(alpha, a, b, beta, c, lo, hi);
    });
  } else {
    gemm_at_b_rows(alpha, a, b, beta, c, 0, m);
  }
}

void gemm_a_bt(float alpha, const Matrix& a, const Matrix& b, float beta, Matrix& c,
               GemmPolicy policy) {
  // C(m x n) = alpha * A(m x k) * B(n x k)^T + beta * C.
  const std::size_t m = a.rows();
  const std::size_t k = a.cols();
  const std::size_t n = b.rows();
  assert(b.cols() == k);
  assert(c.rows() == m && c.cols() == n);
  GemmMetricsScope gemm_metrics(2 * m * n * k);
  if (use_parallel(policy, m, n, k)) {
    for_row_blocks(m, [&](std::size_t lo, std::size_t hi) {
      gemm_a_bt_rows(alpha, a, b, beta, c, lo, hi);
    });
  } else {
    gemm_a_bt_rows(alpha, a, b, beta, c, 0, m);
  }
}

void axpy(float alpha, std::span<const float> x, std::span<float> y) {
  assert(x.size() == y.size());
  for (std::size_t i = 0; i < x.size(); ++i) y[i] += alpha * x[i];
}

void scale(std::span<float> x, float alpha) {
  for (auto& v : x) v *= alpha;
}

void add_row_broadcast(Matrix& m, std::span<const float> bias) {
  assert(bias.size() == m.cols());
  for (std::size_t r = 0; r < m.rows(); ++r) {
    float* row = m.data() + r * m.cols();
    for (std::size_t c = 0; c < m.cols(); ++c) row[c] += bias[c];
  }
}

void sum_rows(const Matrix& m, std::span<float> out) {
  assert(out.size() == m.cols());
  std::fill(out.begin(), out.end(), 0.0f);
  for (std::size_t r = 0; r < m.rows(); ++r) {
    const float* row = m.data() + r * m.cols();
    for (std::size_t c = 0; c < m.cols(); ++c) out[c] += row[c];
  }
}

void softmax_rows(Matrix& m) {
  for (std::size_t r = 0; r < m.rows(); ++r) {
    auto row = m.row(r);
    (void)softmax_row(row, row);
  }
}

void log_softmax(std::span<const float> logits, std::span<float> out) {
  assert(logits.size() == out.size());
  assert(!logits.empty());
  const float mx = *std::max_element(logits.begin(), logits.end());
  float sum = 0.0f;
  for (float v : logits) sum += exp_float(v - mx);
  const float log_z = mx + std::log(sum);
  for (std::size_t i = 0; i < logits.size(); ++i) out[i] = logits[i] - log_z;
}

std::size_t argmax(std::span<const float> xs) {
  assert(!xs.empty());
  return static_cast<std::size_t>(std::max_element(xs.begin(), xs.end()) - xs.begin());
}

float dot(std::span<const float> a, std::span<const float> b) {
  assert(a.size() == b.size());
  float acc = 0.0f;
  for (std::size_t i = 0; i < a.size(); ++i) acc += a[i] * b[i];
  return acc;
}

float squared_norm(std::span<const float> xs) { return dot(xs, xs); }

void tanh_inplace(std::span<float> xs) {
  for (auto& v : xs) v = std::tanh(v);
}

void sigmoid_inplace(std::span<float> xs) { sigmoid_span(xs.data(), xs.size()); }

}  // namespace misuse
