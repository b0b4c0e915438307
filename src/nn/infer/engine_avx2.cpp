// AVX2/FMA kernel table for the inference engine. This TU is the only
// one compiled with -mavx2 -mfma (see src/nn/CMakeLists.txt,
// MISUSE_SIMD); everything it exports is reached through the runtime
// dispatch in nn/infer/dispatch.cpp, which checks CPU support first.
//
// The GEMVs are this TU's own copy of the register-blocked kernel
// (nn/infer/blocked_gemv.hpp), compiled for AVX2+FMA, so they may
// contract to FMAs where the baseline build does not. What the table adds
// is a vectorized gate activation and softmax on an exp polynomial
// (Cephes-style, as in avx_mathfun) in place of libm's exp and the repo's
// exact tanh (nn/gate_math.hpp), which only the scalar tails call. These
// are ULP-close to the scalar table, not bit-identical;
// tests/test_infer.cpp pins the divergence with a per-step ULP bound.
#include "nn/infer/kernels.hpp"

#if defined(MISUSEDET_HAVE_AVX2)

#include <immintrin.h>

#include <cmath>
#include <span>

#include "nn/gate_math.hpp"
#include "nn/infer/blocked_gemv.hpp"
#include "tensor/ops.hpp"

namespace misuse::nn::infer {

namespace {

// Vectorized exp (Cephes expf port, as in avx_mathfun): range-reduced
// polynomial, ~1 ulp relative error inside the clamp range.
inline __m256 exp256(__m256 x) {
  const __m256 hi = _mm256_set1_ps(88.3762626647949f);
  const __m256 lo = _mm256_set1_ps(-88.3762626647949f);
  const __m256 log2e = _mm256_set1_ps(1.44269504088896341f);
  const __m256 c1 = _mm256_set1_ps(0.693359375f);
  const __m256 c2 = _mm256_set1_ps(-2.12194440e-4f);
  const __m256 one = _mm256_set1_ps(1.0f);
  x = _mm256_max_ps(_mm256_min_ps(x, hi), lo);
  __m256 fx = _mm256_fmadd_ps(x, log2e, _mm256_set1_ps(0.5f));
  fx = _mm256_floor_ps(fx);
  x = _mm256_fnmadd_ps(fx, c1, x);
  x = _mm256_fnmadd_ps(fx, c2, x);
  const __m256 z = _mm256_mul_ps(x, x);
  __m256 y = _mm256_set1_ps(1.9875691500e-4f);
  y = _mm256_fmadd_ps(y, x, _mm256_set1_ps(1.3981999507e-3f));
  y = _mm256_fmadd_ps(y, x, _mm256_set1_ps(8.3334519073e-3f));
  y = _mm256_fmadd_ps(y, x, _mm256_set1_ps(4.1665795894e-2f));
  y = _mm256_fmadd_ps(y, x, _mm256_set1_ps(1.6666665459e-1f));
  y = _mm256_fmadd_ps(y, x, _mm256_set1_ps(5.0000001201e-1f));
  y = _mm256_fmadd_ps(y, z, _mm256_add_ps(x, one));
  __m256i pow2 = _mm256_cvttps_epi32(fx);
  pow2 = _mm256_add_epi32(pow2, _mm256_set1_epi32(0x7f));
  pow2 = _mm256_slli_epi32(pow2, 23);
  return _mm256_mul_ps(y, _mm256_castsi256_ps(pow2));
}

inline __m256 sigmoid256(__m256 x) {
  const __m256 one = _mm256_set1_ps(1.0f);
  const __m256 e = exp256(_mm256_sub_ps(_mm256_setzero_ps(), x));
  return _mm256_div_ps(one, _mm256_add_ps(one, e));
}

inline __m256 tanh256(__m256 x) {
  // tanh(x) = (e^{2x} - 1) / (e^{2x} + 1); exp's clamp keeps the ratio
  // finite and saturating at +/-1.
  const __m256 one = _mm256_set1_ps(1.0f);
  const __m256 e2x = exp256(_mm256_add_ps(x, x));
  return _mm256_div_ps(_mm256_sub_ps(e2x, one), _mm256_add_ps(e2x, one));
}

void avx2_activate_update(float* gates, std::size_t hidden, float* c, float* h) {
  // Gate layout [i | f | g | o]: sigmoid on [0, 2H) and [3H, 4H), tanh on
  // [2H, 3H). Scalar tails (libm exp, the repo's tanh) keep
  // non-multiple-of-8 widths exact.
  const auto sigmoid_span = [](float* x, std::size_t n) {
    std::size_t j = 0;
    for (; j + 8 <= n; j += 8) _mm256_storeu_ps(x + j, sigmoid256(_mm256_loadu_ps(x + j)));
    for (; j < n; ++j) x[j] = gate_sigmoid(x[j]);
  };
  sigmoid_span(gates, 2 * hidden);
  std::size_t j = 0;
  float* gblock = gates + 2 * hidden;
  for (; j + 8 <= hidden; j += 8) {
    _mm256_storeu_ps(gblock + j, tanh256(_mm256_loadu_ps(gblock + j)));
  }
  for (; j < hidden; ++j) gblock[j] = gate_tanh(gblock[j]);
  sigmoid_span(gates + 3 * hidden, hidden);

  // c = f*c + i*g; h = o * tanh(c).
  const float* ig = gates;
  const float* fg = gates + hidden;
  const float* gg = gates + 2 * hidden;
  const float* og = gates + 3 * hidden;
  j = 0;
  for (; j + 8 <= hidden; j += 8) {
    const __m256 cv = _mm256_fmadd_ps(_mm256_loadu_ps(fg + j), _mm256_loadu_ps(c + j),
                                      _mm256_mul_ps(_mm256_loadu_ps(ig + j),
                                                    _mm256_loadu_ps(gg + j)));
    _mm256_storeu_ps(c + j, cv);
    _mm256_storeu_ps(h + j, _mm256_mul_ps(_mm256_loadu_ps(og + j), tanh256(cv)));
  }
  for (; j < hidden; ++j) {
    c[j] = fg[j] * c[j] + ig[j] * gg[j];
    h[j] = og[j] * gate_tanh(c[j]);
  }
}

void avx2_softmax(const float* logits, std::size_t n, float* probs) {
  float mx = logits[0];
  for (std::size_t i = 1; i < n; ++i) mx = std::max(mx, logits[i]);
  const __m256 mxv = _mm256_set1_ps(mx);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(probs + i, exp256(_mm256_sub_ps(_mm256_loadu_ps(logits + i), mxv)));
  }
  for (; i < n; ++i) probs[i] = std::exp(logits[i] - mx);
  double sum = 0.0;
  for (std::size_t k = 0; k < n; ++k) sum += probs[k];
  const float inv = static_cast<float>(1.0 / sum);
  for (std::size_t k = 0; k < n; ++k) probs[k] *= inv;
}

}  // namespace

const Kernels* avx2_kernels() {
  static const Kernels kernels = {
      &blocked_gates,
      &avx2_activate_update,
      &blocked_head,
      &avx2_softmax,
  };
  return &kernels;
}

}  // namespace misuse::nn::infer

#else  // !MISUSEDET_HAVE_AVX2

namespace misuse::nn::infer {

const Kernels* avx2_kernels() { return nullptr; }

}  // namespace misuse::nn::infer

#endif
