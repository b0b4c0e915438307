// The repo's own float exp (see tensor/exp.hpp for why it exists).
//
// A transcription of glibc 2.36's expf (sysdeps/ieee754/flt-32/e_expf.c)
// as its FMA+AVX2 build compiles it: with x*N/ln2 = k + r, N = 32,
//
//   exp(x) = 2^(k/N) * 2^(r/N) ~= s * (C0 r^3 + C1 r^2 + C2 r + 1)
//
// evaluated in double, where s comes from a table of 2^(i/N) and k's
// remaining bits. That build fuses four multiply-adds, so each is a
// std::fma below, and every other multiply and add must round on its
// own: this TU is compiled with -ffp-contract=off (src/tensor/
// CMakeLists.txt). The constants and the table are the ones in that
// libm's .rodata.
//
// exp_lanes runs the same operation sequence on kLanes floats at a time,
// widened to double lanes: the special cases are computed in every lane
// and selected, so every lane rounds exactly as exp_float does.
#include "tensor/exp.hpp"

#if defined(__AVX512F__) || defined(__FMA__)
#include <immintrin.h>
#endif

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>

namespace misuse {

namespace {

constexpr double kInvLn2N = 0x1.71547652b82fep+5;  // N / ln2
constexpr double kShift = 0x1.8p+52;               // adding it rounds to an integer
constexpr double kC0 = 0x1.c6af84b912394p-20;
constexpr double kC1 = 0x1.ebfce50fac4f3p-13;
constexpr double kC2 = 0x1.62e42ff0c52d6p-6;

// kTable[i] = bits of 2^(i/32), correctly rounded, minus i << 47: adding
// k << 47 (k's low five bits being i) puts k / 32's integer part into the
// exponent field.
constexpr std::uint64_t kTable[32] = {
    0x3ff0000000000000, 0x3fefd9b0d3158574, 0x3fefb5586cf9890f, 0x3fef9301d0125b51,
    0x3fef72b83c7d517b, 0x3fef54873168b9aa, 0x3fef387a6e756238, 0x3fef1e9df51fdee1,
    0x3fef06fe0a31b715, 0x3feef1a7373aa9cb, 0x3feedea64c123422, 0x3feece086061892d,
    0x3feebfdad5362a27, 0x3feeb42b569d4f82, 0x3feeab07dd485429, 0x3feea47eb03a5585,
    0x3feea09e667f3bcd, 0x3fee9f75e8ec5f74, 0x3feea11473eb0187, 0x3feea589994cce13,
    0x3feeace5422aa0db, 0x3feeb737b0cdc5e5, 0x3feec49182a3f090, 0x3feed503b23e255d,
    0x3feee89f995ad3ad, 0x3feeff76f2fb5e47, 0x3fef199bdd85529c, 0x3fef3720dcef9069,
    0x3fef5818dcfba487, 0x3fef7c97337b9b5f, 0x3fefa4afa2a490da, 0x3fefd0765b6e4540,
};

// Special cases. glibc tests five, under |x| >= 88; three are left:
// +-inf fall into the overflow and underflow tests with the results
// glibc gives them (+inf, 0), and below log(2^-149) glibc returns 2^-149
// only to set errno, which the evaluation gives there too.
constexpr std::uint32_t kAbsMask = 0x7fffffff;
constexpr std::uint32_t kInf = 0x7f800000;
constexpr std::uint32_t kLarge = 0x42b00000;  // |x| >= 88, or NaN: check the cases below
constexpr float kOverflow = 0x1.62e42ep6f;    // above log(2^128): +inf
constexpr float kUnderflow = -0x1.9fe368p6f;  // below log(2^-150): 0

// --- Lane-parallel form ----------------------------------------------------

// Lane count, fixed per target ISA at compile time: one register of
// doubles.
#if defined(__AVX512F__)
constexpr std::size_t kLanes = 8;
#elif defined(__AVX__)
constexpr std::size_t kLanes = 4;
#else
constexpr std::size_t kLanes = 2;
#endif

using DoubleV = double __attribute__((vector_size(kLanes * sizeof(double))));
using U64V = std::uint64_t __attribute__((vector_size(kLanes * sizeof(double))));
using FloatV = float __attribute__((vector_size(kLanes * sizeof(float))));
using U32V = std::uint32_t __attribute__((vector_size(kLanes * sizeof(float))));

inline DoubleV splat(double v) { return DoubleV{} + v; }

// std::fma on every lane.
inline DoubleV fma_lanes(DoubleV a, DoubleV b, DoubleV c) {
#if defined(__AVX512F__)
  return _mm512_fmadd_pd(a, b, c);
#elif defined(__FMA__)
  return _mm256_fmadd_pd(a, b, c);
#else
  DoubleV r;
  for (std::size_t l = 0; l < kLanes; ++l) r[l] = std::fma(a[l], b[l], c[l]);
  return r;
#endif
}

// kTable[i[l]] on every lane; i[l] < 32.
inline U64V table_lanes(U64V i) {
#if defined(__AVX512F__)
  // Two 16-entry halves, one two-source permute each.
  U64V t[4];
  std::memcpy(t, kTable, sizeof t);
  const U64V lo = __builtin_shuffle(t[0], t[1], i);
  const U64V hi = __builtin_shuffle(t[2], t[3], i);
  return (i & 16) == 0 ? lo : hi;
#else
  U64V t;
  for (std::size_t l = 0; l < kLanes; ++l) t[l] = kTable[i[l]];
  return t;
#endif
}

inline FloatV exp_lanes(FloatV x) {
  const DoubleV xd = __builtin_convertvector(x, DoubleV);
  const DoubleV shifted = fma_lanes(splat(kInvLn2N), xd, splat(kShift));
  const U64V ki = std::bit_cast<U64V>(shifted);
  const DoubleV kd = shifted - kShift;
  const DoubleV r = fma_lanes(splat(kInvLn2N), xd, -kd);
  const DoubleV s = std::bit_cast<DoubleV>(table_lanes(ki & 31) + (ki << 47));
  const DoubleV z = fma_lanes(splat(kC0), r, splat(kC1));
  const DoubleV y = fma_lanes(splat(kC2), r, splat(1.0));
  FloatV e = __builtin_convertvector(fma_lanes(z, r * r, y) * s, FloatV);

  // At most one special case holds, and each implies exp_float's outer
  // test.
  e = x > kOverflow ? FloatV{} + INFINITY : e;
  e = x < kUnderflow ? FloatV{} : e;
  return (std::bit_cast<U32V>(x) & kAbsMask) > kInf ? x + x : e;
}

}  // namespace

float exp_float(float x) {
  const std::uint32_t ux = std::bit_cast<std::uint32_t>(x);
  if ((ux & kAbsMask) >= kLarge) {
    if ((ux & kAbsMask) > kInf) return x + x;  // NaN
    if (x > kOverflow) return INFINITY;
    if (x < kUnderflow) return 0.0f;
  }
  const double xd = x;
  const double shifted = std::fma(kInvLn2N, xd, kShift);
  const std::uint64_t ki = std::bit_cast<std::uint64_t>(shifted);
  const double kd = shifted - kShift;
  const double r = std::fma(kInvLn2N, xd, -kd);
  const double s = std::bit_cast<double>(kTable[ki & 31] + (ki << 47));
  const double z = std::fma(kC0, r, kC1);
  const double y = std::fma(kC2, r, 1.0);
  return static_cast<float>(std::fma(z, r * r, y) * s);
}

void exp_span(float* x, std::size_t n) {
  std::size_t j = 0;
  for (; j + kLanes <= n; j += kLanes) {
    FloatV v;
    std::memcpy(&v, x + j, sizeof v);
    v = exp_lanes(v);
    std::memcpy(x + j, &v, sizeof v);
  }
  for (; j < n; ++j) x[j] = exp_float(x[j]);
}

void sigmoid_span(float* x, std::size_t n) {
  std::size_t j = 0;
  for (; j + kLanes <= n; j += kLanes) {
    FloatV v;
    std::memcpy(&v, x + j, sizeof v);
    v = 1.0f / (1.0f + exp_lanes(-v));
    std::memcpy(x + j, &v, sizeof v);
  }
  for (; j < n; ++j) x[j] = 1.0f / (1.0f + exp_float(-x[j]));
}

}  // namespace misuse
