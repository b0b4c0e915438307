// The repo's own tanh (see nn/gate_math.hpp for why it exists).
//
// A transcription of fdlibm's tanhf (s_tanhf.c) and of the part of its
// expm1f (s_expm1f.c) that tanhf reaches, as glibc ships them: plain
// float arithmetic, no FMA. This TU is compiled with -ffp-contract=off
// (src/nn/CMakeLists.txt): every multiply-add below must round twice, as
// libm's does, or results drift from libm by an ulp on ~150k inputs.
//
// tanhf(x) calls expm1f only with u = -2|x| for 2^-55 <= |x| < 1 and
// u = 2|x| for 1 <= |x| < 22, so u lies in (-2, -2^-54] or [2, 44).
// Inside that range expm1f's overflow filters never fire and its k == 1
// path (0.5 ln2 < u < 1.5 ln2) is never taken, so both are left out.
//
// gate_tanh_span runs the same operation sequence on kLanes floats at a
// time: every branch is evaluated in every lane and each lane's result is
// selected from the branch the scalar code would take. Each selected
// value is computed from the same operands in the same order as the
// scalar branch, so every lane rounds exactly as gate_tanh does.
#include "nn/gate_math.hpp"

#include <bit>
#include <cstdint>
#include <cstring>

namespace misuse::nn {

namespace {

// fdlibm constants, with the bit patterns its sources give them.
constexpr float kLn2Hi = 6.9313812256e-01f;   // 0x3f317180
constexpr float kLn2Lo = 9.0580006145e-06f;   // 0x3717f7d1
constexpr float kInvLn2 = 1.4426950216e+00f;  // 0x3fb8aa3b
constexpr float kQ1 = -3.3333335072e-02f;     // 0xbd088889
constexpr float kQ2 = 1.5873016091e-03f;      // 0x3ad00d01
constexpr float kQ3 = -7.9365076090e-05f;     // 0xb8a670cd
constexpr float kQ4 = 4.0082177293e-06f;      // 0x36867e54
constexpr float kQ5 = -2.0109921195e-07f;     // 0xb457edbb
constexpr float kTiny = 1.0e-30f;

// Thresholds on |x|'s bit pattern.
constexpr std::uint32_t kAbsMask = 0x7fffffff;
constexpr std::uint32_t kSignMask = 0x80000000;
constexpr std::uint32_t kInf = 0x7f800000;
constexpr std::uint32_t kTanhSaturate = 0x41b00000;    // 22
constexpr std::uint32_t kTanhTiny = 0x24000000;        // 2^-55
constexpr std::uint32_t kOneBits = 0x3f800000;         // 1
constexpr std::uint32_t kHalfLn2 = 0x3eb17218;         // 0.5 ln2
constexpr std::uint32_t kThreeHalvesLn2 = 0x3f851592;  // 1.5 ln2
constexpr std::uint32_t kExpm1Tiny = 0x33000000;       // 2^-25

// 2^-k for -126 < k < 128, built from its exponent field.
inline float pow2_neg(std::int32_t k) {
  return std::bit_cast<float>(static_cast<std::uint32_t>(0x7f - k) << 23);
}

// y * 2^k by adding k to y's exponent field (no overflow or underflow in
// the range tanhf uses).
inline float add_exponent(float y, std::int32_t k) {
  return std::bit_cast<float>(std::bit_cast<std::uint32_t>(y) +
                              (static_cast<std::uint32_t>(k) << 23));
}

// expm1f for u in (-2, -2^-54] or [2, 44).
float expm1_for_tanh(float x) {
  const std::uint32_t hx = std::bit_cast<std::uint32_t>(x) & kAbsMask;
  const bool negative = x < 0.0f;
  float c = 0.0f;
  std::int32_t k = 0;
  if (hx > kHalfLn2) {
    float hi;
    float lo;
    if (hx < kThreeHalvesLn2) {
      // Only negative u gets here: positive u is at least 2.
      hi = x + kLn2Hi;
      lo = -kLn2Lo;
      k = -1;
    } else {
      k = static_cast<std::int32_t>(kInvLn2 * x + (negative ? -0.5f : 0.5f));
      const float t = static_cast<float>(k);
      hi = x - t * kLn2Hi;  // t * kLn2Hi is exact here
      lo = t * kLn2Lo;
    }
    x = hi - lo;
    c = (hi - x) - lo;
  } else if (hx < kExpm1Tiny) {
    return x;
  }

  // x is now in the primary range.
  const float hfx = 0.5f * x;
  const float hxs = x * hfx;
  const float r1 = 1.0f + hxs * (kQ1 + hxs * (kQ2 + hxs * (kQ3 + hxs * (kQ4 + hxs * kQ5))));
  const float t = 3.0f - r1 * hfx;
  float e = hxs * ((r1 - t) / (6.0f - x * t));
  if (k == 0) return x - (x * e - hxs);
  e = (x * (e - c) - c);
  e -= hxs;
  if (k == -1) return 0.5f * (x - e) - 0.5f;
  if (k <= -2 || k > 56) return add_exponent(1.0f - (e - x), k) - 1.0f;
  if (k < 23) return add_exponent((1.0f - pow2_neg(k)) - (e - x), k);
  float y = x - (e + pow2_neg(k));
  y += 1.0f;
  return add_exponent(y, k);
}

// --- Lane-parallel form ----------------------------------------------------

// Lane count, fixed per target ISA at compile time (as in
// nn/infer/blocked_gemv.hpp): one register of floats.
#if defined(__AVX512F__)
constexpr std::size_t kLanes = 16;
#elif defined(__AVX2__)
constexpr std::size_t kLanes = 8;
#else
constexpr std::size_t kLanes = 4;
#endif

using FloatV = float __attribute__((vector_size(kLanes * sizeof(float))));
using IntV = std::int32_t __attribute__((vector_size(kLanes * sizeof(float))));
using UintV = std::uint32_t __attribute__((vector_size(kLanes * sizeof(float))));

// expm1_for_tanh on every lane; u must be in its domain.
inline FloatV expm1_lanes(FloatV u) {
  const UintV hu = std::bit_cast<UintV>(u) & kAbsMask;
  const IntV negative = u < 0.0f;
  const IntV reduce = hu > kHalfLn2;
  const IntV near = reduce & (hu < kThreeHalvesLn2);
  // Argument reduction. The near lanes' k = -1 and the k = 0 lanes run
  // the general formula too: t * kLn2Hi and t * kLn2Lo are then exact
  // (+-kLn2Hi, +-kLn2Lo, +0), so hi, lo, x and c come out as the scalar
  // branches compute them.
  const FloatV half = negative ? FloatV{} - 0.5f : FloatV{} + 0.5f;
  IntV k = __builtin_convertvector(kInvLn2 * u + half, IntV);
  k = near ? IntV{} - 1 : k;
  k = reduce ? k : IntV{};
  const FloatV tk = __builtin_convertvector(k, FloatV);
  const FloatV hi = u - tk * kLn2Hi;
  const FloatV lo = tk * kLn2Lo;
  const FloatV x = hi - lo;
  const FloatV c = (hi - x) - lo;

  const FloatV hfx = 0.5f * x;
  const FloatV hxs = x * hfx;
  const FloatV r1 = 1.0f + hxs * (kQ1 + hxs * (kQ2 + hxs * (kQ3 + hxs * (kQ4 + hxs * kQ5))));
  const FloatV t = 3.0f - r1 * hfx;
  FloatV e = hxs * ((r1 - t) / (6.0f - x * t));
  const FloatV k0 = x - (x * e - hxs);
  e = (x * (e - c) - c);
  e -= hxs;
  const FloatV k_minus1 = 0.5f * (x - e) - 0.5f;

  // k <= -2 or k > 56: (1 - (e - x)) * 2^k - 1; 2 <= k < 23:
  // ((1 - 2^-k) - (e - x)) * 2^k; 23 <= k <= 56: ((x - (e + 2^-k)) + 1) * 2^k.
  const IntV far = (k <= -2) | (k > 56);
  const FloatV p2 = std::bit_cast<FloatV>(std::bit_cast<UintV>(0x7f - k) << 23);
  const FloatV y_far = 1.0f - (e - x);
  const FloatV y_low = (1.0f - p2) - (e - x);
  FloatV y_high = x - (e + p2);
  y_high += 1.0f;
  FloatV y = far ? y_far : (k < 23 ? y_low : y_high);
  y = std::bit_cast<FloatV>(std::bit_cast<UintV>(y) + (std::bit_cast<UintV>(k) << 23));
  y = far ? y - 1.0f : y;

  const FloatV r = k == 0 ? k0 : (k == -1 ? k_minus1 : y);
  return hu < kExpm1Tiny ? u : r;
}

inline FloatV tanh_lanes(FloatV x) {
  const UintV jx = std::bit_cast<UintV>(x);
  const UintV ix = jx & kAbsMask;
  const IntV in_range = (ix >= kTanhTiny) & (ix < kTanhSaturate);
  // Lanes outside expm1's domain (tiny, saturated, inf, NaN) run it on
  // |x| = 1 and take their own result below.
  const FloatV ax = in_range ? std::bit_cast<FloatV>(ix) : FloatV{} + 1.0f;
  const IntV big = ix >= kOneBits;
  const FloatV two_ax = 2.0f * ax;
  const FloatV t = expm1_lanes(big ? two_ax : -two_ax);
  // z = 1 - 2 / (t + 2) for |x| >= 1, -t / (t + 2) below: one division on
  // the selected numerator.
  const FloatV q = (big ? FloatV{} + 2.0f : -t) / (t + 2.0f);
  FloatV z = big ? 1.0f - q : q;
  z = ix >= kTanhSaturate ? FloatV{} + (1.0f - kTiny) : z;
  // z > 0 in every lane, so setting x's sign bit is the scalar -z.
  z = std::bit_cast<FloatV>(std::bit_cast<UintV>(z) | (jx & kSignMask));
  z = ix < kTanhTiny ? x * (1.0f + x) : z;
  return ix > kInf ? x + x : z;
}

}  // namespace

float gate_tanh(float x) {
  const std::uint32_t jx = std::bit_cast<std::uint32_t>(x);
  const std::uint32_t ix = jx & kAbsMask;
  if (ix >= kInf) {  // tanh(+-inf) = +-1, tanh(NaN) = NaN
    return (jx & kSignMask) == 0 ? 1.0f / x + 1.0f : 1.0f / x - 1.0f;
  }
  float z;
  if (ix < kTanhSaturate) {
    if (ix == 0) return x;
    if (ix < kTanhTiny) return x * (1.0f + x);
    const float ax = std::bit_cast<float>(ix);
    if (ix >= kOneBits) {
      const float t = expm1_for_tanh(2.0f * ax);
      z = 1.0f - 2.0f / (t + 2.0f);
    } else {
      const float t = expm1_for_tanh(-2.0f * ax);
      z = -t / (t + 2.0f);
    }
  } else {
    z = 1.0f - kTiny;
  }
  return (jx & kSignMask) == 0 ? z : -z;
}

void gate_tanh_span(float* x, std::size_t n) {
  std::size_t j = 0;
  for (; j + kLanes <= n; j += kLanes) {
    FloatV v;
    std::memcpy(&v, x + j, sizeof v);
    v = tanh_lanes(v);
    std::memcpy(x + j, &v, sizeof v);
  }
  for (; j < n; ++j) x[j] = gate_tanh(x[j]);
}

}  // namespace misuse::nn
