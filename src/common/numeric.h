// Scalar and 8-wide math used by the transformer kernels.
#pragma once

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstring>

namespace bt {

inline constexpr std::size_t kCacheLine = 64;

constexpr std::int64_t ceil_div(std::int64_t a, std::int64_t b) noexcept {
  return (a + b - 1) / b;
}

constexpr std::int64_t round_up(std::int64_t a, std::int64_t b) noexcept {
  return ceil_div(a, b) * b;
}

// Branch-free Pade [7/6] tanh: ~1e-6 absolute error for |x| <= 4.97, then
// clamped (|tanh| > 0.99986 there). No libm call, so the compiler can
// vectorize GELU in both the standalone kernel and the GEMM epilogue — the
// CPU analogue of the fast device-side tanh the CUDA epilogue uses.
inline float fast_tanh(float x) noexcept {
  x = x > 4.97f ? 4.97f : (x < -4.97f ? -4.97f : x);
  const float x2 = x * x;
  const float num = x * (135135.0f + x2 * (17325.0f + x2 * (378.0f + x2)));
  const float den = 135135.0f + x2 * (62370.0f + x2 * (3150.0f + x2 * 28.0f));
  return num / den;
}

// GELU with the tanh approximation used by BERT and by the paper's fused
// epilogue (Hendrycks & Gimpel 2016).
inline float gelu_tanh(float x) noexcept {
  constexpr float kSqrt2OverPi = 0.7978845608028654f;
  constexpr float kCoef = 0.044715f;
  return 0.5f * x * (1.0f + fast_tanh(kSqrt2OverPi * (x + kCoef * x * x * x)));
}

// v[j] += bias[j] and v[j] = gelu_tanh(v[j] + bias[j]) over one FP32 row:
// the one body of both the fused GEMM epilogues (gemm/epilogues.h) and the
// unfused kernels (kernels/activation.cc), so the two paths cannot drift.
// Each is a single plain loop the compiler vectorises.
inline void add_bias_row(float* v, const float* bias, std::int64_t n) noexcept {
  for (std::int64_t j = 0; j < n; ++j) v[j] += bias[j];
}

inline void bias_gelu_row(float* v, const float* bias, std::int64_t n) noexcept {
  for (std::int64_t j = 0; j < n; ++j) v[j] = gelu_tanh(v[j] + bias[j]);
}

// Exact GELU via erf, used by the FP64 references in tests.
inline double gelu_erf(double x) noexcept {
  return 0.5 * x * (1.0 + std::erf(x / std::sqrt(2.0)));
}

inline float relu(float x) noexcept { return x > 0.0f ? x : 0.0f; }

// Numerically-stable softmax building blocks (shared by every softmax
// implementation so the variants differ only in traversal/fusion).
inline float softmax_scale(int head_size) noexcept {
  return 1.0f / std::sqrt(static_cast<float>(head_size));
}

namespace detail {

typedef float vf8 __attribute__((vector_size(32)));
typedef std::int32_t vi8 __attribute__((vector_size(32)));  // lane masks
typedef std::uint32_t vu8 __attribute__((vector_size(32)));  // wrapping bits

// Eight-lane exp, in place: Cody-Waite range reduction x = n ln2 + r,
// |r| <= ln2/2, then Cephes' degree-7 minimax polynomial for e^r, scaled by
// 2^n through the exponent bits. Inputs <= kExpLo (and -inf) give exactly 0;
// inputs above kExpHi are clamped to it; NaN propagates. Lanes never
// interact. (Vectors pass by reference: no by-value vector ABI to warn on.)
inline void exp8(vf8& x) noexcept {
  constexpr float kExpLo = -87.0f;  // exp(-87) = 1.6e-38, still normal
  constexpr float kExpHi = 88.0f;   // exp(88) = 1.7e38 < FLT_MAX
  constexpr float kRound = 12582912.0f;  // 1.5 * 2^23: round-to-int shifter
  const vf8 zeros{};
  const vf8 hi = zeros + kExpHi;
  const vf8 round = zeros + kRound;
  const vi8 dead = x <= zeros + kExpLo;
  const vi8 high = x > hi;
  x = reinterpret_cast<vf8>((high & reinterpret_cast<vi8>(hi)) |
                            (~high & reinterpret_cast<vi8>(x)));
  // t's low mantissa bits hold n = round(x / ln2); n is exact in float.
  const vf8 t = x * 1.44269504088896341f + round;
  const vf8 n = t - round;
  vf8 r = x - n * 0.693359375f;  // ln2 high part: n * hi is exact
  r = r - n * -2.12194440e-4f;   // ln2 low part
  vf8 p = zeros + 1.9875691500e-4f;
  p = p * r + 1.3981999507e-3f;
  p = p * r + 8.3334519073e-3f;
  p = p * r + 4.1665795894e-2f;
  p = p * r + 1.6666665459e-1f;
  p = p * r + 5.0000001201e-1f;
  const vf8 y = p * r * r + r + 1.0f;
  const vu8 pow2n =
      (reinterpret_cast<vu8>(t) - reinterpret_cast<vu8>(round) + 127u) << 23;
  const vf8 e = y * reinterpret_cast<vf8>(pow2n);
  x = reinterpret_cast<vf8>(reinterpret_cast<vi8>(e) & ~dead);
}

}  // namespace detail

// dst[j] = fast_exp(src[j] - sub), j in [0, n); src == dst is allowed. Every
// element, the tail included (padded into a full vector), takes the same
// 8-wide path, so a value depends only on its input — never on n or on its
// position in the row.
inline void exp_row(const float* src, float sub, float* dst,
                    std::int64_t n) noexcept {
  std::int64_t j = 0;
  for (; j + 8 <= n; j += 8) {
    detail::vf8 v;
    std::memcpy(&v, src + j, sizeof(v));
    v -= sub;
    detail::exp8(v);
    std::memcpy(dst + j, &v, sizeof(v));
  }
  if (j < n) {
    const std::size_t tail = static_cast<std::size_t>(n - j) * sizeof(float);
    detail::vf8 v{};
    std::memcpy(&v, src + j, tail);
    v -= sub;
    detail::exp8(v);
    std::memcpy(dst + j, &v, tail);
  }
}

// Branch-free exp with no libm call, used at every softmax site. Relative
// error < 2e-7 (under 2 ulp) on (-87, 88]; exactly 0 for x <= -87, so
// exp(-inf) == 0 as causal masks need; fast_exp(0) == 1 exactly. Bitwise
// equal to the matching lane of exp_row.
inline float fast_exp(float x) noexcept {
  detail::vf8 v = detail::vf8{} + x;
  detail::exp8(v);
  return v[0];
}

}  // namespace bt
