// Epilogue and mainloop fusion hooks: fused results must equal the unfused
// kernel sequences they replace.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <vector>

#include "common/rng.h"
#include "gemm/epilogues.h"
#include "gemm/gemm.h"
#include "gemm/kernels/kernel.h"
#include "kernels/activation.h"
#include "parallel/device.h"
#include "tensor/tensor.h"

namespace bt::gemm {
namespace {

par::Device& dev() {
  static par::Device d(2);
  return d;
}

TEST(Epilogue, BiasMatchesSeparateAddBias) {
  const int m = 70;
  const int n = 130;
  const int k = 64;
  Rng rng(21);
  auto a = Tensor<fp16_t>::random_normal({m, k}, rng);
  auto b = Tensor<fp16_t>::random_normal({k, n}, rng);
  auto bias = Tensor<fp16_t>::random_normal({n}, rng);

  auto fused = Tensor<fp16_t>::zeros({m, n});
  const BiasEpilogue<fp16_t> ep{bias.data()};
  gemm<fp16_t, fp16_t, fp16_t, IdentityATransform, BiasEpilogue<fp16_t>>(
      dev(), Trans::N, Trans::N, m, n, k, 1.0f, a.data(), k, b.data(), n,
      0.0f, fused.data(), n, ep);

  auto unfused = Tensor<fp16_t>::zeros({m, n});
  gemm_f16(dev(), Trans::N, Trans::N, m, n, k, 1.0f, a.data(), k, b.data(), n,
           0.0f, unfused.data(), n);
  bt::kernels::add_bias(dev(), unfused.data(), bias.data(), m, n);

  // Fused avoids one FP16 round trip, so allow one ulp of divergence.
  EXPECT_LT(max_abs_diff(fused, unfused), 2e-2);
}

TEST(Epilogue, BiasGeluMatchesSeparateKernels) {
  const int m = 65;
  const int n = 257;
  const int k = 96;
  Rng rng(22);
  auto a = Tensor<fp16_t>::random_normal({m, k}, rng);
  auto b = Tensor<fp16_t>::random_normal({k, n}, rng);
  auto bias = Tensor<fp16_t>::random_normal({n}, rng);

  auto fused = Tensor<fp16_t>::zeros({m, n});
  const BiasGeluEpilogue<fp16_t> ep{bias.data()};
  gemm<fp16_t, fp16_t, fp16_t, IdentityATransform, BiasGeluEpilogue<fp16_t>>(
      dev(), Trans::N, Trans::N, m, n, k, 1.0f, a.data(), k, b.data(), n,
      0.0f, fused.data(), n, ep);

  auto unfused = Tensor<fp16_t>::zeros({m, n});
  gemm_f16(dev(), Trans::N, Trans::N, m, n, k, 1.0f, a.data(), k, b.data(), n,
           0.0f, unfused.data(), n);
  bt::kernels::add_bias_gelu(dev(), unfused.data(), bias.data(), m, n);

  // The unfused path rounds the GEMM result to FP16 *before* GELU; with
  // k = 96 unit-variance inputs the pre-activation reaches |v| ~ 40 where
  // the FP16 ulp is 0.03125 — that one rounding step is the allowed gap.
  EXPECT_LT(max_abs_diff(fused, unfused), 5e-2);
}

// The fused row hook must store exactly store_f32(gelu_tanh(c + bias)) of
// the identity-epilogue FP32 GEMM on the same inputs. n = 200 spans four
// column tiles, the last ragged at 8 columns, so col0 is nonzero and rows
// end mid-vector; the +-8 bias entries drive the tanh argument past the
// fast_tanh clamp.
TEST(Epilogue, BiasGeluRowHookMatchesIdentityGemmBitwise) {
  const int m = 37;
  const int n = 200;
  const int k = 96;
  Rng rng(25);
  auto a = Tensor<fp16_t>::random_normal({m, k}, rng, 0.2f);
  auto b = Tensor<fp16_t>::random_normal({k, n}, rng);
  auto bias = Tensor<fp16_t>::random_normal({n}, rng);
  for (int j = 0; j < n; j += 9) bias(j) = fp16_t(j % 2 == 0 ? 8.0f : -8.0f);

  auto acc = Tensor<float>::zeros({m, n});
  gemm<fp16_t, fp16_t, float>(dev(), Trans::N, Trans::N, m, n, k, 1.0f,
                              a.data(), k, b.data(), n, 0.0f, acc.data(), n);
  auto fused = Tensor<fp16_t>::zeros({m, n});
  const BiasGeluEpilogue<fp16_t> ep{bias.data()};
  gemm<fp16_t, fp16_t, fp16_t, IdentityATransform, BiasGeluEpilogue<fp16_t>>(
      dev(), Trans::N, Trans::N, m, n, k, 1.0f, a.data(), k, b.data(), n,
      0.0f, fused.data(), n, ep);

  int clamped = 0;
  for (int i = 0; i < m; ++i) {
    for (int j = 0; j < n; ++j) {
      const float x = acc(i, j) + load_f32(bias(j));
      fp16_t want;
      store_f32(want, gelu_tanh(x));
      ASSERT_EQ(want.bits(), fused(i, j).bits()) << "row " << i << " col " << j;
      if (std::abs(0.7978845608028654f * (x + 0.044715f * x * x * x)) > 4.97f) {
        ++clamped;
      }
    }
  }
  EXPECT_GT(clamped, 0);
}

// beta != 0: the row hook runs first, then each element takes beta * C in
// the per-element formula's order, ep(v) + beta * c.
TEST(Epilogue, BiasWithBetaMatchesPerElementFormulaBitwise) {
  const int m = 45;
  const int n = 130;
  const int k = 70;
  const float alpha = 0.5f;
  const float beta = -0.75f;
  Rng rng(26);
  auto a = Tensor<fp16_t>::random_normal({m, k}, rng);
  auto b = Tensor<fp16_t>::random_normal({k, n}, rng);
  auto bias = Tensor<fp16_t>::random_normal({n}, rng);
  auto c_init = Tensor<fp16_t>::random_normal({m, n}, rng);

  auto acc = Tensor<float>::zeros({m, n});
  gemm<fp16_t, fp16_t, float>(dev(), Trans::N, Trans::N, m, n, k, alpha,
                              a.data(), k, b.data(), n, 0.0f, acc.data(), n);
  auto fused = c_init.clone();
  const BiasEpilogue<fp16_t> ep{bias.data()};
  gemm<fp16_t, fp16_t, fp16_t, IdentityATransform, BiasEpilogue<fp16_t>>(
      dev(), Trans::N, Trans::N, m, n, k, alpha, a.data(), k, b.data(), n,
      beta, fused.data(), n, ep);

  for (int i = 0; i < m; ++i) {
    for (int j = 0; j < n; ++j) {
      const float ev = acc(i, j) + load_f32(bias(j));
      fp16_t want;
      store_f32(want, ev + beta * load_f32(c_init(i, j)));
      ASSERT_EQ(want.bits(), fused(i, j).bits()) << "row " << i << " col " << j;
    }
  }
}

// Restores the dispatched kernel after a test that forces kinds.
class KernelGuard {
 public:
  KernelGuard() : saved_(kernels::active()) {}
  ~KernelGuard() { kernels::force(saved_); }

 private:
  kernels::Kind saved_;
};

// RNE rounding of an FP32 value to bf16, as the amx kernel rounds its
// inputs (bf16 denormals read as zero).
float round_bf16(float x) {
  std::uint32_t u;
  std::memcpy(&u, &x, sizeof(u));
  if ((u & 0x7F800000u) == 0) {
    u &= 0x80000000u;
  } else {
    u += 0x7FFFu + ((u >> 16) & 1u);
    u &= 0xFFFF0000u;
  }
  std::memcpy(&x, &u, sizeof(x));
  return x;
}

TEST(Epilogue, SoftmaxPartialReductionIsExactPerTile) {
  // Feed a known matrix through the epilogue via a plain GEMM (A = diag-ish
  // trick: multiply by identity) and verify the per-tile max/sum pairs, once
  // per supported kernel kind. The FP32 kinds multiply exactly, so the
  // output is the input; amx rounds B to bf16 first, so the output is the
  // bf16-rounded input and the partials reduce those rounded values.
  KernelGuard guard;
  for (auto kind : {kernels::Kind::kScalar, kernels::Kind::kVec,
                    kernels::Kind::kAvx2, kernels::Kind::kAmxBf16}) {
    if (!kernels::force(kind)) continue;
    SCOPED_TRACE(kernels::name(kind));
    const bool bf16 = kind == kernels::Kind::kAmxBf16;
    const int m = 70;   // two row tiles
    const int n = 130;  // three col tiles (64, 64, 2)
    Rng rng(23);
    auto values = Tensor<fp16_t>::random_normal({m, n}, rng);
    auto identity = Tensor<fp16_t>::zeros({m, m});
    for (int i = 0; i < m; ++i) identity(i, i) = fp16_t(1.0f);
    // What the kernel multiplies: the values, or their bf16 rounding.
    auto input = [&](int i, int j) {
      const float v = load_f32(values(i, j));
      return bf16 ? round_bf16(v) : v;
    };

    const std::int64_t col_tiles = ceil_div(n, TileShape::kN);
    std::vector<float> pmax(static_cast<std::size_t>(m * col_tiles), -1.0f);
    std::vector<float> psum(static_cast<std::size_t>(m * col_tiles), -1.0f);
    std::vector<SoftmaxPartials> partials{
        {pmax.data(), psum.data(), col_tiles, m}};

    auto out = Tensor<fp16_t>::zeros({m, n});
    const SoftmaxPartialReduceEpilogue ep{partials};
    gemm<fp16_t, fp16_t, fp16_t, IdentityATransform,
         SoftmaxPartialReduceEpilogue>(dev(), Trans::N, Trans::N, m, n, m,
                                       1.0f, identity.data(), m, values.data(),
                                       n, 0.0f, out.data(), n, ep);

    if (bf16) {
      // The GEMM output must equal the bf16-rounded input, bit for bit...
      for (int i = 0; i < m; ++i) {
        for (int j = 0; j < n; ++j) {
          ASSERT_EQ(out(i, j).bits(), fp16_t(input(i, j)).bits())
              << "at (" << i << ", " << j << ")";
        }
      }
    } else {
      // The GEMM output must equal the input (identity multiply)...
      EXPECT_LT(max_abs_diff(out, values), 1e-6);
    }
    // ...and the partials must match a direct per-tile reduction.
    for (int i = 0; i < m; ++i) {
      for (std::int64_t t = 0; t < col_tiles; ++t) {
        const int j0 = static_cast<int>(t) * TileShape::kN;
        const int j1 = std::min(n, j0 + TileShape::kN);
        float mx = -INFINITY;
        for (int j = j0; j < j1; ++j) mx = std::max(mx, input(i, j));
        float sum = 0;
        for (int j = j0; j < j1; ++j) sum += std::exp(input(i, j) - mx);
        EXPECT_NEAR(pmax[static_cast<std::size_t>(i * col_tiles + t)], mx,
                    1e-5);
        EXPECT_NEAR(psum[static_cast<std::size_t>(i * col_tiles + t)], sum,
                    1e-4);
      }
    }
  }
}

TEST(Epilogue, FullReduceCombinesPartials) {
  // Two tiles with different maxima: full reduce must renormalize sums.
  const std::int64_t rows = 2;
  const std::int64_t col_tiles = 2;
  std::vector<float> pmax{1.0f, 3.0f,   // row 0
                          -2.0f, -2.0f};  // row 1
  std::vector<float> psum{2.0f, 5.0f, 1.5f, 2.5f};
  SoftmaxPartials p{pmax.data(), psum.data(), col_tiles, rows};
  std::vector<float> rmax(2);
  std::vector<float> rinv(2);
  softmax_full_reduce(p, col_tiles, rmax.data(), rinv.data());
  EXPECT_FLOAT_EQ(rmax[0], 3.0f);
  EXPECT_NEAR(rinv[0], 1.0f / (2.0f * std::exp(1.0f - 3.0f) + 5.0f), 1e-6);
  EXPECT_FLOAT_EQ(rmax[1], -2.0f);
  EXPECT_NEAR(rinv[1], 1.0f / 4.0f, 1e-6);
}

TEST(Epilogue, NormalizeATransformAppliesSoftmax) {
  // One problem, one row: the A transform must turn raw scores into
  // softmax probabilities during packing. Verify via a GEMM against a
  // one-column ones vector: result = sum of probabilities = 1.
  const int n_rows = 50;
  const int n_cols = 80;
  Rng rng(24);
  auto scores = Tensor<fp16_t>::random_normal({n_rows, n_cols}, rng);

  // Row stats computed directly.
  std::vector<float> rmax(static_cast<std::size_t>(n_rows));
  std::vector<float> rinv(static_cast<std::size_t>(n_rows));
  for (int i = 0; i < n_rows; ++i) {
    float mx = -INFINITY;
    for (int j = 0; j < n_cols; ++j) {
      mx = std::max(mx, load_f32(scores(i, j)));
    }
    float sum = 0;
    for (int j = 0; j < n_cols; ++j) {
      sum += std::exp(load_f32(scores(i, j)) - mx);
    }
    rmax[static_cast<std::size_t>(i)] = mx;
    rinv[static_cast<std::size_t>(i)] = 1.0f / sum;
  }
  std::vector<SoftmaxRowStats> stats{{rmax.data(), rinv.data()}};

  auto ones = Tensor<fp16_t>({n_cols, 1});
  ones.fill(fp16_t(1.0f));
  auto out = Tensor<fp16_t>::zeros({n_rows, 1});
  const SoftmaxNormalizeATransform at{stats};
  gemm<fp16_t, fp16_t, fp16_t, SoftmaxNormalizeATransform>(
      dev(), Trans::N, Trans::N, n_rows, 1, n_cols, 1.0f, scores.data(),
      n_cols, ones.data(), 1, 0.0f, out.data(), 1, {}, at);
  for (int i = 0; i < n_rows; ++i) {
    EXPECT_NEAR(load_f32(out(i, 0)), 1.0f, 5e-3) << "row " << i;
  }
}

}  // namespace
}  // namespace bt::gemm
