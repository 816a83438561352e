// The runtime-dispatched SIMD GEMM backend:
//   * every kernel variant x transpose combo x odd shapes x alpha/beta x
//     storage type x prepacked-vs-on-the-fly B against the FP64 reference,
//   * bitwise cross-checks between forced kernel variants (the variants
//     accumulate each output element over p ascending, so under uniform FMA
//     contraction they are interchangeable to the last bit),
//   * the amx kind against an FP64 bound derived from its bf16 rounding,
//     with its row, depth and worker-count contracts,
//   * PackedB panel layout vs pack_b_panel,
//   * dispatch / BT_GEMM_KERNEL parsing and force() fallback behavior.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <span>
#include <string>
#include <tuple>
#include <vector>

#include "common/rng.h"
#include "gemm/batched.h"
#include "gemm/gemm.h"
#include "gemm/grouped.h"
#include "gemm/kernels/kernel.h"
#include "gemm/packed.h"
#include "parallel/device.h"
#include "tensor/tensor.h"

namespace bt::gemm {
namespace {

par::Device& dev() {
  static par::Device d(2);
  return d;
}

// Restores the dispatched kernel after a test that forces variants.
class KernelGuard {
 public:
  KernelGuard() : saved_(kernels::active()) {}
  ~KernelGuard() { kernels::force(saved_); }

 private:
  kernels::Kind saved_;
};

std::vector<kernels::Kind> supported_kinds() {
  std::vector<kernels::Kind> kinds;
  for (auto k : {kernels::Kind::kScalar, kernels::Kind::kVec,
                 kernels::Kind::kAvx2}) {
    if (kernels::supported(k)) kinds.push_back(k);
  }
  return kinds;
}

// (kernel, ta, tb, m, n, k, alpha, beta, prepacked)
using Case = std::tuple<kernels::Kind, Trans, Trans, int, int, int, float,
                        float, bool>;

std::vector<Case> all_cases() {
  const std::tuple<int, int, int> shapes[] = {
      {1, 1, 1},     {5, 3, 2},      {64, 64, 128}, {65, 63, 127},
      {33, 190, 77}, {130, 70, 200}, {17, 300, 5},
  };
  const std::pair<float, float> scales[] = {{1.0f, 0.0f}, {0.5f, 0.0f},
                                            {1.0f, 1.0f}, {2.0f, -0.5f}};
  std::vector<Case> cases;
  for (auto kind : supported_kinds()) {
    for (auto ta : {Trans::N, Trans::T}) {
      for (auto tb : {Trans::N, Trans::T}) {
        for (auto [m, n, k] : shapes) {
          for (auto [alpha, beta] : scales) {
            cases.emplace_back(kind, ta, tb, m, n, k, alpha, beta, false);
            // Prepacked covers op(B) baked into panels; exercised per tb.
            if (alpha == 1.0f && beta == 0.0f) {
              cases.emplace_back(kind, ta, tb, m, n, k, alpha, beta, true);
            }
          }
        }
      }
    }
  }
  return cases;
}

class KernelEquivalence : public ::testing::TestWithParam<Case> {};

template <typename T>
void run_case(const Case& c) {
  const auto [kind, ta, tb, m, n, k, alpha, beta, prepacked] = c;
  KernelGuard guard;
  ASSERT_TRUE(kernels::force(kind));

  Rng rng(static_cast<std::uint64_t>(m * 131071 + n * 8191 + k * 127 +
                                     static_cast<int>(kind) * 7 +
                                     (prepacked ? 3 : 0)));
  const std::int64_t a_rows = ta == Trans::N ? m : k;
  const std::int64_t a_cols = ta == Trans::N ? k : m;
  const std::int64_t b_rows = tb == Trans::N ? k : n;
  const std::int64_t b_cols = tb == Trans::N ? n : k;
  auto a = Tensor<T>::random_normal({a_rows, a_cols}, rng);
  auto b = Tensor<T>::random_normal({b_rows, b_cols}, rng);
  auto c_init = Tensor<T>::random_normal({m, n}, rng);
  auto c_out = c_init.clone();

  if (prepacked) {
    const PackedB pb = PackedB::pack(tb, b.data(), b_cols, k, n);
    gemm_prepacked(dev(), ta, m, n, k, alpha, a.data(), a_cols, pb, beta,
                   c_out.data(), n);
  } else {
    gemm<T, T, T>(dev(), ta, tb, m, n, k, alpha, a.data(), a_cols, b.data(),
                  b_cols, beta, c_out.data(), n);
  }

  std::vector<double> want(static_cast<std::size_t>(m) * n);
  gemm_reference(ta, tb, m, n, k, static_cast<double>(alpha), a.data(),
                 a_cols, b.data(), b_cols, want.data(), n);
  // FP32 accumulate (and for T = fp16_t, FP16 storage rounding) over k
  // unit-variance terms.
  const double tol = (std::is_same_v<T, fp16_t> ? 3e-2 : 1e-3) *
                     std::sqrt(static_cast<double>(k) + 1.0);
  double worst = 0;
  for (std::int64_t i = 0; i < m; ++i) {
    for (std::int64_t j = 0; j < n; ++j) {
      const double got = load_f32(c_out(i, j));
      const double ref = want[static_cast<std::size_t>(i) * n + j] +
                         static_cast<double>(beta) * load_f32(c_init(i, j));
      worst = std::max(worst, std::abs(got - ref));
    }
  }
  EXPECT_LT(worst, tol) << "kernel=" << kernels::name(kind)
                        << " prepacked=" << prepacked;
}

TEST_P(KernelEquivalence, F32MatchesReference) { run_case<float>(GetParam()); }

TEST_P(KernelEquivalence, F16MatchesReference) { run_case<fp16_t>(GetParam()); }

std::string case_name(const ::testing::TestParamInfo<Case>& info) {
  const auto [kind, ta, tb, m, n, k, alpha, beta, prepacked] = info.param;
  std::string s = kernels::name(kind);
  s += ta == Trans::N ? "_N" : "_T";
  s += tb == Trans::N ? "N" : "T";
  s += "_" + std::to_string(m) + "x" + std::to_string(n) + "x" +
       std::to_string(k);
  s += "_i" + std::to_string(info.index);
  return s;
}

INSTANTIATE_TEST_SUITE_P(AllKernels, KernelEquivalence,
                         ::testing::ValuesIn(all_cases()), case_name);

// Under uniform FMA contraction (BT_NATIVE_ARCH builds: -mfma +
// -ffp-contract=fast) every kernel performs the identical p-ascending FMA
// chain per output element, so forced variants must agree bit for bit.
#if defined(__FMA__)
TEST(KernelBitwise, ForcedVariantsAgreeBitwise) {
  KernelGuard guard;
  const int m = 130;
  const int n = 190;
  const int k = 260;
  Rng rng(7);
  auto a = Tensor<fp16_t>::random_normal({m, k}, rng);
  auto b = Tensor<fp16_t>::random_normal({k, n}, rng);

  ASSERT_TRUE(kernels::force(kernels::Kind::kScalar));
  auto c_scalar = Tensor<fp16_t>::zeros({m, n});
  gemm_f16(dev(), Trans::N, Trans::N, m, n, k, 1.0f, a.data(), k, b.data(), n,
           0.0f, c_scalar.data(), n);

  for (auto kind : supported_kinds()) {
    if (kind == kernels::Kind::kScalar) continue;
    ASSERT_TRUE(kernels::force(kind));
    auto c_kind = Tensor<fp16_t>::zeros({m, n});
    gemm_f16(dev(), Trans::N, Trans::N, m, n, k, 1.0f, a.data(), k, b.data(),
             n, 0.0f, c_kind.data(), n);
    for (std::int64_t i = 0; i < c_scalar.size(); ++i) {
      ASSERT_EQ(c_scalar.data()[i].bits(), c_kind.data()[i].bits())
          << "scalar vs " << kernels::name(kind) << " at " << i;
    }
  }
}

// Direct kernel calls on zero-padded panels for every mc in 1..kPanelM, so
// every register-block height (full blocks and each row remainder) meets
// every K shape: a single step, an odd count, a ragged and a full K block.
// The incoming acc is nonzero, so the seeded chain is compared too, and the
// whole acc tile is compared, so rows past mc must come back untouched.
TEST(KernelBitwise, EveryRowRemainderMatchesScalar) {
  using kernels::kPanelK;
  using kernels::kPanelM;
  using kernels::kPanelN;
  Rng rng(29);
  std::vector<float> panel_a(static_cast<std::size_t>(kPanelM) * kPanelK);
  std::vector<float> panel_b(static_cast<std::size_t>(kPanelK) * kPanelN);
  std::vector<float> acc0(static_cast<std::size_t>(kPanelM) * kPanelN);
  std::vector<float> want(acc0.size());
  std::vector<float> got(acc0.size());
  for (int kc : {1, 5, 127, 128}) {
    std::fill(panel_a.begin(), panel_a.end(), 0.0f);
    std::fill(panel_b.begin(), panel_b.end(), 0.0f);
    for (int i = 0; i < kPanelM; ++i) {
      for (int p = 0; p < kc; ++p) {
        panel_a[static_cast<std::size_t>(i) * kPanelK + p] = rng.normal();
      }
    }
    rng.fill_normal(std::span<float>(panel_b.data(),
                                     static_cast<std::size_t>(kc) * kPanelN));
    rng.fill_normal(std::span<float>(acc0));
    for (int mc = 1; mc <= kPanelM; ++mc) {
      want = acc0;
      kernels::fn(kernels::Kind::kScalar)(panel_a.data(), mc, panel_b.data(),
                                          kc, want.data());
      for (auto kind : supported_kinds()) {
        if (kind == kernels::Kind::kScalar) continue;
        got = acc0;
        kernels::fn(kind)(panel_a.data(), mc, panel_b.data(), kc, got.data());
        ASSERT_EQ(std::memcmp(want.data(), got.data(),
                              want.size() * sizeof(float)),
                  0)
            << "scalar vs " << kernels::name(kind) << " mc=" << mc
            << " kc=" << kc;
      }
    }
  }
}
#endif  // __FMA__

TEST(KernelDispatch, ParseAcceptsExactlyTheFourNames) {
  kernels::Kind k;
  EXPECT_TRUE(kernels::parse("scalar", &k));
  EXPECT_EQ(k, kernels::Kind::kScalar);
  EXPECT_TRUE(kernels::parse("vec", &k));
  EXPECT_EQ(k, kernels::Kind::kVec);
  EXPECT_TRUE(kernels::parse("avx2", &k));
  EXPECT_EQ(k, kernels::Kind::kAvx2);
  EXPECT_TRUE(kernels::parse("amx", &k));
  EXPECT_EQ(k, kernels::Kind::kAmxBf16);
  EXPECT_FALSE(kernels::parse("", &k));
  EXPECT_FALSE(kernels::parse("AVX2", &k));
  EXPECT_FALSE(kernels::parse("AMX", &k));
  EXPECT_FALSE(kernels::parse("sse", &k));
  for (int i = 0; i < kernels::kNumKinds; ++i) {
    const auto kind = static_cast<kernels::Kind>(i);
    ASSERT_TRUE(kernels::parse(kernels::name(kind), &k));
    EXPECT_EQ(k, kind);
  }
}

TEST(KernelDispatch, ScalarAndVecAlwaysSupported) {
  EXPECT_TRUE(kernels::supported(kernels::Kind::kScalar));
  EXPECT_TRUE(kernels::supported(kernels::Kind::kVec));
}

TEST(KernelDispatch, ForceRoundTripsAndRejectsUnsupported) {
  KernelGuard guard;
  for (auto kind : supported_kinds()) {
    EXPECT_TRUE(kernels::force(kind));
    EXPECT_EQ(kernels::active(), kind);
  }
  if (!kernels::supported(kernels::Kind::kAvx2)) {
    const auto before = kernels::active();
    EXPECT_FALSE(kernels::force(kernels::Kind::kAvx2));
    EXPECT_EQ(kernels::active(), before);
  }
}

// ---- the AMX-BF16 kind ------------------------------------------------------
//
// amx rounds both panels to bf16 before its FP32-accumulating tile product,
// so it is checked against an FP64 reference on the unrounded panels, not
// against scalar's bits.

constexpr const char* kNoAmx =
    "amx is unsupported on this build/host (it needs the AMX flags at build "
    "time, cpuid's amx-tile and amx-bf16, and the OS's tile-state grant)";

// Direct kernel calls for every mc in 1..kPanelM and every K shape around
// the 32-deep tile chunk. A's columns and B's rows past kc hold NaN (the
// short MHA kernel leaves stale values there), acc rows >= mc must come
// back bitwise untouched, and each row's bits must not depend on mc.
//
// Error bound per element, from bf16 input rounding: RNE to 8 significant
// bits gives |a^ - a| <= u|a| and |b^ - b| <= u|b| with u = 2^-8, so
// |a^ b^ - a b| <= (2u + u^2)|a b|. Each product a^ b^ (8 x 8 significant
// bits) is exact in FP32; summing kc of them and adding the result to acc
// in FP32, in any order, errs by at most gamma_{kc+1} (Sum|a^ b^| + |acc0|),
// gamma_n = n e / (1 - n e), e = 2^-24, with Sum|a^ b^| <= (1 + u)^2 S for
// S = Sum|a b|.
TEST(KernelAmx, EveryRowAndDepthWithinBf16Bound) {
  if (!kernels::supported(kernels::Kind::kAmxBf16)) GTEST_SKIP() << kNoAmx;
  using kernels::kPanelK;
  using kernels::kPanelM;
  using kernels::kPanelN;
  const auto amx = kernels::fn(kernels::Kind::kAmxBf16);
  const double u = std::ldexp(1.0, -8);
  const double e = std::ldexp(1.0, -24);
  const float nan = std::numeric_limits<float>::quiet_NaN();
  Rng rng(31);
  std::vector<float> panel_a(static_cast<std::size_t>(kPanelM) * kPanelK);
  std::vector<float> panel_b(static_cast<std::size_t>(kPanelK) * kPanelN);
  std::vector<float> acc0(static_cast<std::size_t>(kPanelM) * kPanelN);
  std::vector<float> full(acc0.size());
  std::vector<float> got(acc0.size());
  for (int kc : {1, 5, 31, 32, 33, 127, 128}) {
    std::fill(panel_a.begin(), panel_a.end(), nan);
    std::fill(panel_b.begin(), panel_b.end(), nan);
    for (int i = 0; i < kPanelM; ++i) {
      for (int p = 0; p < kc; ++p) {
        panel_a[static_cast<std::size_t>(i) * kPanelK + p] = rng.normal();
      }
    }
    rng.fill_normal(std::span<float>(panel_b.data(),
                                     static_cast<std::size_t>(kc) * kPanelN));
    rng.fill_normal(std::span<float>(acc0));
    full = acc0;
    amx(panel_a.data(), kPanelM, panel_b.data(), kc, full.data());

    const double gamma = (kc + 1) * e / (1.0 - (kc + 1) * e);
    for (int i = 0; i < kPanelM; ++i) {
      for (int j = 0; j < kPanelN; ++j) {
        double ref = 0;
        double s = 0;
        for (int p = 0; p < kc; ++p) {
          const double ab =
              static_cast<double>(
                  panel_a[static_cast<std::size_t>(i) * kPanelK + p]) *
              panel_b[static_cast<std::size_t>(p) * kPanelN + j];
          ref += ab;
          s += std::abs(ab);
        }
        const double seed = acc0[static_cast<std::size_t>(i) * kPanelN + j];
        const double bound = (2 * u + u * u) * s +
                             gamma * ((1 + u) * (1 + u) * s + std::abs(seed));
        const double out = full[static_cast<std::size_t>(i) * kPanelN + j];
        ASSERT_LE(std::abs(out - (seed + ref)), bound)
            << "kc=" << kc << " at (" << i << ", " << j << ")";
      }
    }

    // Rows >= mc start as -0.0: adding anything to them, even +0.0,
    // changes their bits.
    for (int mc = 1; mc < kPanelM; ++mc) {  // mc = kPanelM made `full`
      const std::size_t split = static_cast<std::size_t>(mc) * kPanelN;
      got = acc0;
      const auto tail = got.begin() + static_cast<std::ptrdiff_t>(split);
      std::fill(tail, got.end(), -0.0f);
      const std::vector<float> untouched(tail, got.end());
      amx(panel_a.data(), mc, panel_b.data(), kc, got.data());
      ASSERT_EQ(std::memcmp(got.data(), full.data(), split * sizeof(float)), 0)
          << "rows < mc depend on mc: mc=" << mc << " kc=" << kc;
      ASSERT_EQ(std::memcmp(got.data() + split, untouched.data(),
                            untouched.size() * sizeof(float)),
                0)
          << "acc rows >= mc were written: mc=" << mc << " kc=" << kc;
    }
  }
}

// A whole GEMM under amx must not depend on how its tiles are spread over
// workers: prepacked weights and dynamic B, on 1, 2 and 3 workers.
TEST(KernelAmx, GemmBitwiseIndependentOfWorkerCount) {
  if (!kernels::supported(kernels::Kind::kAmxBf16)) GTEST_SKIP() << kNoAmx;
  KernelGuard guard;
  ASSERT_TRUE(kernels::force(kernels::Kind::kAmxBf16));
  const int m = 150;
  const int n = 200;
  const int k = 300;
  Rng rng(37);
  auto a = Tensor<fp16_t>::random_normal({m, k}, rng);
  auto b = Tensor<fp16_t>::random_normal({k, n}, rng);
  const PackedB pb = PackedB::pack(Trans::N, b.data(), n, k, n);
  std::vector<Tensor<fp16_t>> dynamic, prepacked;
  for (int workers : {1, 2, 3}) {
    par::Device d(workers);
    dynamic.push_back(Tensor<fp16_t>::zeros({m, n}));
    prepacked.push_back(Tensor<fp16_t>::zeros({m, n}));
    gemm_f16(d, Trans::N, Trans::N, m, n, k, 1.0f, a.data(), k, b.data(), n,
             0.0f, dynamic.back().data(), n);
    gemm_prepacked(d, Trans::N, m, n, k, 1.0f, a.data(), k, pb, 0.0f,
                   prepacked.back().data(), n);
  }
  for (std::size_t w = 0; w < dynamic.size(); ++w) {
    for (std::int64_t i = 0; i < dynamic[0].size(); ++i) {
      ASSERT_EQ(dynamic[0].data()[i].bits(), dynamic[w].data()[i].bits())
          << "dynamic, run " << w << " at " << i;
      ASSERT_EQ(dynamic[0].data()[i].bits(), prepacked[w].data()[i].bits())
          << "prepacked, run " << w << " at " << i;
    }
  }
}

// GEMMs on FP32 storage keep an FP32 kernel under amx: the result is the
// best FP32 kind's, bit for bit.
TEST(KernelAmx, Fp32StorageKeepsTheFp32Kernel) {
  if (!kernels::supported(kernels::Kind::kAmxBf16)) GTEST_SKIP() << kNoAmx;
  KernelGuard guard;
  const int m = 70;
  const int n = 90;
  const int k = 200;
  Rng rng(41);
  auto a = Tensor<float>::random_normal({m, k}, rng);
  auto b = Tensor<float>::random_normal({k, n}, rng);
  const auto best_fp32 = supported_kinds().back();
  ASSERT_TRUE(kernels::force(best_fp32));
  auto want = Tensor<float>::zeros({m, n});
  gemm_f32(dev(), Trans::N, Trans::N, m, n, k, 1.0f, a.data(), k, b.data(), n,
           0.0f, want.data(), n);
  ASSERT_TRUE(kernels::force(kernels::Kind::kAmxBf16));
  auto got = Tensor<float>::zeros({m, n});
  gemm_f32(dev(), Trans::N, Trans::N, m, n, k, 1.0f, a.data(), k, b.data(), n,
           0.0f, got.data(), n);
  ASSERT_EQ(std::memcmp(want.data(), got.data(),
                        static_cast<std::size_t>(want.size()) * sizeof(float)),
            0)
      << "fp32 GEMM under amx differs from " << kernels::name(best_fp32);
}

TEST(PackedB, PanelsMatchPackBPanel) {
  const int k = 200;  // 2 K blocks, ragged
  const int n = 100;  // 2 column tiles, ragged
  Rng rng(11);
  auto b = Tensor<fp16_t>::random_normal({k, n}, rng);
  const PackedB pb = PackedB::pack(Trans::N, b.data(), n, k, n);
  EXPECT_EQ(pb.k_blocks(), 2);
  EXPECT_EQ(pb.tiles_n(), 2);

  std::vector<float> want(static_cast<std::size_t>(PackedB::kPanelElems));
  for (std::int64_t tn = 0; tn < pb.tiles_n(); ++tn) {
    for (std::int64_t k0 = 0; k0 < k; k0 += TileShape::kK) {
      const int kc = static_cast<int>(
          std::min<std::int64_t>(TileShape::kK, k - k0));
      const int nc = static_cast<int>(
          std::min<std::int64_t>(TileShape::kN, n - tn * TileShape::kN));
      std::fill(want.begin(), want.end(), 0.0f);
      pack_b_panel(Trans::N, b.data(), n, k0, tn * TileShape::kN, kc, nc,
                   want.data());
      EXPECT_EQ(std::memcmp(pb.panel(tn, k0), want.data(),
                            want.size() * sizeof(float)),
                0)
          << "tile_n=" << tn << " k0=" << k0;
    }
  }
}

TEST(PackedB, PrepackedGemmBitwiseEqualsOnTheFly) {
  // The panels are byte-identical to pack_b_panel output, so the whole GEMM
  // must match bit for bit — for every supported kernel.
  KernelGuard guard;
  const int m = 97;
  const int n = 129;
  const int k = 150;
  Rng rng(13);
  auto a = Tensor<fp16_t>::random_normal({m, k}, rng);
  auto b = Tensor<fp16_t>::random_normal({k, n}, rng);
  const PackedB pb = PackedB::pack(Trans::N, b.data(), n, k, n);
  for (auto kind : supported_kinds()) {
    ASSERT_TRUE(kernels::force(kind));
    auto c_fly = Tensor<fp16_t>::zeros({m, n});
    auto c_pre = Tensor<fp16_t>::zeros({m, n});
    gemm_f16(dev(), Trans::N, Trans::N, m, n, k, 1.0f, a.data(), k, b.data(),
             n, 0.0f, c_fly.data(), n);
    gemm_prepacked(dev(), Trans::N, m, n, k, 1.0f, a.data(), k, pb, 0.0f,
                   c_pre.data(), n);
    for (std::int64_t i = 0; i < c_fly.size(); ++i) {
      ASSERT_EQ(c_fly.data()[i].bits(), c_pre.data()[i].bits())
          << "kernel=" << kernels::name(kind) << " at " << i;
    }
  }
}

TEST(PackedB, BatchedPrepackedBitwiseEqualsOnTheFly) {
  const int batch = 3;
  const int m = 70;
  const int n = 65;
  const int k = 140;
  Rng rng(17);
  auto a = Tensor<fp16_t>::random_normal({batch * m, k}, rng);
  auto b = Tensor<fp16_t>::random_normal({k, n}, rng);  // shared across batch
  const PackedB pb = PackedB::pack(Trans::N, b.data(), n, k, n);
  auto c_fly = Tensor<fp16_t>::zeros({batch * m, n});
  auto c_pre = Tensor<fp16_t>::zeros({batch * m, n});
  batched_gemm<fp16_t, fp16_t, fp16_t>(
      dev(), Trans::N, Trans::N, batch, m, n, k, 1.0f, a.data(), k,
      static_cast<std::int64_t>(m) * k, b.data(), n, /*stride_b=*/0, 0.0f,
      c_fly.data(), n, static_cast<std::int64_t>(m) * n);
  batched_gemm_prepacked(dev(), Trans::N, batch, m, n, k, 1.0f, a.data(), k,
                         static_cast<std::int64_t>(m) * k, pb, 0.0f,
                         c_pre.data(), n, static_cast<std::int64_t>(m) * n);
  for (std::int64_t i = 0; i < c_fly.size(); ++i) {
    ASSERT_EQ(c_fly.data()[i].bits(), c_pre.data()[i].bits()) << i;
  }
}

TEST(PackedB, GroupedPackedBProblemsBitwiseEqualOnTheFly) {
  // Mixed grouped batch: some problems carry persistent panels, some pack
  // on the fly; both routes must agree bitwise with the all-dynamic run.
  Rng rng(19);
  const std::tuple<int, int, int> shapes[] = {
      {70, 64, 64}, {40, 130, 200}, {128, 64, 512}};
  std::vector<Tensor<fp16_t>> as, bs;
  std::vector<Tensor<fp16_t>> c_fly, c_mix;
  std::vector<PackedB> packed;
  std::vector<GroupedProblem<fp16_t, fp16_t, fp16_t>> fly, mix;
  for (auto [m, n, k] : shapes) {
    as.push_back(Tensor<fp16_t>::random_normal({m, k}, rng));
    bs.push_back(Tensor<fp16_t>::random_normal({k, n}, rng));
    c_fly.push_back(Tensor<fp16_t>::zeros({m, n}));
    c_mix.push_back(Tensor<fp16_t>::zeros({m, n}));
    packed.push_back(PackedB::pack(Trans::N, bs.back().data(), n, k, n));
  }
  for (std::size_t i = 0; i < std::size(shapes); ++i) {
    const auto [m, n, k] = shapes[i];
    GroupedProblem<fp16_t, fp16_t, fp16_t> p;
    p.m = m;
    p.n = n;
    p.k = k;
    p.a = as[i].data();
    p.lda = k;
    p.b = bs[i].data();
    p.ldb = n;
    p.ldc = n;
    p.c = c_fly[i].data();
    fly.push_back(p);
    p.c = c_mix[i].data();
    if (i % 2 == 0) p.packed_b = &packed[i];
    mix.push_back(p);
  }
  grouped_gemm<fp16_t, fp16_t, fp16_t>(
      dev(), Trans::N, Trans::N,
      std::span<const GroupedProblem<fp16_t, fp16_t, fp16_t>>(fly), 1.0f,
      0.0f);
  grouped_gemm<fp16_t, fp16_t, fp16_t>(
      dev(), Trans::N, Trans::N,
      std::span<const GroupedProblem<fp16_t, fp16_t, fp16_t>>(mix), 1.0f,
      0.0f);
  for (std::size_t i = 0; i < std::size(shapes); ++i) {
    for (std::int64_t j = 0; j < c_fly[i].size(); ++j) {
      ASSERT_EQ(c_fly[i].data()[j].bits(), c_mix[i].data()[j].bits())
          << "problem " << i << " elem " << j;
    }
  }
}

TEST(PackedB, TransposedPackMatchesReference) {
  // op(B) = B^T baked into the panels at pack time.
  const int m = 33;
  const int n = 150;
  const int k = 70;
  Rng rng(23);
  auto a = Tensor<float>::random_normal({m, k}, rng);
  auto b = Tensor<float>::random_normal({n, k}, rng);  // stored n x k
  const PackedB pb = PackedB::pack(Trans::T, b.data(), k, k, n);
  auto c = Tensor<float>::zeros({m, n});
  gemm_prepacked(dev(), Trans::N, m, n, k, 1.0f, a.data(), k, pb, 0.0f,
                 c.data(), n);
  std::vector<double> want(static_cast<std::size_t>(m) * n);
  gemm_reference(Trans::N, Trans::T, m, n, k, 1.0, a.data(), k, b.data(), k,
                 want.data(), n);
  for (std::int64_t i = 0; i < c.size(); ++i) {
    EXPECT_NEAR(c.data()[i], want[static_cast<std::size_t>(i)], 2e-3);
  }
}

TEST(CtaScratchDeath, OverflowAbortsLoudly) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  par::CtaScratch scratch(1024);
  EXPECT_DEATH(scratch.alloc_or_abort<float>(1024, "oversized panel"),
               "oversized panel");
}

}  // namespace
}  // namespace bt::gemm
