// Batched GEMM == loop of single GEMMs; grouped GEMM == loop of single GEMMs
// over arbitrary shape sets, for any scheduler prefetch width.
#include <gtest/gtest.h>

#include <array>
#include <vector>

#include "common/rng.h"
#include "gemm/batched.h"
#include "gemm/gemm.h"
#include "gemm/grouped.h"
#include "parallel/device.h"
#include "tensor/tensor.h"

namespace bt::gemm {
namespace {

par::Device& dev() {
  static par::Device d(2);
  return d;
}

TEST(BatchedGemm, MatchesPerBatchGemm) {
  const int batch = 6;
  const int m = 40;
  const int n = 50;
  const int k = 64;
  Rng rng(31);
  auto a = Tensor<fp16_t>::random_normal({batch, m, k}, rng);
  auto b = Tensor<fp16_t>::random_normal({batch, k, n}, rng);
  auto c = Tensor<fp16_t>::zeros({batch, m, n});
  batched_gemm<fp16_t, fp16_t, fp16_t>(
      dev(), Trans::N, Trans::N, batch, m, n, k, 1.0f, a.data(), k,
      static_cast<std::int64_t>(m) * k, b.data(), n,
      static_cast<std::int64_t>(k) * n, 0.0f, c.data(), n,
      static_cast<std::int64_t>(m) * n);

  for (int bi = 0; bi < batch; ++bi) {
    auto want = Tensor<fp16_t>::zeros({m, n});
    gemm_f16(dev(), Trans::N, Trans::N, m, n, k, 1.0f,
             a.data() + static_cast<std::int64_t>(bi) * m * k, k,
             b.data() + static_cast<std::int64_t>(bi) * k * n, n, 0.0f,
             want.data(), n);
    for (std::int64_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ(c.data()[static_cast<std::int64_t>(bi) * m * n + i].bits(),
                want.data()[i].bits());
    }
  }
}

TEST(BatchedGemm, SharedOperandViaZeroStride) {
  // Batch stride 0 on B: every batch multiplies the same matrix — the
  // pattern DeBERTa uses for the shared relative-embedding projections.
  const int batch = 4;
  const int m = 30;
  const int n = 20;
  const int k = 32;
  Rng rng(32);
  auto a = Tensor<fp16_t>::random_normal({batch, m, k}, rng);
  auto b = Tensor<fp16_t>::random_normal({k, n}, rng);
  auto c = Tensor<fp16_t>::zeros({batch, m, n});
  batched_gemm<fp16_t, fp16_t, fp16_t>(
      dev(), Trans::N, Trans::N, batch, m, n, k, 1.0f, a.data(), k,
      static_cast<std::int64_t>(m) * k, b.data(), n, 0, 0.0f, c.data(), n,
      static_cast<std::int64_t>(m) * n);
  for (int bi = 0; bi < batch; ++bi) {
    auto want = Tensor<fp16_t>::zeros({m, n});
    gemm_f16(dev(), Trans::N, Trans::N, m, n, k, 1.0f,
             a.data() + static_cast<std::int64_t>(bi) * m * k, k, b.data(), n,
             0.0f, want.data(), n);
    for (std::int64_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ(c.data()[static_cast<std::int64_t>(bi) * m * n + i].bits(),
                want.data()[i].bits());
    }
  }
}

struct GroupedCase {
  std::vector<std::array<std::int64_t, 3>> shapes;  // (m, n, k) per problem
};

void run_grouped_case(const GroupedCase& gc, std::int64_t prefetch) {
  Rng rng(41);
  std::vector<Tensor<fp16_t>> as;
  std::vector<Tensor<fp16_t>> bs;
  std::vector<Tensor<fp16_t>> cs;
  std::vector<GroupedProblem<fp16_t, fp16_t, fp16_t>> problems;
  for (const auto& [m, n, k] : gc.shapes) {
    as.push_back(Tensor<fp16_t>::random_normal({m, k}, rng));
    bs.push_back(Tensor<fp16_t>::random_normal({k, n}, rng));
    cs.push_back(Tensor<fp16_t>::zeros({m, n}));
  }
  for (std::size_t i = 0; i < gc.shapes.size(); ++i) {
    const auto& [m, n, k] = gc.shapes[i];
    problems.push_back({m, n, k, as[i].data(), k, bs[i].data(), n,
                        cs[i].data(), n});
  }
  grouped_gemm<fp16_t, fp16_t, fp16_t>(
      dev(), Trans::N, Trans::N,
      std::span<const GroupedProblem<fp16_t, fp16_t, fp16_t>>(problems), 1.0f,
      0.0f, {}, {}, prefetch);

  for (std::size_t i = 0; i < gc.shapes.size(); ++i) {
    const auto& [m, n, k] = gc.shapes[i];
    auto want = Tensor<fp16_t>::zeros({m, n});
    gemm_f16(dev(), Trans::N, Trans::N, m, n, k, 1.0f, as[i].data(), k,
             bs[i].data(), n, 0.0f, want.data(), n);
    for (std::int64_t e = 0; e < want.size(); ++e) {
      ASSERT_EQ(cs[i].data()[e].bits(), want.data()[e].bits())
          << "problem " << i << " elem " << e << " prefetch " << prefetch;
    }
  }
}

TEST(GroupedGemm, VariableShapesPrefetch32) {
  run_grouped_case({{{100, 100, 64}, {37, 211, 64}, {1, 1, 64}, {64, 64, 64}}},
                   32);
}

TEST(GroupedGemm, VariableShapesPrefetch1) {
  run_grouped_case({{{100, 100, 64}, {37, 211, 64}, {1, 1, 64}, {64, 64, 64}}},
                   1);
}

TEST(GroupedGemm, PrefetchWidthsAgree) {
  // The scheduler prefetch width is a pure performance knob: results must be
  // identical for any value.
  GroupedCase gc{{{70, 70, 32}, {130, 20, 32}, {5, 200, 32}}};
  run_grouped_case(gc, 1);
  run_grouped_case(gc, 2);
  run_grouped_case(gc, 8);
  run_grouped_case(gc, 32);
  run_grouped_case(gc, 1000);
}

TEST(GroupedGemm, SingleProblemEqualsPlainGemm) {
  run_grouped_case({{{129, 65, 128}}}, 32);
}

TEST(GroupedGemm, ManySmallProblems) {
  GroupedCase gc;
  Rng rng(55);
  for (int i = 0; i < 40; ++i) {
    gc.shapes.push_back({rng.uniform_int(1, 70), rng.uniform_int(1, 70), 64});
  }
  run_grouped_case(gc, 32);
}

TEST(GroupedGemm, EmptyProblemListIsNoOp) {
  std::vector<GroupedProblem<fp16_t, fp16_t, fp16_t>> empty;
  grouped_gemm<fp16_t, fp16_t, fp16_t>(
      dev(), Trans::N, Trans::N,
      std::span<const GroupedProblem<fp16_t, fp16_t, fp16_t>>(empty), 1.0f,
      0.0f);
}

TEST(GroupedGemm, MhaShapedProblems) {
  // (len x len x d) then (len x d x len): the exact shapes fused-long MHA
  // submits, with strided views (ld = hidden) into packed tensors.
  const int heads = 3;
  const int d = 32;
  const int hidden = heads * d;
  const std::vector<int> lens{50, 128, 7};
  std::int64_t valid = 0;
  for (int l : lens) valid += l;
  Rng rng(66);
  auto q = Tensor<fp16_t>::random_normal({valid, hidden}, rng);
  auto k = Tensor<fp16_t>::random_normal({valid, hidden}, rng);

  std::vector<Tensor<fp16_t>> scores;
  std::vector<GroupedProblem<fp16_t, fp16_t, fp16_t>> problems;
  std::int64_t row0 = 0;
  for (int l : lens) {
    for (int h = 0; h < heads; ++h) {
      scores.push_back(Tensor<fp16_t>::zeros({l, l}));
    }
    row0 += l;
  }
  row0 = 0;
  std::size_t si = 0;
  for (int l : lens) {
    for (int h = 0; h < heads; ++h, ++si) {
      problems.push_back({l, l, d, q.data() + row0 * hidden + h * d, hidden,
                          k.data() + row0 * hidden + h * d, hidden,
                          scores[si].data(), l});
    }
    row0 += l;
  }
  grouped_gemm<fp16_t, fp16_t, fp16_t>(
      dev(), Trans::N, Trans::T,
      std::span<const GroupedProblem<fp16_t, fp16_t, fp16_t>>(problems),
      0.125f, 0.0f);

  // Validate one unit against the reference.
  row0 = 0;
  si = 0;
  for (int l : lens) {
    for (int h = 0; h < heads; ++h, ++si) {
      std::vector<double> want(static_cast<std::size_t>(l) * l);
      gemm_reference(Trans::N, Trans::T, l, l, d, 0.125,
                     q.data() + row0 * hidden + h * d, hidden,
                     k.data() + row0 * hidden + h * d, hidden, want.data(), l);
      for (std::int64_t e = 0; e < static_cast<std::int64_t>(l) * l; ++e) {
        ASSERT_NEAR(load_f32(scores[si].data()[e]),
                    want[static_cast<std::size_t>(e)], 2e-2);
      }
    }
    row0 += l;
  }
}

TEST(GroupedGemm, QkTransposedColumnTilesMatchPerProblemGemm) {
  // Q K^T exactly as fused-long MHA submits it: Trans::T B read through
  // ld = hidden views, ragged lengths giving 1..5 column tiles per problem.
  // The visitor's column-major order re-targets each CTA's B stripe per
  // column; every tile must still equal a plain per-problem gemm bitwise,
  // for any prefetch width.
  const int heads = 2;
  const int d = 64;
  const int hidden = heads * d;
  const std::vector<int> lens{300, 17, 129, 64, 200};
  std::int64_t valid = 0;
  for (int l : lens) valid += l;
  Rng rng(77);
  auto q = Tensor<fp16_t>::random_normal({valid, hidden}, rng);
  auto k = Tensor<fp16_t>::random_normal({valid, hidden}, rng);

  for (std::int64_t prefetch : {1, 3, 32}) {
    std::vector<Tensor<fp16_t>> scores;
    std::vector<GroupedProblem<fp16_t, fp16_t, fp16_t>> problems;
    std::vector<std::int64_t> rows0;
    std::int64_t row0 = 0;
    for (int l : lens) {
      for (int h = 0; h < heads; ++h) {
        scores.push_back(Tensor<fp16_t>::zeros({l, l}));
        rows0.push_back(row0);
      }
      row0 += l;
    }
    std::size_t si = 0;
    for (int l : lens) {
      for (int h = 0; h < heads; ++h, ++si) {
        problems.push_back({l, l, d, q.data() + rows0[si] * hidden + h * d,
                            hidden, k.data() + rows0[si] * hidden + h * d,
                            hidden, scores[si].data(), l});
      }
    }
    grouped_gemm<fp16_t, fp16_t, fp16_t>(
        dev(), Trans::N, Trans::T,
        std::span<const GroupedProblem<fp16_t, fp16_t, fp16_t>>(problems),
        0.125f, 0.0f, {}, {}, prefetch);

    for (std::size_t p = 0; p < problems.size(); ++p) {
      const auto& pr = problems[p];
      auto want = Tensor<fp16_t>::zeros({pr.m, pr.n});
      gemm_f16(dev(), Trans::N, Trans::T, pr.m, pr.n, pr.k, 0.125f, pr.a,
               pr.lda, pr.b, pr.ldb, 0.0f, want.data(), pr.n);
      for (std::int64_t e = 0; e < want.size(); ++e) {
        ASSERT_EQ(scores[p].data()[e].bits(), want.data()[e].bits())
            << "problem " << p << " elem " << e << " prefetch " << prefetch;
      }
    }
  }
}

}  // namespace
}  // namespace bt::gemm
