// Scalar numeric helpers.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <type_traits>
#include <vector>

#include "common/numeric.h"
#include "common/rng.h"
#include "common/timer.h"

namespace bt {
namespace {

TEST(Numeric, CeilDiv) {
  EXPECT_EQ(ceil_div(0, 4), 0);
  EXPECT_EQ(ceil_div(1, 4), 1);
  EXPECT_EQ(ceil_div(4, 4), 1);
  EXPECT_EQ(ceil_div(5, 4), 2);
  EXPECT_EQ(ceil_div(1023, 64), 16);
  EXPECT_EQ(ceil_div(1024, 64), 16);
  EXPECT_EQ(ceil_div(1025, 64), 17);
}

TEST(Numeric, RoundUp) {
  EXPECT_EQ(round_up(0, 64), 0);
  EXPECT_EQ(round_up(1, 64), 64);
  EXPECT_EQ(round_up(64, 64), 64);
  EXPECT_EQ(round_up(65, 64), 128);
}

TEST(Numeric, FastTanhMatchesLibm) {
  for (float x = -10.0f; x <= 10.0f; x += 0.001f) {
    EXPECT_NEAR(fast_tanh(x), std::tanh(x), 2e-4) << "x=" << x;
  }
  EXPECT_EQ(fast_tanh(0.0f), 0.0f);
  EXPECT_NEAR(fast_tanh(100.0f), 1.0f, 2e-4);
  EXPECT_NEAR(fast_tanh(-100.0f), -1.0f, 2e-4);
}

TEST(Numeric, GeluTanhMatchesErfClosely) {
  // The tanh approximation tracks exact GELU to ~1e-3 over the active range.
  for (float x = -6.0f; x <= 6.0f; x += 0.01f) {
    const double exact = gelu_erf(x);
    EXPECT_NEAR(gelu_tanh(x), exact, 3e-3) << "x=" << x;
  }
}

TEST(Numeric, GeluFixedPoints) {
  EXPECT_FLOAT_EQ(gelu_tanh(0.0f), 0.0f);
  EXPECT_NEAR(gelu_tanh(1.0f), 0.8412f, 1e-3);
  EXPECT_NEAR(gelu_tanh(-1.0f), -0.1588f, 1e-3);
  // Saturation: gelu(x) -> x for large x, -> 0 for very negative x.
  EXPECT_NEAR(gelu_tanh(10.0f), 10.0f, 1e-4);
  EXPECT_NEAR(gelu_tanh(-10.0f), 0.0f, 1e-4);
}

TEST(Numeric, SoftmaxScale) {
  EXPECT_FLOAT_EQ(softmax_scale(64), 0.125f);
  EXPECT_FLOAT_EQ(softmax_scale(4), 0.5f);
}

// fast_exp's stated contract (common/numeric.h): relative error < 2e-7 above
// the lower clamp, exactly 0 at or below it.
TEST(Numeric, FastExpMatchesLibm) {
  constexpr float kLo = -87.0f;
  double worst = 0.0;
  for (float x = -88.0f; x <= 2.0f; x += 3e-4f) {
    const float got = fast_exp(x);
    if (x <= kLo) {
      ASSERT_EQ(got, 0.0f) << "x=" << x;
      continue;
    }
    const double want = std::exp(static_cast<double>(x));
    worst = std::max(worst, std::fabs(got - want) / want);
  }
  EXPECT_LT(worst, 2e-7);
  // Points the sweep's grid steps over: just above the clamp, around 0
  // (softmax inputs x - max are <= 0) and the upper clamp.
  for (float x : {-86.99f, -50.0f, -1e-6f, 1e-6f, 10.0f, 88.0f}) {
    const double want = std::exp(static_cast<double>(x));
    EXPECT_LT(std::fabs(fast_exp(x) - want) / want, 2e-7) << "x=" << x;
  }
}

TEST(Numeric, FastExpFixedPoints) {
  EXPECT_EQ(fast_exp(0.0f), 1.0f);
  EXPECT_EQ(fast_exp(-0.0f), 1.0f);
  // At or below the clamp — -inf included — the result is exactly +0, not
  // a denormal: causal masks rely on exp(-inf) == 0.
  for (float x : {-87.0f, -87.5f, -100.0f, -1e30f, -INFINITY}) {
    const float got = fast_exp(x);
    EXPECT_EQ(got, 0.0f) << "x=" << x;
    EXPECT_FALSE(std::signbit(got)) << "x=" << x;
  }
  EXPECT_TRUE(std::isnan(fast_exp(NAN)));
  EXPECT_TRUE(std::isfinite(fast_exp(INFINITY)));
}

TEST(Numeric, FastExpIsPositionIndependent) {
  // exp_row runs every element (the padded tail included) through the same
  // 8-wide path: a value depends only on its input, never on the row length
  // or the offset it starts at — the property that keeps a resumed prefix
  // bitwise equal to a full re-encode.
  Rng rng(7);
  std::vector<float> src(77);
  for (float& v : src) v = rng.uniform(-20.0f, 3.0f);
  const float sub = 1.25f;
  for (std::int64_t off = 0; off < 9; ++off) {
    for (std::int64_t n = 0; n + off <= static_cast<std::int64_t>(src.size()); n += 5) {
      std::vector<float> dst(static_cast<std::size_t>(n), -1.0f);
      exp_row(src.data() + off, sub, dst.data(), n);
      for (std::int64_t j = 0; j < n; ++j) {
        ASSERT_EQ(dst[static_cast<std::size_t>(j)],
                  fast_exp(src[static_cast<std::size_t>(off + j)] - sub))
            << "off=" << off << " n=" << n << " j=" << j;
      }
    }
  }
  // In place is the same as out of place, and nothing past n is written.
  std::vector<float> inplace(src.begin(), src.begin() + 13);
  inplace.push_back(42.0f);
  exp_row(inplace.data(), sub, inplace.data(), 13);
  for (int j = 0; j < 13; ++j) {
    EXPECT_EQ(inplace[static_cast<std::size_t>(j)],
              fast_exp(src[static_cast<std::size_t>(j)] - sub));
  }
  EXPECT_EQ(inplace[13], 42.0f);
}

TEST(Numeric, FastExpMaskedRowsStayFinite) {
  // The online-softmax update flash_like runs per query row: the running
  // max starts at -inf, and keys past a causal query are masked to -inf.
  // The first tile's correction and every masked key must come out exactly
  // 0, and a tile whose keys are all masked must leave the row unchanged.
  const std::vector<std::vector<float>> tiles{
      {0.5f, -INFINITY, -INFINITY, -INFINITY},              // key 0 live
      {-INFINITY, -INFINITY, -INFINITY, -INFINITY, -INFINITY}};  // all masked
  float m_run = -INFINITY;
  float l_run = 0.0f;
  for (std::size_t t = 0; t < tiles.size(); ++t) {
    std::vector<float> s = tiles[t];
    float tile_max = s[0];
    for (float v : s) tile_max = std::max(tile_max, v);
    const float m_new = std::max(m_run, tile_max);
    const float correction = fast_exp(m_run - m_new);
    EXPECT_EQ(correction, t == 0 ? 0.0f : 1.0f);
    exp_row(s.data(), m_new, s.data(), static_cast<std::int64_t>(s.size()));
    float tile_sum = 0.0f;
    for (std::size_t j = 0; j < s.size(); ++j) {
      ASSERT_FALSE(std::isnan(s[j]));
      if (tiles[t][j] == -INFINITY) {
        EXPECT_EQ(s[j], 0.0f);
      }
      tile_sum += s[j];
    }
    l_run = l_run * correction + tile_sum;
    m_run = m_new;
  }
  EXPECT_EQ(m_run, 0.5f);
  EXPECT_EQ(l_run, 1.0f);  // only key 0 contributes: exp(0.5 - 0.5)
}

TEST(Rng, Deterministic) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.normal(), b.normal());
  }
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.normal() == b.normal()) ++same;
  }
  EXPECT_LT(same, 5);
}

TEST(Rng, UniformIntBounds) {
  Rng rng(5);
  for (int i = 0; i < 10000; ++i) {
    const int v = rng.uniform_int(3, 17);
    EXPECT_GE(v, 3);
    EXPECT_LE(v, 17);
  }
}

TEST(Rng, FillNormalStats) {
  Rng rng(9);
  std::vector<float> v(100000);
  rng.fill_normal(std::span<float>(v), 2.0f, 3.0f);
  double mean = 0;
  for (float x : v) mean += x;
  mean /= static_cast<double>(v.size());
  double var = 0;
  for (float x : v) var += (x - mean) * (x - mean);
  var /= static_cast<double>(v.size());
  EXPECT_NEAR(mean, 2.0, 0.05);
  EXPECT_NEAR(std::sqrt(var), 3.0, 0.05);
}

TEST(Timer, MeasuresElapsed) {
  Timer t;
  volatile double sink = 0;
  for (int i = 0; i < 2000000; ++i) sink = sink + i;
  EXPECT_GT(t.seconds(), 0.0);
  EXPECT_LT(t.seconds(), 10.0);
}

static_assert(std::is_trivially_copyable_v<StageTimes>,
              "a Response copies its StageTimes without allocating");

TEST(StageTimes, AccumulatesPerStage) {
  StageTimes times;
  times.add(Stage::kGemm0, 1.0);
  times.add(Stage::kAttention, 2.0);
  times.add(Stage::kGemm0, 0.5);
  EXPECT_DOUBLE_EQ(times[Stage::kGemm0], 1.5);
  EXPECT_DOUBLE_EQ(times[Stage::kAttention], 2.0);
  EXPECT_DOUBLE_EQ(times[Stage::kLayernorm1], 0.0);
  EXPECT_DOUBLE_EQ(times.total_seconds(), 3.5);
  times.clear();
  for (Stage stage : kStages) {
    EXPECT_EQ(times[stage], 0.0) << stage_name(stage);
  }
  EXPECT_EQ(times.total_seconds(), 0.0);
}

TEST(StageTimes, NamesFollowPipelineOrder) {
  ASSERT_EQ(kStages.size(), kStageCount);
  for (std::size_t i = 0; i < kStages.size(); ++i) {
    EXPECT_EQ(static_cast<std::size_t>(kStages[i]), i);
  }
  EXPECT_STREQ(stage_name(Stage::kPadding), "padding");
  EXPECT_STREQ(stage_name(Stage::kAddBiasGelu), "add_bias_gelu");
  EXPECT_STREQ(stage_name(Stage::kLayernorm1), "layernorm1");
}

TEST(StageTimes, ScopeAttributesOnDestruction) {
  StageTimes times;
  {
    StageScope scope(&times, Stage::kGemm2);
    // long long: the triangular sum (~5e9) overflows int, which is UB the
    // UBSan CI leg rejects — the burn loop must be overflow-free.
    volatile long long sink = 0;
    for (int i = 0; i < 100000; ++i) sink = sink + i;
  }
  EXPECT_GT(times[Stage::kGemm2], 0.0);
  EXPECT_DOUBLE_EQ(times.total_seconds(), times[Stage::kGemm2]);
}

// A null sink turns a scope off: it times nothing and writes nowhere.
TEST(StageTimes, NullScopeIsANoOp) {
  { StageScope scope(nullptr, Stage::kGemm2); }
}

}  // namespace
}  // namespace bt
