// Fused epilogues / mainloop transforms.
//
// These functors are the CPU analogues of the paper's CUTLASS
// customizations:
//   * BiasEpilogue / BiasGeluEpilogue      — Sec. III-C2 (Fig. 10)
//   * SoftmaxPartialReduceEpilogue          — Fig. 8 (epilogue reduction of
//     per-tile max and sum-of-exp for the first grouped GEMM of fused MHA)
//   * SoftmaxNormalizeATransform            — Algorithm III.2 (mainloop
//     fusion: A-operand elements become exp(a - max)/sum on load in the
//     second grouped GEMM)
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "common/half.h"
#include "common/numeric.h"
#include "gemm/microkernel.h"

namespace bt::gemm {

// out = acc + bias[col]
template <typename TBias>
struct BiasEpilogue {
  const TBias* bias = nullptr;
  void on_row(int /*problem*/, std::int64_t /*row*/, std::int64_t col0,
              float* v, int n) const noexcept {
    float b[TileShape::kN];
    convert_row_f32(bias + col0, b, n);
    add_bias_row(v, b, n);
  }
};

// out = gelu(acc + bias[col]) — the paper's fused GEMM + add-bias + GELU.
template <typename TBias>
struct BiasGeluEpilogue {
  const TBias* bias = nullptr;
  void on_row(int /*problem*/, std::int64_t /*row*/, std::int64_t col0,
              float* v, int n) const noexcept {
    float b[TileShape::kN];
    convert_row_f32(bias + col0, b, n);
    bias_gelu_row(v, b, n);
  }
};

// Per-problem partial softmax statistics produced by the first fused-MHA
// grouped GEMM. Layout: partial_max/partial_sum are [rows x col_tiles]
// row-major; one entry per (row, kN-wide column tile).
struct SoftmaxPartials {
  float* partial_max = nullptr;  // [rows * col_tiles]
  float* partial_sum = nullptr;  // sum of exp(x - partial_max) per tile
  std::int64_t col_tiles = 0;
  std::int64_t rows = 0;
};

// Epilogue hook computing the per-tile reduction while the scaled scores are
// still in the accumulator. Values are stored unchanged (the normalization
// happens later, fused into the second GEMM's mainloop).
struct SoftmaxPartialReduceEpilogue {
  std::span<SoftmaxPartials> partials;

  void on_tile(int problem, std::int64_t row0, std::int64_t col0, int rows,
               int cols, const float* acc, int ld) const noexcept {
    const SoftmaxPartials& p = partials[static_cast<std::size_t>(problem)];
    const std::int64_t col_tile = col0 / TileShape::kN;
    float e[TileShape::kN];
    for (int i = 0; i < rows; ++i) {
      const float* acc_row = acc + static_cast<std::int64_t>(i) * ld;
      float mx = acc_row[0];
      for (int j = 1; j < cols; ++j) mx = std::max(mx, acc_row[j]);
      exp_row(acc_row, mx, e, cols);
      float sum = 0.0f;
      for (int j = 0; j < cols; ++j) sum += e[j];
      const std::int64_t idx = (row0 + i) * p.col_tiles + col_tile;
      p.partial_max[idx] = mx;
      p.partial_sum[idx] = sum;
    }
  }
};

// Fully-reduced per-row statistics for one problem (output of the separate
// lightweight full-reduction kernel, paper Fig. 6 step 2).
struct SoftmaxRowStats {
  const float* row_max = nullptr;      // [rows]
  const float* row_inv_sum = nullptr;  // [rows], 1 / sum of exp(x - row_max)
};

// Mainloop fusion: A(row, k) -> exp(a - max[row]) * inv_sum[row], applied
// to each widened row as the second grouped GEMM packs its A operand (the
// score matrix).
struct SoftmaxNormalizeATransform {
  std::span<const SoftmaxRowStats> stats;

  void on_row(int problem, std::int64_t row, float* v, int n) const noexcept {
    const SoftmaxRowStats& s = stats[static_cast<std::size_t>(problem)];
    const float inv_sum = s.row_inv_sum[row];
    exp_row(v, s.row_max[row], v, n);
    for (int j = 0; j < n; ++j) v[j] *= inv_sum;
  }
};

// Full reduction across column tiles: combines the per-tile (max, sum) pairs
// into per-row (max, inv_sum). Negligible work compared to the GEMMs, as in
// the paper (~2% of fused-MHA time).
inline void softmax_full_reduce(const SoftmaxPartials& p,
                                std::int64_t valid_cols_tiles, float* row_max,
                                float* row_inv_sum) {
  for (std::int64_t r = 0; r < p.rows; ++r) {
    const float* pm = p.partial_max + r * p.col_tiles;
    const float* ps = p.partial_sum + r * p.col_tiles;
    float gmax = pm[0];
    for (std::int64_t t = 1; t < valid_cols_tiles; ++t) {
      gmax = std::max(gmax, pm[t]);
    }
    float gsum = 0.0f;
    for (std::int64_t t = 0; t < valid_cols_tiles; ++t) {
      gsum += ps[t] * fast_exp(pm[t] - gmax);
    }
    row_max[r] = gmax;
    row_inv_sum[r] = gsum > 0.0f ? 1.0f / gsum : 0.0f;
  }
}

}  // namespace bt::gemm
