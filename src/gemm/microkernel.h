// Blocked GEMM mainloop with fusion hooks.
//
// Layout mirrors the CUTLASS kernels the paper builds on:
//   * operands are packed into per-CTA scratch panels ("shared memory"),
//     widening FP16 -> FP32 at pack time (tensor-core semantics),
//   * the A-panel pack point is the *mainloop fusion* hook — ByteTransformer
//     fuses the softmax normalization exp(x-max)/sum into the second grouped
//     GEMM's operand load (paper Algorithm III.2),
//   * the accumulator tile is the *epilogue fusion* hook — bias+GELU and the
//     softmax partial reduction run on the FP32 accumulator before it is
//     stored (paper Sec. III-C2 / Fig. 8).
//
// The inner product itself lives in gemm/kernels/ (runtime-dispatched
// scalar, register-blocked and AMX-BF16 microkernels; FP32-storage A keeps
// an FP32 kernel, kernels::tile_multiply_fp32); this header owns packing,
// the k loop, and the epilogue. compute_tile_bsrc abstracts *where* the B
// panel comes from — packed on the fly into scratch, served from a
// persistent prepacked weight panel (gemm/packed.h), or from a per-CTA
// column stripe reused across the tile_m loop.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <type_traits>

#include "common/half.h"
#include "common/numeric.h"
#include "gemm/kernels/kernel.h"

namespace bt::gemm {

enum class Trans : std::uint8_t { N, T };

// CTA tile shape. 64x64 output tile with K blocked by 128 keeps all three
// panels (A, B, accumulator) inside the default 164 KiB scratch arena.
// Geometry is shared with the dispatched microkernels.
struct TileShape {
  static constexpr int kM = kernels::kPanelM;
  static constexpr int kN = kernels::kPanelN;
  static constexpr int kK = kernels::kPanelK;
};

// Mainloop transforms expose on_row(problem, row, v, n): applied in place
// to n widened A elements of one row as the A panel is packed, so the
// transform runs as one vectorisable loop over the FP32 row.
//
// Epilogues expose on_row(problem, row, col0, v, n): applied in place to the
// n FP32 accumulator values of output row `row`, columns [col0, col0 + n),
// before the row is stored — again one loop per row.
//
// Default hooks: identity mainloop transform / identity epilogue.
struct IdentityATransform {
  void on_row(int /*problem*/, std::int64_t /*row*/, float* /*v*/,
              int /*n*/) const noexcept {}
};

struct IdentityEpilogue {
  void on_row(int /*problem*/, std::int64_t /*row*/, std::int64_t /*col0*/,
              float* /*v*/, int /*n*/) const noexcept {}
};

template <typename E>
concept HasRowHook = requires(E e, int p, std::int64_t r, std::int64_t c0,
                              float* v, int n) { e.on_row(p, r, c0, v, n); };

// Epilogues may instead (or also) expose a whole-tile hook, called on the
// scaled FP32 accumulator before the row hooks run. Used by the fused
// softmax partial reduction, which stores values unchanged.
template <typename E>
concept HasTileHook = requires(E e, int p, std::int64_t r0, std::int64_t c0,
                               int rows, int cols, const float* acc, int ld) {
  e.on_tile(p, r0, c0, rows, cols, acc, ld);
};

// Packs an mc x kc block of op(A) into a zero-padded kM x kK FP32 panel:
// each row is widened (whole-row, F16C-vectorized for FP16, when A is not
// transposed), then the mainloop transform's row hook runs over it.
template <typename TA, typename ATransform>
inline void pack_a_panel(Trans ta, const TA* a, std::int64_t lda,
                         std::int64_t row0, std::int64_t k0, int mc, int kc,
                         float* panel, int problem, const ATransform& at) {
  for (int i = 0; i < mc; ++i) {
    float* dst = panel + static_cast<std::int64_t>(i) * TileShape::kK;
    const std::int64_t row = row0 + i;
    if (ta == Trans::N) {
      convert_row_f32(a + row * lda + k0, dst, kc);
    } else {
      const TA* src = a + k0 * lda + row;
      for (int p = 0; p < kc; ++p) {
        dst[p] = load_f32(src[static_cast<std::int64_t>(p) * lda]);
      }
    }
    at.on_row(problem, row, dst, kc);
    if (kc < TileShape::kK) {
      std::memset(dst + kc, 0, sizeof(float) * static_cast<std::size_t>(TileShape::kK - kc));
    }
  }
}

// Packs a kc x nc block of op(B) into a zero-padded kK x kN FP32 panel.
// Zero padding lets the inner product loop run at the full constant width.
// No-transpose rows widen whole-row (F16C-vectorized for FP16).
template <typename TB>
inline void pack_b_panel(Trans tb, const TB* b, std::int64_t ldb,
                         std::int64_t k0, std::int64_t col0, int kc, int nc,
                         float* panel) {
  for (int p = 0; p < kc; ++p) {
    float* dst = panel + static_cast<std::int64_t>(p) * TileShape::kN;
    if (tb == Trans::N) {
      const TB* src = b + (k0 + p) * ldb + col0;
      convert_row_f32(src, dst, nc);
    } else {
      const TB* src = b + col0 * ldb + (k0 + p);
      for (int j = 0; j < nc; ++j) {
        dst[j] = load_f32(src[static_cast<std::int64_t>(j) * ldb]);
      }
    }
    if (nc < TileShape::kN) {
      std::memset(dst + nc, 0, sizeof(float) * static_cast<std::size_t>(TileShape::kN - nc));
    }
  }
}

// Computes one kM x kN output tile of
//   C = epilogue(alpha * op(A) @ op(B)) + beta * C
// for a single problem, with B panels served by `bsrc(k0, kc)` — a callable
// returning the packed kK x kN FP32 panel for K block [k0, k0 + kc).
// `panel_a` and `acc` point into CTA scratch.
template <typename TA, typename TC, typename BSrc, typename ATransform,
          typename Epilogue>
inline void compute_tile_bsrc(int problem, Trans ta, std::int64_t m,
                              std::int64_t n, std::int64_t k, float alpha,
                              const TA* a, std::int64_t lda, BSrc&& bsrc,
                              float beta, TC* c, std::int64_t ldc,
                              std::int64_t tile_m, std::int64_t tile_n,
                              float* panel_a, float* acc, const ATransform& at,
                              const Epilogue& ep) {
  const std::int64_t row0 = tile_m * TileShape::kM;
  const std::int64_t col0 = tile_n * TileShape::kN;
  const int mc = static_cast<int>(std::min<std::int64_t>(TileShape::kM, m - row0));
  const int nc = static_cast<int>(std::min<std::int64_t>(TileShape::kN, n - col0));

  std::memset(acc, 0, sizeof(float) * static_cast<std::size_t>(mc) * TileShape::kN);
  for (std::int64_t k0 = 0; k0 < k; k0 += TileShape::kK) {
    const int kc = static_cast<int>(std::min<std::int64_t>(TileShape::kK, k - k0));
    pack_a_panel(ta, a, lda, row0, k0, mc, kc, panel_a, problem, at);
    const float* panel_b = bsrc(k0, kc);
    if constexpr (std::is_same_v<TA, float>) {
      kernels::tile_multiply_fp32(panel_a, mc, panel_b, kc, acc);
    } else {
      kernels::tile_multiply(panel_a, mc, panel_b, kc, acc);
    }
  }

  if (alpha != 1.0f) {
    for (int i = 0; i < mc; ++i) {
      float* acc_row = acc + static_cast<std::int64_t>(i) * TileShape::kN;
      for (int j = 0; j < nc; ++j) acc_row[j] *= alpha;
    }
  }

  if constexpr (HasTileHook<Epilogue>) {
    ep.on_tile(problem, row0, col0, mc, nc, acc, TileShape::kN);
  }

  for (int i = 0; i < mc; ++i) {
    float* acc_row = acc + static_cast<std::int64_t>(i) * TileShape::kN;
    TC* c_row = c + (row0 + i) * ldc + col0;
    if constexpr (HasRowHook<Epilogue>) {
      ep.on_row(problem, row0 + i, col0, acc_row, nc);
    }
    if (beta == 0.0f) {
      // One whole-row narrowing store (same RNE rounding as store_f32).
      convert_row_from_f32(acc_row, c_row, nc);
    } else {
      for (int j = 0; j < nc; ++j) {
        store_f32(c_row[j], acc_row[j] + beta * load_f32(c_row[j]));
      }
    }
  }
}

// Pack-on-the-fly form: B is packed into `panel_b` scratch per K block.
template <typename TA, typename TB, typename TC, typename ATransform,
          typename Epilogue>
inline void compute_tile(int problem, Trans ta, Trans tb, std::int64_t m,
                         std::int64_t n, std::int64_t k, float alpha,
                         const TA* a, std::int64_t lda, const TB* b,
                         std::int64_t ldb, float beta, TC* c, std::int64_t ldc,
                         std::int64_t tile_m, std::int64_t tile_n,
                         float* panel_a, float* panel_b, float* acc,
                         const ATransform& at, const Epilogue& ep) {
  const std::int64_t col0 = tile_n * TileShape::kN;
  const int nc = static_cast<int>(std::min<std::int64_t>(TileShape::kN, n - col0));
  compute_tile_bsrc(
      problem, ta, m, n, k, alpha, a, lda,
      [&](std::int64_t k0, int kc) -> const float* {
        pack_b_panel(tb, b, ldb, k0, col0, kc, nc, panel_b);
        return panel_b;
      },
      beta, c, ldc, tile_m, tile_n, panel_a, acc, at, ep);
}

}  // namespace bt::gemm
