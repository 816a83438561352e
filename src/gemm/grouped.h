// Grouped GEMM: a set of independent GEMM sub-problems with *arbitrary,
// per-problem shapes*, executed by a fixed set of CTAs that iterate over the
// flattened tile space through a shared scheduler (TileVisitor).
//
// This is the mechanism that lets ByteTransformer's long-sequence fused MHA
// run one attention unit per (batch, head) pair at its true sequence length
// — no padding — since, unlike batched GEMM, no shape uniformity is needed
// (paper Sec. III-E2, Figs. 5-6).
//
// B panels: each CTA keeps a scratch stripe targeted at the (problem,
// tile_n) column it is currently working. The visitor numbers tiles
// column-major, so a claimed chunk runs down each column and every tile_m
// of that column reuses the packed panels: the stripe is re-packed once per
// column per chunk, not per tile (the Q K^T GEMM at len 512 has 8 tile
// rows per column). A problem may alternatively carry a persistent PackedB
// (problem.packed_b), which bypasses packing entirely.
#pragma once

#include <cassert>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "gemm/microkernel.h"
#include "gemm/packed.h"
#include "gemm/panel_cache.h"
#include "gemm/tile_visitor.h"
#include "parallel/device.h"

namespace bt::gemm {

template <typename TA, typename TB, typename TC>
struct GroupedProblem {
  std::int64_t m = 0;
  std::int64_t n = 0;
  std::int64_t k = 0;
  const TA* a = nullptr;
  std::int64_t lda = 0;
  const TB* b = nullptr;
  std::int64_t ldb = 0;
  TC* c = nullptr;
  std::int64_t ldc = 0;
  // Optional persistent panels for op(B); when set, (b, ldb) are ignored
  // and the mainloop performs no B packing for this problem.
  const PackedB* packed_b = nullptr;
};

// Scheduler-visit prefetch width (paper default: one warp = 32 tiles).
inline constexpr std::int64_t kDefaultPrefetch = 32;

template <typename TA, typename TB, typename TC,
          typename ATransform = IdentityATransform,
          typename Epilogue = IdentityEpilogue>
void grouped_gemm(par::Device& dev, Trans ta, Trans tb,
                  std::span<const GroupedProblem<TA, TB, TC>> problems,
                  float alpha, float beta, const Epilogue& ep = {},
                  const ATransform& at = {},
                  std::int64_t prefetch = kDefaultPrefetch) {
  if (problems.empty()) return;
  std::vector<std::pair<std::int64_t, std::int64_t>> grids;
  grids.reserve(problems.size());
  std::int64_t max_dynamic_k_blocks = 0;
  for (const auto& p : problems) {
    grids.emplace_back(ceil_div(p.m, TileShape::kM), ceil_div(p.n, TileShape::kN));
    assert(p.packed_b == nullptr ||
           (p.packed_b->k() == p.k && p.packed_b->n() == p.n));
    if (p.packed_b == nullptr) {
      max_dynamic_k_blocks =
          std::max(max_dynamic_k_blocks, ceil_div(p.k, TileShape::kK));
    }
  }
  TileVisitor visitor(grids, prefetch);
  if (visitor.total_tiles() == 0) return;

  // Fixed CTA count looping over the tile space, CUTLASS-style. Extra CTAs
  // beyond the tile count simply find the scheduler exhausted.
  par::Dim3 grid;
  grid.x = static_cast<int>(
      std::min<std::int64_t>(dev.workers(), visitor.total_tiles()));
  dev.launch(grid, [&](par::CtaContext& ctx) {
    auto panel_a = ctx.scratch->alloc_or_abort<float>(
        TileShape::kM * TileShape::kK, "gemm A panel");
    auto acc = ctx.scratch->alloc_or_abort<float>(
        TileShape::kM * TileShape::kN, "gemm accumulator");
    BStripeCache<TB> stripe(*ctx.scratch, max_dynamic_k_blocks);
    int stripe_problem = -1;
    std::int64_t stripe_tile_n = -1;
    int cursor = -1;
    std::int64_t begin = 0;
    std::int64_t end = 0;
    while (visitor.claim(begin, end)) {
      for (std::int64_t g = begin; g < end; ++g) {
        const TileCoord tc = visitor.locate(g, cursor);
        const auto& p = problems[static_cast<std::size_t>(tc.problem)];
        if (p.packed_b != nullptr) {
          compute_tile_bsrc(
              tc.problem, ta, p.m, p.n, p.k, alpha, p.a, p.lda,
              [&](std::int64_t k0, int /*kc*/) {
                return p.packed_b->panel(tc.tile_n, k0);
              },
              beta, p.c, p.ldc, tc.tile_m, tc.tile_n, panel_a.data(),
              acc.data(), at, ep);
          continue;
        }
        if (tc.problem != stripe_problem || tc.tile_n != stripe_tile_n) {
          stripe.target(tb, p.b, p.ldb, p.k, p.n, tc.tile_n);
          stripe_problem = tc.problem;
          stripe_tile_n = tc.tile_n;
        }
        compute_tile_bsrc(tc.problem, ta, p.m, p.n, p.k, alpha, p.a, p.lda,
                          stripe, beta, p.c, p.ldc, tc.tile_m, tc.tile_n,
                          panel_a.data(), acc.data(), at, ep);
      }
    }
  });
}

void grouped_gemm_f16(par::Device& dev, Trans ta, Trans tb,
                      std::span<const GroupedProblem<fp16_t, fp16_t, fp16_t>> problems,
                      float alpha, float beta,
                      std::int64_t prefetch = kDefaultPrefetch);

}  // namespace bt::gemm
