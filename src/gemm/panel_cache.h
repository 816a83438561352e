// Per-CTA B-panel stripe cache for dynamic (non-prepacked) operands.
//
// When a CTA computes several tiles of the same output column (all tile_m
// for one tile_n), the B panels it needs are identical. grouped_gemm numbers
// tiles column-major and keys the stripe by (problem, tile_n), so a claim
// that covers a whole column (claim_width() in gemm/grouped.h) packs its
// panels once. This cache claims whatever is left of the CTA scratch arena
// after the A panel and accumulator, packs as many K blocks of the current
// column as fit, and serves them across the tile_m loop; K blocks beyond
// capacity are packed on the fly into a reserved fallback panel. Packing
// goes through the same pack_b_panel, so cached and fallback paths are
// bitwise identical.
#pragma once

#include <cstdint>
#include <span>

#include "gemm/microkernel.h"
#include "parallel/device.h"

namespace bt::gemm {

template <typename TB>
class BStripeCache {
 public:
  // Claims remaining scratch for up to `want_blocks` panels. A fallback
  // panel is reserved only when the stripe cannot hold `want_blocks`
  // (callers pass the largest K-block count they will target).
  BStripeCache(par::CtaScratch& scratch, std::int64_t want_blocks) {
    const std::int64_t panel_floats = PackedBPanelElems();
    const std::size_t avail_floats =
        (scratch.capacity() - scratch.used()) / sizeof(float);
    std::int64_t fit = static_cast<std::int64_t>(avail_floats / panel_floats);
    if (fit < want_blocks) fit = fit > 0 ? fit - 1 : 0;  // keep fallback room
    capacity_blocks_ = std::min(want_blocks, fit);
    if (capacity_blocks_ > 0) {
      stripe_ = scratch.alloc_or_abort<float>(
          static_cast<std::size_t>(capacity_blocks_ * panel_floats),
          "gemm B stripe");
    }
    if (capacity_blocks_ < want_blocks) {
      fallback_ = scratch.alloc_or_abort<float>(
          static_cast<std::size_t>(panel_floats), "gemm B panel");
    }
  }

  // Re-targets the cache at output-tile column `tile_n` of op(B) (k x n)
  // and packs the cached K blocks. Call once per (B, tile_n) change.
  void target(Trans tb, const TB* b, std::int64_t ldb, std::int64_t k,
              std::int64_t n, std::int64_t tile_n) {
    tb_ = tb;
    b_ = b;
    ldb_ = ldb;
    col0_ = tile_n * TileShape::kN;
    nc_ = static_cast<int>(std::min<std::int64_t>(TileShape::kN, n - col0_));
    cached_blocks_ = std::min(capacity_blocks_, ceil_div(k, TileShape::kK));
    for (std::int64_t kb = 0; kb < cached_blocks_; ++kb) {
      const std::int64_t k0 = kb * TileShape::kK;
      const int kc =
          static_cast<int>(std::min<std::int64_t>(TileShape::kK, k - k0));
      pack_b_panel(tb_, b_, ldb_, k0, col0_, kc, nc_,
                   stripe_.data() + kb * PackedBPanelElems());
    }
  }

  // B source for compute_tile_bsrc: cached stripe panel, or fallback pack.
  const float* operator()(std::int64_t k0, int kc) {
    const std::int64_t kb = k0 / TileShape::kK;
    if (kb < cached_blocks_) {
      return stripe_.data() + kb * PackedBPanelElems();
    }
    pack_b_panel(tb_, b_, ldb_, k0, col0_, kc, nc_, fallback_.data());
    return fallback_.data();
  }

  std::int64_t capacity_blocks() const noexcept { return capacity_blocks_; }

 private:
  static constexpr std::int64_t PackedBPanelElems() noexcept {
    return static_cast<std::int64_t>(TileShape::kK) * TileShape::kN;
  }

  std::span<float> stripe_;
  std::span<float> fallback_;
  std::int64_t capacity_blocks_ = 0;
  std::int64_t cached_blocks_ = 0;
  Trans tb_ = Trans::N;
  const TB* b_ = nullptr;
  std::int64_t ldb_ = 0;
  std::int64_t col0_ = 0;
  int nc_ = 0;
};

}  // namespace bt::gemm
