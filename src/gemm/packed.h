// Persistent pre-packed B panels.
//
// Weight matrices are fixed across forward passes, yet the mainloop used to
// re-pack them into kK x kN panels once per output tile row of every GEMM.
// PackedB performs that packing exactly once — widening FP16 -> FP32
// through the F16C row converters — and gemm_prepacked and
// GroupedProblem::packed_b accept it in place of a raw (B, ldb) operand so
// the mainloop skips pack_b_panel entirely.
//
// Layout: panels[tile_n][k_block] of kK x kN row-major FP32, zero-padded at
// both edges — byte-identical to what pack_b_panel would have produced for
// the same block, so prepacked and pack-on-the-fly runs are bitwise equal.
// A CTA walking the K blocks of one output-tile column reads contiguous
// memory. Ownership: the owner of the weight matrix owns its PackedB (see
// core::LayerWeights::PackedPanels); kernels only borrow const views.
//
// Memory: n_panels * 32 KiB of FP32 — roughly 2x the FP16 weight bytes
// (plus tile-edge padding). docs/PERF.md discusses the trade-off.
#pragma once

#include <cassert>
#include <cstdint>
#include <vector>

#include "gemm/microkernel.h"

namespace bt::gemm {

class PackedB {
 public:
  static constexpr std::int64_t kPanelElems =
      static_cast<std::int64_t>(TileShape::kK) * TileShape::kN;

  PackedB() = default;

  // Packs the full k x n op(B). For Trans::T, (b, ldb) is the stored n x k
  // matrix, as in the gemm front-ends.
  template <typename TB>
  static PackedB pack(Trans tb, const TB* b, std::int64_t ldb, std::int64_t k,
                      std::int64_t n) {
    PackedB p;
    p.k_ = k;
    p.n_ = n;
    p.k_blocks_ = ceil_div(k, TileShape::kK);
    p.tiles_n_ = ceil_div(n, TileShape::kN);
    p.panels_.assign(
        static_cast<std::size_t>(p.k_blocks_ * p.tiles_n_ * kPanelElems), 0.0f);
    for (std::int64_t tn = 0; tn < p.tiles_n_; ++tn) {
      const std::int64_t col0 = tn * TileShape::kN;
      const int nc =
          static_cast<int>(std::min<std::int64_t>(TileShape::kN, n - col0));
      for (std::int64_t kb = 0; kb < p.k_blocks_; ++kb) {
        const std::int64_t k0 = kb * TileShape::kK;
        const int kc =
            static_cast<int>(std::min<std::int64_t>(TileShape::kK, k - k0));
        pack_b_panel(tb, b, ldb, k0, col0, kc, nc,
                     p.panels_.data() + (tn * p.k_blocks_ + kb) * kPanelElems);
      }
    }
    return p;
  }

  bool empty() const noexcept { return panels_.empty(); }
  std::int64_t k() const noexcept { return k_; }
  std::int64_t n() const noexcept { return n_; }
  std::int64_t k_blocks() const noexcept { return k_blocks_; }
  std::int64_t tiles_n() const noexcept { return tiles_n_; }
  std::size_t bytes() const noexcept { return panels_.size() * sizeof(float); }

  // Panel for output-tile column `tile_n`, K block starting at `k0`.
  const float* panel(std::int64_t tile_n, std::int64_t k0) const noexcept {
    assert(tile_n >= 0 && tile_n < tiles_n_);
    assert(k0 >= 0 && k0 < k_ && k0 % TileShape::kK == 0);
    return panels_.data() +
           (tile_n * k_blocks_ + k0 / TileShape::kK) * kPanelElems;
  }

 private:
  std::vector<float> panels_;
  std::int64_t k_ = 0;
  std::int64_t n_ = 0;
  std::int64_t k_blocks_ = 0;
  std::int64_t tiles_n_ = 0;
};

}  // namespace bt::gemm
