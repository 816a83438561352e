// Grouped-GEMM problem visitor.
//
// CUTLASS grouped GEMM launches a fixed number of CTAs that repeatedly ask a
// scheduler for the next tile across *all* sub-problems (round-robin over a
// flattened tile space). The paper found the per-visit overhead significant
// and had each warp claim 32 tiles per visit ("warp prefetching", Fig. 7,
// upstreamed to CUTLASS). This visitor reproduces both modes:
//   * prefetch = 1  — one scheduler visit (atomic RMW + tile lookup) per tile
//   * prefetch = 32 — one visit per 32 tiles, lookups amortized by a linear
//     walk from the chunk start
// The ablation bench measures the difference directly.
//
// Within a problem, tiles are numbered column-major (tile_m fastest), so a
// claimed chunk walks down output columns: a CTA re-targets its B stripe
// (gemm/panel_cache.h) once per column instead of once per tile.
#pragma once

#include <atomic>
#include <cassert>
#include <cstdint>
#include <span>
#include <vector>

#include "common/numeric.h"
#include "gemm/microkernel.h"

namespace bt::gemm {

struct TileCoord {
  int problem = -1;
  std::int64_t tile_m = 0;
  std::int64_t tile_n = 0;
};

class TileVisitor {
 public:
  // grids[i] = (tiles_m, tiles_n) of problem i.
  TileVisitor(std::span<const std::pair<std::int64_t, std::int64_t>> grids,
              std::int64_t prefetch)
      : prefetch_(prefetch > 0 ? prefetch : 1) {
    tiles_m_.reserve(grids.size());
    prefix_.reserve(grids.size() + 1);
    prefix_.push_back(0);
    for (const auto& [tm, tn] : grids) {
      tiles_m_.push_back(tm);
      prefix_.push_back(prefix_.back() + tm * tn);
    }
  }

  std::int64_t total_tiles() const noexcept { return prefix_.back(); }
  std::int64_t prefetch() const noexcept { return prefetch_; }

  // Claims the next chunk of global tile indices; returns false when the
  // tile space is exhausted. This is the "scheduler visit".
  bool claim(std::int64_t& begin, std::int64_t& end) noexcept {
    begin = next_.fetch_add(prefetch_, std::memory_order_relaxed);
    if (begin >= total_tiles()) return false;
    end = std::min(begin + prefetch_, total_tiles());
    return true;
  }

  // Maps a global tile index to (problem, tile_m, tile_n), column-major
  // within the problem. `cursor` caches the last problem index per caller
  // so sequential lookups inside a claimed chunk cost O(1); a fresh lookup
  // does a binary search.
  TileCoord locate(std::int64_t global, int& cursor) const noexcept {
    assert(global >= 0 && global < total_tiles());
    if (cursor < 0 || static_cast<std::size_t>(cursor) >= tiles_m_.size() ||
        global < prefix_[static_cast<std::size_t>(cursor)] ||
        global >= prefix_[static_cast<std::size_t>(cursor) + 1]) {
      // binary search for the owning problem
      int lo = 0;
      int hi = static_cast<int>(tiles_m_.size()) - 1;
      while (lo < hi) {
        const int mid = (lo + hi) / 2;
        if (global < prefix_[static_cast<std::size_t>(mid) + 1]) {
          hi = mid;
        } else {
          lo = mid + 1;
        }
      }
      cursor = lo;
    }
    const std::int64_t local = global - prefix_[static_cast<std::size_t>(cursor)];
    const std::int64_t tm = tiles_m_[static_cast<std::size_t>(cursor)];
    return {cursor, local % tm, local / tm};
  }

 private:
  std::vector<std::int64_t> tiles_m_;
  std::vector<std::int64_t> prefix_;  // cumulative tile counts, size P+1
  std::int64_t prefetch_ = 32;
  std::atomic<std::int64_t> next_{0};
};

}  // namespace bt::gemm
