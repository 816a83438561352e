// The AMX-BF16 microkernel: the same tile_multiply contract on the same FP32
// panels, computed on the CPU's matrix tiles.
//
// Per call it rounds A's [mc, kc) block and B's kc rows to bf16 (RNE, with
// bf16 denormals read as zero), pairs B's rows into the VNNI layout the
// tile dot product wants (row q of a B tile holds B[2q][j], B[2q+1][j] for
// 16 columns j), and runs _tile_dpbf16ps over 32-deep k chunks. Each
// 32 x 32 block of the output is a 2 x 2 set of 16 x 16 FP32 C tiles fed by
// two A tiles and two B tiles, so the 8 tile registers are all in use. The
// block's product is stored to per-thread scratch and added into acc, one
// row at a time, for rows < mc only.
//
// Contract with the callers (gemm/microkernel.h, attention/fused_short.cc):
//   * only A columns and B rows in [0, kc) are read: the bf16 copies are
//     zero-filled past kc, so stale values there never reach the result;
//   * acc rows >= mc are never read or written;
//   * element (i, j) depends only on A row i, B column j and kc, not on mc
//     or on any other row, so a request's bits do not depend on its batch
//     mates.
// Rounding the inputs makes this kind the one that is not bitwise equal to
// scalar/vec/avx2 (docs/PERF.md).
//
// CMake compiles this file with the AMX and AVX-512 BF16 flags when the
// toolchain accepts them; dispatch selects it only when cpuid reports
// amx-tile and amx-bf16 and the kernel grants the process tile state. If the
// flags were refused, tile_multiply_amx is the scalar kernel and dispatch
// never selects it.
#include "gemm/kernels/kernel.h"

#if defined(__AMX_TILE__) && defined(__AMX_BF16__) && \
    defined(__AVX512BF16__) && defined(__AVX512BW__)
#define BT_AMX_KERNEL 1
#include <immintrin.h>

#include <cstdint>
#endif

namespace bt::gemm::kernels {

#if defined(BT_AMX_KERNEL)
namespace {

constexpr int kTileRows = 16;     // rows of every tile
constexpr int kTileK = 32;        // bf16 k elements per A tile row
constexpr int kBlock = 32;        // output rows / columns per 2 x 2 tile set
constexpr int kPairRow = 2 * kPanelN;  // bf16 per VNNI row pair of B

// Palette 1, every tile 16 rows x 64 bytes: A tiles 16 x 32 bf16, B tiles
// 16 row pairs x 16 columns x 2 bf16, C tiles 16 x 16 FP32.
struct alignas(64) TileConfig {
  std::uint8_t palette = 1;
  std::uint8_t start_row = 0;
  std::uint8_t reserved[14] = {};
  std::uint16_t colsb[16] = {64, 64, 64, 64, 64, 64, 64, 64};
  std::uint8_t rows[16] = {16, 16, 16, 16, 16, 16, 16, 16};
};

struct alignas(64) Scratch {
  std::uint16_t a[kPanelM * kPanelK];          // bf16 A, row stride kPanelK
  std::uint16_t b[kPanelK / 2 * kPairRow];     // bf16 B, VNNI row pairs
  float c[kBlock * kBlock];                    // one 2 x 2 set of C tiles
};

thread_local Scratch scratch;
thread_local bool tiles_configured = false;

// Lanes [0, n) of a 16-float load; the rest read as zero.
inline __mmask16 lanes(int n) {
  if (n <= 0) return 0;
  if (n >= 16) return 0xFFFF;
  return static_cast<__mmask16>((1u << n) - 1u);
}

// Rows [0, rows) of A, columns [0, kpad), rounded to bf16; columns past kc
// read as zero.
void convert_a(const float* panel_a, int rows, int kc, int kpad,
               std::uint16_t* dst) {
  for (int i = 0; i < rows; ++i) {
    const float* src = panel_a + static_cast<std::int64_t>(i) * kPanelK;
    std::uint16_t* out = dst + static_cast<std::int64_t>(i) * kPanelK;
    for (int p = 0; p < kpad; p += kTileK) {
      const __m512 lo = _mm512_maskz_loadu_ps(lanes(kc - p), src + p);
      const __m512 hi = _mm512_maskz_loadu_ps(lanes(kc - p - 16), src + p + 16);
      _mm512_storeu_si512(out + p, (__m512i)_mm512_cvtne2ps_pbh(hi, lo));
    }
  }
}

// Rows [0, kc) of B, rounded to bf16 and paired into VNNI order; pairs up
// to kpad / 2 read rows past kc as zero.
void convert_b(const float* panel_b, int kc, int kpad, std::uint16_t* dst) {
  // out[2j] = row 2q column j (low half), out[2j + 1] = row 2q + 1 column j.
  static constexpr std::uint16_t kInterleave[32] = {
      0, 16, 1, 17, 2,  18, 3,  19, 4,  20, 5,  21, 6,  22, 7,  23,
      8, 24, 9, 25, 10, 26, 11, 27, 12, 28, 13, 29, 14, 30, 15, 31};
  const __m512i interleave = _mm512_loadu_si512(kInterleave);
  const __m512 zero = _mm512_setzero_ps();
  for (int q = 0; q < kpad / 2; ++q) {
    const int r0 = 2 * q;
    const float* row0 = panel_b + static_cast<std::int64_t>(r0) * kPanelN;
    const float* row1 = row0 + kPanelN;
    std::uint16_t* out = dst + static_cast<std::int64_t>(q) * kPairRow;
    for (int j = 0; j < kPanelN; j += 16) {
      const __m512 lo = r0 < kc ? _mm512_loadu_ps(row0 + j) : zero;
      const __m512 hi = r0 + 1 < kc ? _mm512_loadu_ps(row1 + j) : zero;
      const __m512i pairs = (__m512i)_mm512_cvtne2ps_pbh(hi, lo);
      _mm512_storeu_si512(out + 2 * j,
                          _mm512_permutexvar_epi16(interleave, pairs));
    }
  }
}

// One 32-column block of output rows [row0, row0 + 16 * (1 + kTwo)): two C
// tiles per 16-row A tile, accumulated over kpad / 32 chunks, then added
// into acc rows [row0, row0 + rows).
template <bool kTwo>
void tile_block(int row0, int rows, int col0, int kpad, float* acc) {
  constexpr int kStrideA = kPanelK * 2;  // bytes
  constexpr int kStrideB = kPairRow * 2;
  constexpr int kStrideC = kBlock * 4;
  const std::uint16_t* a = scratch.a + static_cast<std::int64_t>(row0) * kPanelK;
  const std::uint16_t* b = scratch.b + 2 * col0;
  _tile_zero(0);
  _tile_zero(1);
  if constexpr (kTwo) {
    _tile_zero(2);
    _tile_zero(3);
  }
  for (int p = 0; p < kpad; p += kTileK) {
    const std::uint16_t* b_chunk = b + static_cast<std::int64_t>(p / 2) * kPairRow;
    _tile_loadd(4, a + p, kStrideA);
    _tile_loadd(6, b_chunk, kStrideB);
    _tile_loadd(7, b_chunk + 32, kStrideB);
    _tile_dpbf16ps(0, 4, 6);
    _tile_dpbf16ps(1, 4, 7);
    if constexpr (kTwo) {
      _tile_loadd(5, a + kTileRows * kPanelK + p, kStrideA);
      _tile_dpbf16ps(2, 5, 6);
      _tile_dpbf16ps(3, 5, 7);
    }
  }
  float* c = scratch.c;
  _tile_stored(0, c, kStrideC);
  _tile_stored(1, c + 16, kStrideC);
  if constexpr (kTwo) {
    _tile_stored(2, c + kTileRows * kBlock, kStrideC);
    _tile_stored(3, c + kTileRows * kBlock + 16, kStrideC);
  }
  for (int r = 0; r < rows; ++r) {
    float* dst = acc + static_cast<std::int64_t>(row0 + r) * kPanelN + col0;
    const float* src = c + r * kBlock;
    _mm512_storeu_ps(dst, _mm512_add_ps(_mm512_loadu_ps(dst),
                                        _mm512_loadu_ps(src)));
    _mm512_storeu_ps(dst + 16, _mm512_add_ps(_mm512_loadu_ps(dst + 16),
                                             _mm512_loadu_ps(src + 16)));
  }
}

}  // namespace

void tile_multiply_amx(const float* panel_a, int mc, const float* panel_b,
                       int kc, float* acc) {
  if (!tiles_configured) {
    static const TileConfig config;
    _tile_loadconfig(&config);
    tiles_configured = true;
  }
  const int kpad = (kc + kTileK - 1) / kTileK * kTileK;
  // Rows of the last A tile past mc keep whatever an earlier call left;
  // the C rows they produce are never added into acc.
  convert_a(panel_a, mc, kc, kpad, scratch.a);
  convert_b(panel_b, kc, kpad, scratch.b);
  for (int row0 = 0; row0 < mc; row0 += kBlock) {
    const int rows = mc - row0 < kBlock ? mc - row0 : kBlock;
    for (int col0 = 0; col0 < kPanelN; col0 += kBlock) {
      if (rows > kTileRows) {
        tile_block<true>(row0, rows, col0, kpad, acc);
      } else {
        tile_block<false>(row0, rows, col0, kpad, acc);
      }
    }
  }
}

namespace detail {
bool amx_kernel_compiled() noexcept { return true; }
}  // namespace detail

#else  // toolchain without the AMX / AVX-512 BF16 flags

void tile_multiply_amx(const float* panel_a, int mc, const float* panel_b,
                       int kc, float* acc) {
  tile_multiply_scalar(panel_a, mc, panel_b, kc, acc);
}

namespace detail {
bool amx_kernel_compiled() noexcept { return false; }
}  // namespace detail

#endif

}  // namespace bt::gemm::kernels
