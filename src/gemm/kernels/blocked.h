// The register-blocked microkernel, as one generic-vector template.
//
// Output is computed in kRows x (kVecs * kLanes) register tiles: kRows rows
// of kVecs accumulator vectors stay in registers across the whole k loop.
// Each step p loads the kVecs B vectors of row p once and broadcasts one A
// element per row, so a tile costs kVecs loads + kRows broadcasts per
// kRows * kVecs FMAs. Row remainders (mc % kRows) run the same template
// with fewer rows.
//
// The vector width follows the ISA the including TU is compiled for, sized
// so accumulators + B vectors + one broadcast fit the register file:
//   * AVX-512F: 16 lanes x 4 vectors x 6 rows (24 + 4 + 1 of 32 zmm)
//   * AVX/AVX2: 8 lanes x 2 vectors x 6 rows  (12 + 2 + 1 of 16 ymm)
//   * else:     4 lanes x 2 vectors x 6 rows  (12 + 2 + 1 of 16 xmm)
//
// Per output element the accumulation is a p-ascending chain seeded from the
// incoming acc value — exactly the scalar kernel's `acc += a * b` — so under
// uniform FMA contraction every kernel kind is bitwise interchangeable.
//
// Everything here has internal linkage (anonymous namespace). TUs built with
// different ISA flags include this header; were the instantiations external,
// the linker could merge them and a portable binary could run AVX-512 code
// on a host without it.
#pragma once

#include <cstdint>
#include <cstring>

#include "gemm/kernels/kernel.h"

namespace bt::gemm::kernels {
namespace {

#if defined(__AVX512F__)
constexpr int kLanes = 16;
constexpr int kVecs = 4;
#elif defined(__AVX__)
constexpr int kLanes = 8;
constexpr int kVecs = 2;
#else
constexpr int kLanes = 4;
constexpr int kVecs = 2;
#endif
constexpr int kRows = 6;  // the remainder switch below covers 1..5
constexpr int kBlockN = kLanes * kVecs;
static_assert(kPanelN % kBlockN == 0, "column blocks must tile the panel");

typedef float vfloat __attribute__((vector_size(kLanes * sizeof(float))));

// R rows x kBlockN columns: a/acc point at the block's first row, b at the
// panel's column offset. Strides are the fixed panel widths.
template <int R>
inline void blocked_rows(const float* a, const float* b, float* acc, int kc) {
  vfloat c[R][kVecs];
  for (int r = 0; r < R; ++r) {
    for (int v = 0; v < kVecs; ++v) {
      std::memcpy(&c[r][v], acc + static_cast<std::int64_t>(r) * kPanelN + v * kLanes,
                  sizeof(vfloat));
    }
  }
  for (int p = 0; p < kc; ++p) {
    const float* b_row = b + static_cast<std::int64_t>(p) * kPanelN;
    vfloat bv[kVecs];
    for (int v = 0; v < kVecs; ++v) {
      std::memcpy(&bv[v], b_row + v * kLanes, sizeof(vfloat));
    }
    for (int r = 0; r < R; ++r) {
      const float av = a[static_cast<std::int64_t>(r) * kPanelK + p];
      for (int v = 0; v < kVecs; ++v) c[r][v] += av * bv[v];
    }
  }
  for (int r = 0; r < R; ++r) {
    for (int v = 0; v < kVecs; ++v) {
      std::memcpy(acc + static_cast<std::int64_t>(r) * kPanelN + v * kLanes, &c[r][v],
                  sizeof(vfloat));
    }
  }
}

inline void tile_multiply_blocked(const float* panel_a, int mc,
                                  const float* panel_b, int kc, float* acc) {
  for (int jb = 0; jb < kPanelN; jb += kBlockN) {
    const float* b = panel_b + jb;
    int i = 0;
    for (; i + kRows <= mc; i += kRows) {
      blocked_rows<kRows>(panel_a + static_cast<std::int64_t>(i) * kPanelK, b,
                          acc + static_cast<std::int64_t>(i) * kPanelN + jb, kc);
    }
    const float* a_tail = panel_a + static_cast<std::int64_t>(i) * kPanelK;
    float* acc_tail = acc + static_cast<std::int64_t>(i) * kPanelN + jb;
    switch (mc - i) {
      case 5: blocked_rows<5>(a_tail, b, acc_tail, kc); break;
      case 4: blocked_rows<4>(a_tail, b, acc_tail, kc); break;
      case 3: blocked_rows<3>(a_tail, b, acc_tail, kc); break;
      case 2: blocked_rows<2>(a_tail, b, acc_tail, kc); break;
      case 1: blocked_rows<1>(a_tail, b, acc_tail, kc); break;
      default: break;
    }
  }
}

}  // namespace
}  // namespace bt::gemm::kernels
