// Runtime-dispatched GEMM microkernels.
//
// The blocked mainloop (gemm/microkernel.h) funnels every FLOP of the
// pipeline through one primitive:
//
//   acc[mc][kPanelN] += panel_a[mc][kPanelK] * panel_b[kc][kPanelN]
//
// with both panels pre-packed, zero-padded FP32. This header exposes three
// interchangeable implementations of that primitive:
//
//   * kScalar — the plain triple loop (the original seed kernel; baseline)
//   * kVec    — the register-blocked generic-vector kernel (blocked.h)
//               compiled with the build's flags: 512-, 256- or 128-bit
//               vectors, whatever the target ISA offers
//   * kAvx2   — the same template compiled with at least AVX2+FMA
//               (-mavx2 -mfma -mf16c, or the build's wider ISA) and
//               selected only when cpuid reports AVX2 and FMA
//
// The active kernel is selected once at startup: BT_GEMM_KERNEL=scalar|vec|
// avx2 overrides, otherwise cpuid-style detection picks the best supported
// variant. All three accumulate each output element over p in ascending
// order, so — provided FMA contraction is uniform across the build (see
// BT_NATIVE_ARCH in CMakeLists.txt) — they are bitwise interchangeable and
// A/B benchmarking never changes results.
#pragma once

#include <string_view>

namespace bt::gemm::kernels {

// Panel geometry shared with gemm::TileShape (static_asserted there).
inline constexpr int kPanelM = 64;   // max rows per A panel / acc tile
inline constexpr int kPanelN = 64;   // acc / B panel row width
inline constexpr int kPanelK = 128;  // A panel row stride / max k per block

enum class Kind : int { kScalar = 0, kVec = 1, kAvx2 = 2 };
inline constexpr int kNumKinds = 3;

using TileMultiplyFn = void (*)(const float* panel_a, int mc,
                                const float* panel_b, int kc, float* acc);

// The three implementations. When the toolchain could not build AVX2 code,
// tile_multiply_avx2 is the build-flag kernel and dispatch never selects it
// (supported(kAvx2) reports false).
void tile_multiply_scalar(const float* panel_a, int mc, const float* panel_b,
                          int kc, float* acc);
void tile_multiply_vec(const float* panel_a, int mc, const float* panel_b,
                       int kc, float* acc);
void tile_multiply_avx2(const float* panel_a, int mc, const float* panel_b,
                        int kc, float* acc);

const char* name(Kind kind) noexcept;

// Parses "scalar" / "vec" / "avx2"; returns false on anything else.
bool parse(std::string_view text, Kind* out) noexcept;

// Compile-time *and* runtime availability (kAvx2 needs both the kernel
// compiled and the host CPU advertising AVX2+FMA).
bool supported(Kind kind) noexcept;

// The kernel in use: BT_GEMM_KERNEL if set (unsupported or unparsable
// values warn on stderr and fall back to detection), else the best
// supported variant.
Kind active() noexcept;

// Forces a kernel for tests / A-B benchmarks. Returns false (and keeps the
// current kernel) when `kind` is unsupported on this build/host.
bool force(Kind kind) noexcept;

// Implementation function for a kind (for direct calls in tests).
TileMultiplyFn fn(Kind kind) noexcept;

// Dispatches to the active kernel.
void tile_multiply(const float* panel_a, int mc, const float* panel_b, int kc,
                   float* acc);

namespace detail {
// Whether avx2.cc was actually built with AVX2+FMA (CMake probes the flags).
bool avx2_kernel_compiled() noexcept;
}  // namespace detail

}  // namespace bt::gemm::kernels
