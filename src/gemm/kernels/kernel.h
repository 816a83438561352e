// Runtime-dispatched GEMM microkernels.
//
// The blocked mainloop (gemm/microkernel.h) funnels every FLOP of the
// pipeline through one primitive:
//
//   acc[mc][kPanelN] += panel_a[mc][kPanelK] * panel_b[kc][kPanelN]
//
// with both panels pre-packed, zero-padded FP32. This header exposes four
// implementations of that primitive:
//
//   * kScalar — the plain triple loop (the original seed kernel; baseline)
//   * kVec    — the register-blocked generic-vector kernel (blocked.h)
//               compiled with the build's flags: 512-, 256- or 128-bit
//               vectors, whatever the target ISA offers
//   * kAvx2   — the same template compiled with at least AVX2+FMA
//               (-mavx2 -mfma -mf16c, or the build's wider ISA) and
//               selected only when cpuid reports AVX2 and FMA
//   * kAmxBf16 — the CPU's matrix tiles (amx.cc): rounds both panels to
//               bf16 and accumulates in FP32; selected only when cpuid
//               reports amx-tile and amx-bf16 and the OS grants tile state
//
// The active kernel is selected once at startup: BT_GEMM_KERNEL=scalar|vec|
// avx2|amx overrides, otherwise cpuid-style detection picks the best
// supported variant. The three FP32 kinds accumulate each output element
// over p in ascending order, so — provided FMA contraction is uniform
// across the build (see BT_NATIVE_ARCH in CMakeLists.txt) — they are
// bitwise interchangeable and A/B benchmarking among them never changes
// results. kAmxBf16 rounds its inputs, so it is not: it keeps the callers'
// contract (reads only [0, kc), leaves acc rows >= mc alone, each row's bits
// independent of mc and of the other rows) but not scalar's bits. GEMMs on
// FP32 storage keep an FP32 kind (tile_multiply_fp32).
#pragma once

#include <string_view>

namespace bt::gemm::kernels {

// Panel geometry shared with gemm::TileShape (static_asserted there).
inline constexpr int kPanelM = 64;   // max rows per A panel / acc tile
inline constexpr int kPanelN = 64;   // acc / B panel row width
inline constexpr int kPanelK = 128;  // A panel row stride / max k per block

enum class Kind : int { kScalar = 0, kVec = 1, kAvx2 = 2, kAmxBf16 = 3 };
inline constexpr int kNumKinds = 4;

using TileMultiplyFn = void (*)(const float* panel_a, int mc,
                                const float* panel_b, int kc, float* acc);

// The four implementations. When the toolchain could not build AVX2 code,
// tile_multiply_avx2 is the build-flag kernel and dispatch never selects it
// (supported(kAvx2) reports false); likewise tile_multiply_amx is the scalar
// kernel when the toolchain could not build AMX code.
void tile_multiply_scalar(const float* panel_a, int mc, const float* panel_b,
                          int kc, float* acc);
void tile_multiply_vec(const float* panel_a, int mc, const float* panel_b,
                       int kc, float* acc);
void tile_multiply_avx2(const float* panel_a, int mc, const float* panel_b,
                        int kc, float* acc);
void tile_multiply_amx(const float* panel_a, int mc, const float* panel_b,
                       int kc, float* acc);

const char* name(Kind kind) noexcept;

// Parses "scalar" / "vec" / "avx2" / "amx"; returns false on anything else.
bool parse(std::string_view text, Kind* out) noexcept;

// Compile-time *and* runtime availability (kAvx2 needs both the kernel
// compiled and the host CPU advertising AVX2+FMA; kAmxBf16 needs the kernel
// compiled, cpuid's amx-tile and amx-bf16, and the OS granting this process
// AMX tile state, requested once).
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

// Dispatches to the active kernel when it computes in FP32, else (kAmxBf16)
// to the best supported FP32 kind: GEMMs on FP32 storage keep FP32 inputs.
void tile_multiply_fp32(const float* panel_a, int mc, const float* panel_b,
                        int kc, float* acc);

namespace detail {
// Whether avx2.cc was actually built with AVX2+FMA (CMake probes the flags).
bool avx2_kernel_compiled() noexcept;
// Whether amx.cc was actually built with the AMX and AVX-512 BF16 flags.
bool amx_kernel_compiled() noexcept;
}  // namespace detail

}  // namespace bt::gemm::kernels
