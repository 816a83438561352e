// Kernel selection: cpuid-style detection once at startup, overridable via
// BT_GEMM_KERNEL=scalar|vec|avx2|amx for A/B benchmarking, and force() for
// tests. The active kernel is stored as an atomic function pointer so the
// hot-path dispatch is a single relaxed load; a second pointer holds the
// FP32 kind that FP32-storage GEMMs use when the active kind is kAmxBf16.
#include "gemm/kernels/kernel.h"

#include <atomic>
#include <cstdio>
#include <cstdlib>

#if (defined(__x86_64__) || defined(__i386__)) && \
    (defined(__GNUC__) || defined(__clang__))
#include <cpuid.h>
#endif
#if defined(__linux__) && defined(__x86_64__)
#include <sys/syscall.h>
#include <unistd.h>
#endif

namespace bt::gemm::kernels {

namespace {

bool host_has_avx2_fma() noexcept {
#if (defined(__x86_64__) || defined(__i386__)) && \
    (defined(__GNUC__) || defined(__clang__))
  return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
#else
  return false;
#endif
}

// cpuid leaf 7 reports amx-bf16 (EDX bit 22) and amx-tile (bit 24); Linux
// then hands out tile data state only to a process that asks for it.
bool host_has_amx_bf16() noexcept {
#if defined(__linux__) && defined(__x86_64__) && \
    (defined(__GNUC__) || defined(__clang__))
  unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
  if (!__get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx)) return false;
  if ((edx & (1u << 22)) == 0 || (edx & (1u << 24)) == 0) return false;
  constexpr int kArchReqXcompPerm = 0x1023;
  constexpr int kXfeatureXtiledata = 18;
  return syscall(SYS_arch_prctl, kArchReqXcompPerm, kXfeatureXtiledata) == 0;
#else
  return false;
#endif
}

Kind best_fp32() noexcept {
  if (supported(Kind::kAvx2)) return Kind::kAvx2;
  return Kind::kVec;
}

Kind detect_best() noexcept {
  if (supported(Kind::kAmxBf16)) return Kind::kAmxBf16;
  return best_fp32();
}

Kind initial_kind() noexcept {
  const char* env = std::getenv("BT_GEMM_KERNEL");
  if (env == nullptr || env[0] == '\0') return detect_best();
  Kind requested;
  if (!parse(env, &requested)) {
    std::fprintf(stderr,
                 "bt: BT_GEMM_KERNEL=%s is not one of scalar|vec|avx2|amx; "
                 "using %s\n",
                 env, name(detect_best()));
    return detect_best();
  }
  if (!supported(requested)) {
    std::fprintf(stderr,
                 "bt: BT_GEMM_KERNEL=%s is unsupported on this build/host; "
                 "using %s\n",
                 env, name(detect_best()));
    return detect_best();
  }
  return requested;
}

TileMultiplyFn fp32_fn_for(Kind kind) noexcept {
  return fn(kind == Kind::kAmxBf16 ? best_fp32() : kind);
}

struct State {
  std::atomic<Kind> kind;
  std::atomic<TileMultiplyFn> fn;
  std::atomic<TileMultiplyFn> fp32_fn;
  State() {
    const Kind k = initial_kind();
    kind.store(k, std::memory_order_relaxed);
    fn.store(kernels::fn(k), std::memory_order_relaxed);
    fp32_fn.store(fp32_fn_for(k), std::memory_order_relaxed);
  }
};

State& state() noexcept {
  static State s;
  return s;
}

}  // namespace

const char* name(Kind kind) noexcept {
  switch (kind) {
    case Kind::kScalar: return "scalar";
    case Kind::kVec: return "vec";
    case Kind::kAvx2: return "avx2";
    case Kind::kAmxBf16: return "amx";
  }
  return "?";
}

bool parse(std::string_view text, Kind* out) noexcept {
  if (text == "scalar") {
    *out = Kind::kScalar;
  } else if (text == "vec") {
    *out = Kind::kVec;
  } else if (text == "avx2") {
    *out = Kind::kAvx2;
  } else if (text == "amx") {
    *out = Kind::kAmxBf16;
  } else {
    return false;
  }
  return true;
}

bool supported(Kind kind) noexcept {
  switch (kind) {
    case Kind::kScalar:
    case Kind::kVec:
      return true;
    case Kind::kAvx2:
      return detail::avx2_kernel_compiled() && host_has_avx2_fma();
    case Kind::kAmxBf16: {
      static const bool ok =
          detail::amx_kernel_compiled() && host_has_amx_bf16();
      return ok;
    }
  }
  return false;
}

TileMultiplyFn fn(Kind kind) noexcept {
  switch (kind) {
    case Kind::kScalar: return &tile_multiply_scalar;
    case Kind::kVec: return &tile_multiply_vec;
    case Kind::kAvx2: return &tile_multiply_avx2;
    case Kind::kAmxBf16: return &tile_multiply_amx;
  }
  return &tile_multiply_scalar;
}

Kind active() noexcept { return state().kind.load(std::memory_order_relaxed); }

bool force(Kind kind) noexcept {
  if (!supported(kind)) return false;
  state().kind.store(kind, std::memory_order_relaxed);
  state().fn.store(fn(kind), std::memory_order_relaxed);
  state().fp32_fn.store(fp32_fn_for(kind), std::memory_order_relaxed);
  return true;
}

void tile_multiply(const float* panel_a, int mc, const float* panel_b, int kc,
                   float* acc) {
  state().fn.load(std::memory_order_relaxed)(panel_a, mc, panel_b, kc, acc);
}

void tile_multiply_fp32(const float* panel_a, int mc, const float* panel_b,
                        int kc, float* acc) {
  state().fp32_fn.load(std::memory_order_relaxed)(panel_a, mc, panel_b, kc,
                                                  acc);
}

}  // namespace bt::gemm::kernels
