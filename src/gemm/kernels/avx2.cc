// The blocked microkernel (gemm/kernels/blocked.h) compiled with at least
// AVX2+FMA. CMake adds -mavx2 -mfma -mf16c to this file whatever
// BT_NATIVE_ARCH says, so portable builds still carry the 256-bit kernel;
// dispatch selects it only when cpuid reports AVX2 and FMA. If the toolchain
// could not take the flags, this is the build-flag kernel and dispatch never
// selects it.
#include "gemm/kernels/blocked.h"

namespace bt::gemm::kernels {

void tile_multiply_avx2(const float* panel_a, int mc, const float* panel_b,
                        int kc, float* acc) {
  tile_multiply_blocked(panel_a, mc, panel_b, kc, acc);
}

namespace detail {
bool avx2_kernel_compiled() noexcept {
#if defined(__AVX2__) && defined(__FMA__)
  return true;
#else
  return false;
#endif
}
}  // namespace detail

}  // namespace bt::gemm::kernels
