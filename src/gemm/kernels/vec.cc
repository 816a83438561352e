// The blocked microkernel (gemm/kernels/blocked.h) compiled with the build's
// own flags: AVX-512 or AVX2 under BT_NATIVE_ARCH on such a host, 128-bit
// vectors in portable builds.
#include "gemm/kernels/blocked.h"

namespace bt::gemm::kernels {

void tile_multiply_vec(const float* panel_a, int mc, const float* panel_b,
                       int kc, float* acc) {
  tile_multiply_blocked(panel_a, mc, panel_b, kc, acc);
}

}  // namespace bt::gemm::kernels
