// Single-problem GEMM: C = epilogue(alpha * op(A) @ op(B)) + beta * C.
//
// Row-major operands, FP16 or FP32 storage, FP32 accumulation, kM x kN
// output tiles. Both forms are one-problem adapters over grouped_gemm, the
// one launch in gemm/ (gemm/grouped.h), with the claim width from
// claim_width():
//   * gemm(..., b, ldb, ...)      — dynamic B, packed into a per-CTA stripe
//     once per output column claimed (gemm/panel_cache.h).
//   * gemm_prepacked(..., PackedB ...) — persistent B (weights): panels were
//     packed once at load time (gemm/packed.h); the mainloop does no B
//     packing at all.
#pragma once

#include <cstdint>
#include <span>

#include "gemm/grouped.h"
#include "gemm/microkernel.h"
#include "gemm/packed.h"
#include "parallel/device.h"

namespace bt::gemm {

template <typename TA, typename TB, typename TC,
          typename ATransform = IdentityATransform,
          typename Epilogue = IdentityEpilogue>
void gemm(par::Device& dev, Trans ta, Trans tb, std::int64_t m, std::int64_t n,
          std::int64_t k, float alpha, const TA* a, std::int64_t lda,
          const TB* b, std::int64_t ldb, float beta, TC* c, std::int64_t ldc,
          const Epilogue& ep = {}, const ATransform& at = {}) {
  const GroupedProblem<TA, TB, TC> p{m, n, k, a, lda, b, ldb, c, ldc};
  grouped_gemm<TA, TB, TC, ATransform, Epilogue>(
      dev, ta, tb, std::span(&p, 1), alpha, beta, ep, at,
      claim_width(dev, m, n, 1, /*dynamic_b=*/true));
}

// Prepacked-B form: op(B) was packed once via PackedB::pack (same op — the
// transpose is baked into the panels). Bitwise identical to the dynamic
// form; the mainloop simply skips pack_b_panel.
template <typename TA, typename TC, typename ATransform = IdentityATransform,
          typename Epilogue = IdentityEpilogue>
void gemm_prepacked(par::Device& dev, Trans ta, std::int64_t m, std::int64_t n,
                    std::int64_t k, float alpha, const TA* a, std::int64_t lda,
                    const PackedB& b, float beta, TC* c, std::int64_t ldc,
                    const Epilogue& ep = {}, const ATransform& at = {}) {
  const GroupedProblem<TA, TA, TC> p{m, n, k, a, lda, nullptr, 0, c, ldc, &b};
  grouped_gemm<TA, TA, TC, ATransform, Epilogue>(
      dev, ta, Trans::N, std::span(&p, 1), alpha, beta, ep, at,
      claim_width(dev, m, n, 1, /*dynamic_b=*/false));
}

// Convenience wrappers for the common storage combinations; implemented in
// gemm.cc so most callers never instantiate the template themselves.
void gemm_f32(par::Device& dev, Trans ta, Trans tb, std::int64_t m,
              std::int64_t n, std::int64_t k, float alpha, const float* a,
              std::int64_t lda, const float* b, std::int64_t ldb, float beta,
              float* c, std::int64_t ldc);

void gemm_f16(par::Device& dev, Trans ta, Trans tb, std::int64_t m,
              std::int64_t n, std::int64_t k, float alpha, const fp16_t* a,
              std::int64_t lda, const fp16_t* b, std::int64_t ldb, float beta,
              fp16_t* c, std::int64_t ldc);

// Naive triple-loop FP64-accumulate reference, for tests only.
template <typename TA, typename TB>
void gemm_reference(Trans ta, Trans tb, std::int64_t m, std::int64_t n,
                    std::int64_t k, double alpha, const TA* a, std::int64_t lda,
                    const TB* b, std::int64_t ldb, double* c, std::int64_t ldc) {
  for (std::int64_t i = 0; i < m; ++i) {
    for (std::int64_t j = 0; j < n; ++j) {
      double sum = 0;
      for (std::int64_t p = 0; p < k; ++p) {
        const double av = ta == Trans::N ? load_f32(a[i * lda + p])
                                         : load_f32(a[p * lda + i]);
        const double bv = tb == Trans::N ? load_f32(b[p * ldb + j])
                                         : load_f32(b[j * ldb + p]);
        sum += av * bv;
      }
      c[i * ldc + j] = alpha * sum;
    }
  }
}

}  // namespace bt::gemm
