// Strided batched GEMM: all batch entries share one (m, n, k) shape —
// exactly the cuBLAS restriction that forces padded attention to compute on
// zero tokens (paper Sec. III-D: "batched GEMM in MHA requires identical
// problem shapes among different batches").
//
// An adapter over grouped_gemm, the one launch in gemm/ (gemm/grouped.h):
// entry i is problem i, so epilogues and mainloop transforms see the batch
// index as their problem index. The claim width comes from claim_width()
// over all batch x tiles_n columns. A stride of 0 shares one operand across
// the batch.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "gemm/grouped.h"
#include "gemm/microkernel.h"
#include "parallel/device.h"

namespace bt::gemm {

template <typename TA, typename TB, typename TC,
          typename ATransform = IdentityATransform,
          typename Epilogue = IdentityEpilogue>
void batched_gemm(par::Device& dev, Trans ta, Trans tb, int batch,
                  std::int64_t m, std::int64_t n, std::int64_t k, float alpha,
                  const TA* a, std::int64_t lda, std::int64_t stride_a,
                  const TB* b, std::int64_t ldb, std::int64_t stride_b,
                  float beta, TC* c, std::int64_t ldc, std::int64_t stride_c,
                  const Epilogue& ep = {}, const ATransform& at = {}) {
  if (batch <= 0 || m <= 0 || n <= 0) return;
  std::vector<GroupedProblem<TA, TB, TC>> problems;
  problems.reserve(static_cast<std::size_t>(batch));
  for (int bi = 0; bi < batch; ++bi) {
    problems.push_back({m, n, k, a + bi * stride_a, lda, b + bi * stride_b,
                        ldb, c + bi * stride_c, ldc});
  }
  grouped_gemm<TA, TB, TC, ATransform, Epilogue>(
      dev, ta, tb, std::span<const GroupedProblem<TA, TB, TC>>(problems),
      alpha, beta, ep, at, claim_width(dev, m, n, batch, /*dynamic_b=*/true));
}

}  // namespace bt::gemm
