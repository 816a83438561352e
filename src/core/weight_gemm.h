// Weight-side GEMM dispatch shared by the encoder layers.
//
// Every weight GEMM in the pipeline has the same shape conventions —
// row-major activations [rows, k] against a [k, n] weight, alpha 1,
// beta 0 — and two interchangeable B sources: the persistent PackedB
// panels built at model load, or the raw weight tensor packed on the fly
// (bitwise identical; see docs/PERF.md). This helper keeps that choice in
// one place: one grouped-GEMM problem whose packed_b is set when prepacked.
#pragma once

#include <cstdint>
#include <span>

#include "common/half.h"
#include "gemm/grouped.h"
#include "gemm/packed.h"
#include "parallel/device.h"
#include "tensor/tensor.h"

namespace bt::core {

template <typename Epilogue = gemm::IdentityEpilogue>
inline void weight_gemm(par::Device& dev, bool prepacked, std::int64_t rows,
                        std::int64_t n, std::int64_t k, const fp16_t* a,
                        const gemm::PackedB& packed, const Tensor<fp16_t>& w,
                        fp16_t* c, const Epilogue& ep = {}) {
  const gemm::GroupedProblem<fp16_t, fp16_t, fp16_t> p{
      rows, n, k, a, k, w.data(), n, c, n, prepacked ? &packed : nullptr};
  gemm::grouped_gemm<fp16_t, fp16_t, fp16_t, gemm::IdentityATransform,
                     Epilogue>(
      dev, gemm::Trans::N, gemm::Trans::N, std::span(&p, 1), 1.0f, 0.0f, ep,
      {}, gemm::claim_width(dev, rows, n, 1, /*dynamic_b=*/!prepacked));
}

}  // namespace bt::core
