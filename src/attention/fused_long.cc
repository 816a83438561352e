// Unpadded fused MHA for long sequences — grouped-GEMM based, paper
// Sec. III-E2 (Figs. 5, 6, 8 and Algorithm III.2).
//
// One grouped-GEMM *problem* per (batch, head) attention unit, shaped by the
// unit's true sequence length — grouped GEMM places no uniformity
// restriction on problem shapes, so no padded token is computed.
// Softmax is split across the two GEMMs:
//   1. S_i = scale * Q_i K_i^T     with a fused epilogue producing per-tile
//      partial (max, sum-of-exp) pairs while the scores sit in the FP32
//      accumulator (Fig. 8),
//   2. a lightweight full-reduction kernel combines the partials per row
//      (~negligible work, Fig. 6 step 2),
//   3. O_i = P_i V_i               where P is produced on the fly by the
//      mainloop fusion exp(s - max) / sum applied as the second GEMM packs
//      its A operand (Algorithm III.2).
// Q/K/V are consumed directly from the packed token rows via leading-dim
// strides; the context lands directly in packed rows too.
//
// Both softmax steps run at vector speed, so the unit costs little more
// than its two GEMMs: every exponent is common/numeric.h's 8-wide fast_exp
// (no libm), the epilogue exponentiates a whole accumulator row at once,
// the normalize transform runs as a row hook over each widened A-panel row
// (gemm/microkernel.h), and scores leave the accumulator through one
// whole-row fp16 store. The tile visitor walks each Q K^T problem
// column-major, so a CTA packs each K^T stripe once per column rather than
// once per tile. docs/PERF.md ("Softmax exp") has the measurements.
#include <cassert>
#include <vector>

#include "attention/attention.h"
#include "common/numeric.h"
#include "gemm/epilogues.h"
#include "gemm/grouped.h"
#include "kernels/transpose.h"

namespace bt::attn {

void mha_fused_long(par::Device& dev, const PackedMhaArgs& args,
                    core::Workspace& ws, std::int64_t scheduler_prefetch) {
  if (args.causal) {
    // No per-tile causal masking in the two-pass softmax yet; delegate to
    // the length-agnostic causal-capable kernel.
    mha_flash_like(dev, args, ws);
    return;
  }
  assert(args.q_start.empty() && "q_start is only meaningful when causal");
  const core::SeqOffsets& off = *args.offsets;
  const int heads = args.heads;
  const int d = args.head_size;
  const int batch = off.batch;
  const std::int64_t hidden = static_cast<std::int64_t>(heads) * d;
  const int num_problems = batch * heads;

  // Bias-fused split of the packed QKV rows into packed Q/K/V. (The CUDA
  // version folds the bias into the GEMM's operand iterator; here it is one
  // linear pass over the packed — not padded — rows.)
  auto q = ws.get<fp16_t>("mha.long.q", off.valid_count * hidden);
  auto k = ws.get<fp16_t>("mha.long.k", off.valid_count * hidden);
  auto v = ws.get<fp16_t>("mha.long.v", off.valid_count * hidden);
  kernels::split_qkv_add_bias_packed(dev, args.qkv, args.qkv_bias, q.data(),
                                     k.data(), v.data(), off.valid_count,
                                     heads, d);

  // Per-problem score blocks (FP16, like the paper's half logits) and
  // softmax partial/full statistics, laid out via per-batch prefix sums.
  std::vector<std::int64_t> score_off(static_cast<std::size_t>(batch) + 1, 0);
  std::vector<std::int64_t> stat_off(static_cast<std::size_t>(batch) + 1, 0);
  std::vector<std::int64_t> partial_off(static_cast<std::size_t>(batch) + 1, 0);
  for (int b = 0; b < batch; ++b) {
    const std::int64_t len = off.seq_lens[static_cast<std::size_t>(b)];
    const std::int64_t col_tiles = ceil_div(len, gemm::TileShape::kN);
    score_off[static_cast<std::size_t>(b) + 1] =
        score_off[static_cast<std::size_t>(b)] + len * len;
    stat_off[static_cast<std::size_t>(b) + 1] =
        stat_off[static_cast<std::size_t>(b)] + len;
    partial_off[static_cast<std::size_t>(b) + 1] =
        partial_off[static_cast<std::size_t>(b)] + len * col_tiles;
  }
  const std::int64_t total_scores = score_off[static_cast<std::size_t>(batch)] * heads;
  const std::int64_t total_stats = stat_off[static_cast<std::size_t>(batch)] * heads;
  const std::int64_t total_partials =
      partial_off[static_cast<std::size_t>(batch)] * heads;

  auto scores = ws.get<fp16_t>("mha.long.scores", total_scores);
  auto pmax = ws.get<float>("mha.long.pmax", total_partials);
  auto psum = ws.get<float>("mha.long.psum", total_partials);
  auto row_max = ws.get<float>("mha.long.rowmax", total_stats);
  auto row_inv_sum = ws.get<float>("mha.long.rowinvsum", total_stats);

  // Problem descriptors for both grouped GEMMs, plus the fusion metadata.
  std::vector<gemm::GroupedProblem<fp16_t, fp16_t, fp16_t>> qk(
      static_cast<std::size_t>(num_problems));
  std::vector<gemm::GroupedProblem<fp16_t, fp16_t, fp16_t>> pv(
      static_cast<std::size_t>(num_problems));
  std::vector<gemm::SoftmaxPartials> partials(static_cast<std::size_t>(num_problems));
  std::vector<gemm::SoftmaxRowStats> stats(static_cast<std::size_t>(num_problems));
  std::vector<std::int64_t> stat_bases(static_cast<std::size_t>(num_problems));

  for (int b = 0; b < batch; ++b) {
    const std::int64_t len = off.seq_lens[static_cast<std::size_t>(b)];
    const std::int64_t col_tiles = ceil_div(len, gemm::TileShape::kN);
    const std::int64_t row0 = off.batch_offset[static_cast<std::size_t>(b)];
    for (int h = 0; h < heads; ++h) {
      const std::size_t p = static_cast<std::size_t>(b) * heads + static_cast<std::size_t>(h);
      fp16_t* score_block =
          scores.data() + score_off[static_cast<std::size_t>(b)] * heads +
          static_cast<std::int64_t>(h) * len * len;
      const std::int64_t partial_base =
          partial_off[static_cast<std::size_t>(b)] * heads +
          static_cast<std::int64_t>(h) * len * col_tiles;
      const std::int64_t stat_base =
          stat_off[static_cast<std::size_t>(b)] * heads +
          static_cast<std::int64_t>(h) * len;

      qk[p] = {len, len, d,
               q.data() + row0 * hidden + static_cast<std::int64_t>(h) * d, hidden,
               k.data() + row0 * hidden + static_cast<std::int64_t>(h) * d, hidden,
               score_block, len};
      pv[p] = {len, d, len,
               score_block, len,
               v.data() + row0 * hidden + static_cast<std::int64_t>(h) * d, hidden,
               args.ctx + row0 * hidden + static_cast<std::int64_t>(h) * d, hidden};
      partials[p] = {pmax.data() + partial_base, psum.data() + partial_base,
                     col_tiles, len};
      stats[p] = {row_max.data() + stat_base, row_inv_sum.data() + stat_base};
      stat_bases[p] = stat_base;
    }
  }

  // GEMM 1: scores + partial softmax reduction in the epilogue.
  const gemm::SoftmaxPartialReduceEpilogue reduce_ep{partials};
  gemm::grouped_gemm<fp16_t, fp16_t, fp16_t, gemm::IdentityATransform,
                     gemm::SoftmaxPartialReduceEpilogue>(
      dev, gemm::Trans::N, gemm::Trans::T,
      std::span<const gemm::GroupedProblem<fp16_t, fp16_t, fp16_t>>(qk),
      softmax_scale(d), 0.0f, reduce_ep, {}, scheduler_prefetch);

  // Separate lightweight full-reduction kernel (Fig. 6 step 2).
  dev.parallel_for(0, num_problems, 1, [&](std::int64_t p) {
    const gemm::SoftmaxPartials& part = partials[static_cast<std::size_t>(p)];
    const std::int64_t base = stat_bases[static_cast<std::size_t>(p)];
    gemm::softmax_full_reduce(part, part.col_tiles, row_max.data() + base,
                              row_inv_sum.data() + base);
  });

  // GEMM 2: context, with exp((s - max)) * inv_sum fused into the mainloop's
  // A-operand load (Algorithm III.2).
  const gemm::SoftmaxNormalizeATransform normalize{stats};
  gemm::grouped_gemm<fp16_t, fp16_t, fp16_t, gemm::SoftmaxNormalizeATransform,
                     gemm::IdentityEpilogue>(
      dev, gemm::Trans::N, gemm::Trans::N,
      std::span<const gemm::GroupedProblem<fp16_t, fp16_t, fp16_t>>(pv), 1.0f,
      0.0f, {}, normalize, scheduler_prefetch);
}

}  // namespace bt::attn
