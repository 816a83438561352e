// Unpadded fused MHA for short sequences — paper Algorithm III.1.
//
// One CTA handles a kSplitSeqLen-row query tile of one (batch, head) unit.
// The whole chain — load Q/K with bias fused, Q K^T, softmax, P V — runs out
// of the CTA scratch arena ("shared memory"): the quadratic logits tile
// never touches global memory. Q/K/V are read *packed* through the offset
// vector, so no padded token is ever loaded or computed.
//
// Q K^T goes through the register-blocked gemm microkernel
// (gemm/kernels/kernel.h): the query tile is held as an A panel and each
// 64-key block of K (bias fused at load) is transposed into a B panel, so
// the quadratic work runs at panel-GEMM speed instead of per-row scalar
// dots. P V stays a running-vector accumulation (each value row is touched
// once, already vector-friendly).
//
// Capacity note (why the 384 cutoff is real here too): at max_seq = 384,
// head_size = 64 the arena holds ~137 KiB of the 164 KiB budget — past the
// cutoff it no longer fits and the grouped-GEMM kernel takes over.
#include <algorithm>
#include <cassert>
#include <limits>

#include "attention/attention.h"
#include "common/numeric.h"
#include "gemm/microkernel.h"

namespace bt::attn {

std::size_t fused_short_scratch_bytes(int max_seq, int head_size) {
  // The Q panel is laid out at the microkernel's fixed K depth, so heads
  // deeper than TileShape::kK cannot run here at all; report "never fits"
  // and the capacity-driven dispatch routes them to the grouped-GEMM path
  // (which handles any head size).
  if (head_size > gemm::TileShape::kK) {
    return std::numeric_limits<std::size_t>::max();
  }
  const std::size_t len = static_cast<std::size_t>(max_seq);
  const std::size_t hd = static_cast<std::size_t>(head_size);
  const std::size_t split = static_cast<std::size_t>(kSplitSeqLen);
  // q panel + logits tile + ctx accumulator + K-block B panel + gemm
  // accumulator + row/bias buffers, plus headroom for the arena's 16-byte
  // allocation alignment.
  return split * gemm::TileShape::kK * sizeof(float) +  // q panel
         split * len * sizeof(float) +                  // logits
         split * hd * sizeof(float) +                   // ctx accumulator
         hd * gemm::TileShape::kN * sizeof(float) +     // K-block B panel
         split * gemm::TileShape::kN * sizeof(float) +  // gemm accumulator
         4 * hd * sizeof(float) +                       // row + bias buffers
         8 * 16;
}

void mha_fused_short(par::Device& dev, const PackedMhaArgs& args,
                     core::Workspace& ws) {
  // Capacity-driven fallback: if the tile set cannot be held on-chip at this
  // shape, the grouped-GEMM kernel is the correct implementation — the same
  // decision the CUDA dispatcher makes at compile time via shared-memory
  // limits.
  if (fused_short_scratch_bytes(args.offsets->max_seq, args.head_size) >
      dev.scratch_bytes()) {
    mha_fused_long(dev, args, ws);
    return;
  }
  const core::SeqOffsets& off = *args.offsets;
  const int heads = args.heads;
  const int d = args.head_size;
  assert(d <= gemm::TileShape::kK && "head_size exceeds the K panel depth");
  const std::int64_t hidden = static_cast<std::int64_t>(heads) * d;
  const float scale = softmax_scale(d);

  par::Dim3 grid;
  grid.x = heads;
  grid.y = static_cast<int>(ceil_div(off.max_seq, kSplitSeqLen));
  grid.z = off.batch;
  dev.launch(grid, [&](par::CtaContext& ctx) {
    const int h = ctx.block_x;
    const int tile = ctx.block_y;
    const int b = ctx.block_z;
    const int len = off.seq_lens[static_cast<std::size_t>(b)];
    const int q_begin = tile * kSplitSeqLen;
    if (q_begin >= len) return;  // tile entirely past this sequence's end
    const int rows = std::min(kSplitSeqLen, len - q_begin);
    // Prefix-resume skip: a tile whose every query row is below q_start is
    // already served from cached context. Whole tiles only — a straddling
    // tile recomputes its cached rows (they are simply not stored), keeping
    // the computed rows bitwise identical to a q_start=0 run.
    if (q_begin + rows <= args.q_start) return;
    const std::int64_t seq_base = off.batch_offset[static_cast<std::size_t>(b)];
    constexpr int kPK = gemm::TileShape::kK;
    constexpr int kPN = gemm::TileShape::kN;

    // Dispatch only routes here when the tile set fits on-chip; a shortfall
    // is a dispatch bug, so the allocations fail loudly.
    auto q_panel = ctx.scratch->alloc_or_abort<float>(
        static_cast<std::size_t>(rows) * kPK, "short MHA Q panel");
    auto logits = ctx.scratch->alloc_or_abort<float>(
        static_cast<std::size_t>(rows) * len, "short MHA logits tile");
    auto ctx_acc = ctx.scratch->alloc_or_abort<float>(
        static_cast<std::size_t>(rows) * d, "short MHA context tile");
    auto k_panel = ctx.scratch->alloc_or_abort<float>(
        static_cast<std::size_t>(d) * kPN, "short MHA K panel");
    auto acc = ctx.scratch->alloc_or_abort<float>(
        static_cast<std::size_t>(rows) * kPN, "short MHA gemm accumulator");
    auto row_buf = ctx.scratch->alloc_or_abort<float>(
        static_cast<std::size_t>(d), "short MHA row buffer");
    auto q_bias = ctx.scratch->alloc_or_abort<float>(
        static_cast<std::size_t>(d), "short MHA Q bias");
    auto k_bias = ctx.scratch->alloc_or_abort<float>(
        static_cast<std::size_t>(d), "short MHA K bias");
    auto v_bias = ctx.scratch->alloc_or_abort<float>(
        static_cast<std::size_t>(d), "short MHA V bias");

    convert_row_f32(args.qkv_bias + 0 * hidden + h * d, q_bias.data(), d);
    convert_row_f32(args.qkv_bias + 1 * hidden + h * d, k_bias.data(), d);
    convert_row_f32(args.qkv_bias + 2 * hidden + h * d, v_bias.data(), d);

    // Fill the A panel with Q + bias, zero-padded to the panel depth.
    for (int i = 0; i < rows; ++i) {
      const fp16_t* src = args.qkv + (seq_base + q_begin + i) * 3 * hidden +
                          0 * hidden + h * d;
      float* dst = q_panel.data() + static_cast<std::int64_t>(i) * kPK;
      convert_row_f32(src, dst, d);
      for (int j = 0; j < d; ++j) dst[j] += q_bias[j];
      std::memset(dst + d, 0, sizeof(float) * static_cast<std::size_t>(kPK - d));
    }

    // logits = scale * Q K^T, one 64-key block at a time: K rows (bias
    // fused) are transposed into a B panel and the block runs through the
    // register-blocked microkernel. Under causal masking the extra entries
    // beyond the diagonal are computed but never read by the softmax.
    for (int col0 = 0; col0 < len; col0 += kPN) {
      const int nc = std::min(kPN, len - col0);
      for (int j = 0; j < nc; ++j) {
        const fp16_t* src =
            args.qkv + (seq_base + col0 + j) * 3 * hidden + 1 * hidden + h * d;
        convert_row_f32(src, row_buf.data(), d);
        float* col = k_panel.data() + j;
        for (int p = 0; p < d; ++p) {
          col[static_cast<std::int64_t>(p) * kPN] = row_buf[p] + k_bias[p];
        }
      }
      if (nc < kPN) {
        for (int p = 0; p < d; ++p) {
          std::memset(k_panel.data() + static_cast<std::int64_t>(p) * kPN + nc,
                      0, sizeof(float) * static_cast<std::size_t>(kPN - nc));
        }
      }
      std::memset(acc.data(), 0,
                  sizeof(float) * static_cast<std::size_t>(rows) * kPN);
      gemm::kernels::tile_multiply(q_panel.data(), rows, k_panel.data(), d,
                                   acc.data());
      for (int i = 0; i < rows; ++i) {
        const float* acc_row = acc.data() + static_cast<std::int64_t>(i) * kPN;
        float* lrow = logits.data() + static_cast<std::int64_t>(i) * len + col0;
        for (int j = 0; j < nc; ++j) lrow[j] = scale * acc_row[j];
      }
    }

    // Softmax per query row: both reductions and the transform on data held
    // locally (the register-file re-use of Algorithm III.1 lines 27-37).
    for (int i = 0; i < rows; ++i) {
      const int row_len =
          args.causal ? std::min(len, q_begin + i + 1) : len;
      float* lrow = logits.data() + static_cast<std::int64_t>(i) * len;
      float mx = lrow[0];
      for (int j = 1; j < row_len; ++j) mx = std::max(mx, lrow[j]);
      exp_row(lrow, mx, lrow, row_len);
      float sum = 0.0f;
      for (int j = 0; j < row_len; ++j) sum += lrow[j];
      const float inv = 1.0f / sum;
      for (int j = 0; j < row_len; ++j) lrow[j] *= inv;
    }

    // ctx = P V, accumulated in FP32; V rows (bias fused) widened once
    // apiece straight from the packed QKV rows.
    for (std::size_t i = 0; i < static_cast<std::size_t>(rows) * d; ++i) {
      ctx_acc[i] = 0.0f;
    }
    for (int j = 0; j < len; ++j) {
      const fp16_t* src =
          args.qkv + (seq_base + j) * 3 * hidden + 2 * hidden + h * d;
      convert_row_f32(src, row_buf.data(), d);
      for (int e = 0; e < d; ++e) row_buf[e] += v_bias[e];
      const int i_first = args.causal ? std::max(0, j - q_begin) : 0;
      for (int i = i_first; i < rows; ++i) {
        const float p = logits[static_cast<std::size_t>(i) * len + j];
        float* acc_row = ctx_acc.data() + static_cast<std::int64_t>(i) * d;
        for (int e = 0; e < d; ++e) acc_row[e] += p * row_buf[e];
      }
    }

    // Stream the tile to the packed output rows.
    for (int i = 0; i < rows; ++i) {
      fp16_t* dst = args.ctx + (seq_base + q_begin + i) * hidden + h * d;
      convert_row_from_f32(ctx_acc.data() + static_cast<std::int64_t>(i) * d,
                           dst, d);
    }
  });
}

}  // namespace bt::attn
