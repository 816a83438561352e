// Unpadded fused MHA for short sequences — paper Algorithm III.1.
//
// One CTA handles a kSplitSeqLen-row query tile of one (batch, head) unit.
// The whole chain — load Q/K with bias fused, Q K^T, softmax, P V — runs out
// of the CTA scratch arena ("shared memory"): the quadratic logits tile
// never touches global memory. Q/K/V are read *packed* through the offset
// vector, so no padded token is ever loaded or computed.
//
// Both GEMMs of the chain go through the register-blocked gemm microkernel
// (gemm/kernels/kernel.h). For Q K^T the query tile is held as an A panel
// and each 64-key block of K (bias fused at load) is transposed into a B
// panel. For P V the normalized probabilities of each 64-key block are
// copied into the (by then dead) Q panel as the A operand and the block's
// V rows (bias fused) fill one B panel per 64 head columns. Each output
// element is a key-ascending FMA chain seeded at 0 and a masked
// probability enters it as an exact 0 term, so a row's context does not
// depend on which tile it falls in or where that tile's key loop stops.
//
// Under causal masking a tile's key loop stops at the tile's last row:
// no query row of the tile attends further.
//
// Capacity note: at max_seq = 384, head_size = 64 the arena holds ~125 KiB
// of the 164 KiB budget (the logits tile dominates and grows with the
// sequence). The 384 cutoff itself is the paper's A100 value; the
// dispatcher applies it on top of the capacity check.
#include <algorithm>
#include <cassert>
#include <cstring>
#include <limits>
#include <vector>

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
  const std::size_t dpad = static_cast<std::size_t>(
      round_up(head_size, gemm::TileShape::kN));
  // Q/P A panel + logits tile + accumulator (Q K^T block, then the P V
  // context in dpad/kN column panels) + K/V B panels + row/bias buffers,
  // plus headroom for the arena's 16-byte alignment of its 8 allocations.
  return split * gemm::TileShape::kK * sizeof(float) +  // Q / P panel
         split * len * sizeof(float) +                  // logits
         split * dpad * sizeof(float) +                 // accumulator
         dpad * gemm::TileShape::kN * sizeof(float) +   // K / V B panels
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
  constexpr int kPK = gemm::TileShape::kK;
  constexpr int kPN = gemm::TileShape::kN;
  const int col_panels = static_cast<int>(ceil_div(d, kPN));
  const std::vector<std::int64_t> out_base = ctx_row_base(args);

  // Query tiles are anchored at each sequence's q_start.
  int max_rows = 0;
  for (int b = 0; b < off.batch; ++b) {
    max_rows = std::max(max_rows, off.seq_lens[static_cast<std::size_t>(b)] -
                                      first_query_row(args, b));
  }
  par::Dim3 grid;
  grid.x = heads;
  grid.y = static_cast<int>(ceil_div(max_rows, kSplitSeqLen));
  grid.z = off.batch;
  dev.launch(grid, [&](par::CtaContext& ctx) {
    const int h = ctx.block_x;
    const int tile = ctx.block_y;
    const int b = ctx.block_z;
    const int len = off.seq_lens[static_cast<std::size_t>(b)];
    const int q_begin = first_query_row(args, b) + tile * kSplitSeqLen;
    if (q_begin >= len) return;  // tile entirely past this sequence's end
    const int rows = std::min(kSplitSeqLen, len - q_begin);
    // Causal rows of this tile attend no key past its last row.
    const int kv = args.causal ? q_begin + rows : len;
    const std::int64_t seq_base = off.batch_offset[static_cast<std::size_t>(b)];

    // Dispatch only routes here when the tile set fits on-chip; a shortfall
    // is a dispatch bug, so the allocations fail loudly.
    auto a_panel = ctx.scratch->alloc_or_abort<float>(
        static_cast<std::size_t>(rows) * kPK, "short MHA Q/P panel");
    auto logits = ctx.scratch->alloc_or_abort<float>(
        static_cast<std::size_t>(rows) * kv, "short MHA logits tile");
    auto acc = ctx.scratch->alloc_or_abort<float>(
        static_cast<std::size_t>(rows) * col_panels * kPN,
        "short MHA accumulator");
    // d x kPN for a K block, col_panels x (kPN x kPN) for a V block.
    auto b_panel = ctx.scratch->alloc_or_abort<float>(
        static_cast<std::size_t>(col_panels) * kPN * kPN, "short MHA K/V panel");
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
      float* dst = a_panel.data() + static_cast<std::int64_t>(i) * kPK;
      convert_row_f32(src, dst, d);
      for (int j = 0; j < d; ++j) dst[j] += q_bias[j];
      std::memset(dst + d, 0, sizeof(float) * static_cast<std::size_t>(kPK - d));
    }

    // logits = scale * Q K^T, one 64-key block at a time: K rows (bias
    // fused) are transposed into a B panel and the block runs through the
    // register-blocked microkernel. Under causal masking the entries past
    // the diagonal inside the last block are computed but never read.
    for (int col0 = 0; col0 < kv; col0 += kPN) {
      const int nc = std::min(kPN, kv - col0);
      for (int j = 0; j < nc; ++j) {
        const fp16_t* src =
            args.qkv + (seq_base + col0 + j) * 3 * hidden + 1 * hidden + h * d;
        convert_row_f32(src, row_buf.data(), d);
        float* col = b_panel.data() + j;
        for (int p = 0; p < d; ++p) {
          col[static_cast<std::int64_t>(p) * kPN] = row_buf[p] + k_bias[p];
        }
      }
      if (nc < kPN) {
        for (int p = 0; p < d; ++p) {
          std::memset(b_panel.data() + static_cast<std::int64_t>(p) * kPN + nc,
                      0, sizeof(float) * static_cast<std::size_t>(kPN - nc));
        }
      }
      std::memset(acc.data(), 0,
                  sizeof(float) * static_cast<std::size_t>(rows) * kPN);
      gemm::kernels::tile_multiply(a_panel.data(), rows, b_panel.data(), d,
                                   acc.data());
      for (int i = 0; i < rows; ++i) {
        const float* acc_row = acc.data() + static_cast<std::int64_t>(i) * kPN;
        float* lrow = logits.data() + static_cast<std::int64_t>(i) * kv + col0;
        for (int j = 0; j < nc; ++j) lrow[j] = scale * acc_row[j];
      }
    }

    // Softmax per query row: both reductions and the transform on data held
    // locally (the register-file re-use of Algorithm III.1 lines 27-37).
    for (int i = 0; i < rows; ++i) {
      const int row_len = args.causal ? q_begin + i + 1 : len;
      float* lrow = logits.data() + static_cast<std::int64_t>(i) * kv;
      float mx = lrow[0];
      for (int j = 1; j < row_len; ++j) mx = std::max(mx, lrow[j]);
      exp_row(lrow, mx, lrow, row_len);
      float sum = 0.0f;
      for (int j = 0; j < row_len; ++j) sum += lrow[j];
      const float inv = 1.0f / sum;
      for (int j = 0; j < row_len; ++j) lrow[j] *= inv;
    }

    // ctx = P V through the microkernel, one 64-key block at a time: the
    // block's probabilities (masked entries as 0) become the A panel and its
    // V rows (bias fused) one B panel per 64 head columns; the accumulator
    // holds column panel c at acc + c * rows * kPN.
    std::memset(acc.data(), 0,
                sizeof(float) * static_cast<std::size_t>(rows) * col_panels *
                    kPN);
    for (int col0 = 0; col0 < kv; col0 += kPN) {
      const int nc = std::min(kPN, kv - col0);
      for (int i = 0; i < rows; ++i) {
        const float* lrow =
            logits.data() + static_cast<std::int64_t>(i) * kv + col0;
        float* dst = a_panel.data() + static_cast<std::int64_t>(i) * kPK;
        const int valid =
            args.causal ? std::clamp(q_begin + i + 1 - col0, 0, nc) : nc;
        std::memcpy(dst, lrow, sizeof(float) * static_cast<std::size_t>(valid));
        std::memset(dst + valid, 0,
                    sizeof(float) * static_cast<std::size_t>(nc - valid));
      }
      for (int j = 0; j < nc; ++j) {
        const fp16_t* src =
            args.qkv + (seq_base + col0 + j) * 3 * hidden + 2 * hidden + h * d;
        convert_row_f32(src, row_buf.data(), d);
        for (int c = 0; c < col_panels; ++c) {
          float* dst = b_panel.data() +
                       (static_cast<std::int64_t>(c) * kPN + j) * kPN;
          const int e0 = c * kPN;
          const int ne = std::min(kPN, d - e0);
          for (int e = 0; e < ne; ++e) dst[e] = row_buf[e0 + e] + v_bias[e0 + e];
          std::memset(dst + ne, 0, sizeof(float) * static_cast<std::size_t>(kPN - ne));
        }
      }
      for (int c = 0; c < col_panels; ++c) {
        gemm::kernels::tile_multiply(
            a_panel.data(), rows,
            b_panel.data() + static_cast<std::int64_t>(c) * kPN * kPN, nc,
            acc.data() + static_cast<std::int64_t>(c) * rows * kPN);
      }
    }

    // Stream the tile to its packed output rows.
    for (int i = 0; i < rows; ++i) {
      fp16_t* dst = args.ctx +
                    (out_base[static_cast<std::size_t>(b)] + q_begin + i) *
                        hidden +
                    h * d;
      for (int c = 0; c < col_panels; ++c) {
        const int e0 = c * kPN;
        convert_row_from_f32(acc.data() +
                                 (static_cast<std::int64_t>(c) * rows + i) * kPN,
                             dst + e0, std::min(kPN, d - e0));
      }
    }
  });
}

}  // namespace bt::attn
