// FlashAttention-style baseline for the Fig. 13 comparison.
//
// The defining property (per the paper's characterization): *one CTA owns a
// whole attention unit* — a (batch, head) pair — and streams K/V tiles
// through scratch with an online softmax, so the quadratic intermediate
// never materializes and any sequence length fits. The cost is parallelism:
// only batch*heads CTAs exist, which underutilizes a wide machine when the
// batch is small (the effect Fig. 13 measures; see also
// costmodel/makespan.h for the A100-width projection).
#include <cassert>
#include <cmath>
#include <vector>

#include "attention/attention.h"
#include "common/numeric.h"

namespace bt::attn {

namespace {
constexpr int kQBlock = 64;  // query rows processed per outer step
constexpr int kKBlock = 64;  // K/V rows streamed per inner step
}  // namespace

void mha_flash_like(par::Device& dev, const PackedMhaArgs& args,
                    core::Workspace& ws) {
  (void)ws;
  const core::SeqOffsets& off = *args.offsets;
  const int heads = args.heads;
  const int d = args.head_size;
  const std::int64_t hidden = static_cast<std::int64_t>(heads) * d;
  const float scale = softmax_scale(d);
  const std::vector<std::int64_t> out_base = ctx_row_base(args);

  par::Dim3 grid;
  grid.x = heads;
  grid.y = off.batch;
  dev.launch(grid, [&](par::CtaContext& ctx) {
    const int h = ctx.block_x;
    const int b = ctx.block_y;
    const int len = off.seq_lens[static_cast<std::size_t>(b)];
    const std::int64_t seq_base = off.batch_offset[static_cast<std::size_t>(b)];

    auto q_tile = ctx.scratch->alloc_or_abort<float>(
        kQBlock * static_cast<std::size_t>(d), "flash MHA Q tile");
    auto s_tile = ctx.scratch->alloc_or_abort<float>(
        kQBlock * static_cast<std::size_t>(kKBlock), "flash MHA score tile");
    auto o_acc = ctx.scratch->alloc_or_abort<float>(
        kQBlock * static_cast<std::size_t>(d), "flash MHA output tile");
    auto kv_row = ctx.scratch->alloc_or_abort<float>(
        static_cast<std::size_t>(d), "flash MHA KV row");
    auto m_run = ctx.scratch->alloc_or_abort<float>(kQBlock, "flash MHA max");
    auto l_run = ctx.scratch->alloc_or_abort<float>(kQBlock, "flash MHA sum");

    const fp16_t* q_bias = args.qkv_bias + 0 * hidden + h * d;
    const fp16_t* k_bias = args.qkv_bias + 1 * hidden + h * d;
    const fp16_t* v_bias = args.qkv_bias + 2 * hidden + h * d;

    // Query blocks are anchored at q_start: rows below it have cached
    // context. Each block's online-softmax state is independent (m/l reset
    // per block) and a row's fully masked trailing key blocks contribute
    // exact no-ops (correction fast_exp(0) == 1, p == 0), so every computed
    // row is bitwise identical to the same row of a q_start = 0 run.
    for (int q0 = first_query_row(args, b); q0 < len; q0 += kQBlock) {
      const int qr = std::min(kQBlock, len - q0);
      // Load the query block with bias fused.
      for (int i = 0; i < qr; ++i) {
        const fp16_t* src =
            args.qkv + (seq_base + q0 + i) * 3 * hidden + 0 * hidden + h * d;
        float* dst = q_tile.data() + static_cast<std::int64_t>(i) * d;
        convert_row_f32(src, dst, d);
        for (int e = 0; e < d; ++e) dst[e] += load_f32(q_bias[e]);
      }
      for (int i = 0; i < qr; ++i) {
        m_run[static_cast<std::size_t>(i)] = -INFINITY;
        l_run[static_cast<std::size_t>(i)] = 0.0f;
      }
      for (std::size_t i = 0; i < static_cast<std::size_t>(qr) * d; ++i) {
        o_acc[i] = 0.0f;
      }

      // Stream K/V tiles with the online softmax update. Causal queries in
      // this block need no keys past q0 + qr - 1.
      const int k_end = args.causal ? std::min(len, q0 + qr) : len;
      for (int k0 = 0; k0 < k_end; k0 += kKBlock) {
        const int kr = std::min(kKBlock, k_end - k0);
        // S_tile = scale * Q K^T for this block pair.
        for (int j = 0; j < kr; ++j) {
          const fp16_t* src = args.qkv + (seq_base + k0 + j) * 3 * hidden +
                              1 * hidden + h * d;
          convert_row_f32(src, kv_row.data(), d);
          for (int e = 0; e < d; ++e) kv_row[static_cast<std::size_t>(e)] += load_f32(k_bias[e]);
          for (int i = 0; i < qr; ++i) {
            s_tile[static_cast<std::size_t>(i) * kKBlock + static_cast<std::size_t>(j)] =
                scale * dot_f32(q_tile.data() + static_cast<std::int64_t>(i) * d,
                                kv_row.data(), d);
          }
        }
        // Rescale running stats and accumulator.
        for (int i = 0; i < qr; ++i) {
          float* srow = s_tile.data() + static_cast<std::int64_t>(i) * kKBlock;
          if (args.causal) {
            // Mask keys past this query's position; exp(-inf) -> 0 below.
            for (int j = 0; j < kr; ++j) {
              if (k0 + j > q0 + i) srow[j] = -INFINITY;
            }
          }
          float tile_max = srow[0];
          for (int j = 1; j < kr; ++j) tile_max = std::max(tile_max, srow[j]);
          const float m_new = std::max(m_run[static_cast<std::size_t>(i)], tile_max);
          // m_new is finite (key 0 is never masked), so the -inf start and
          // the masked keys both take fast_exp(-inf) == 0 exactly.
          const float correction =
              fast_exp(m_run[static_cast<std::size_t>(i)] - m_new);
          exp_row(srow, m_new, srow, kr);
          float tile_sum = 0.0f;
          for (int j = 0; j < kr; ++j) tile_sum += srow[j];
          l_run[static_cast<std::size_t>(i)] =
              l_run[static_cast<std::size_t>(i)] * correction + tile_sum;
          m_run[static_cast<std::size_t>(i)] = m_new;
          float* orow = o_acc.data() + static_cast<std::int64_t>(i) * d;
          for (int e = 0; e < d; ++e) orow[e] *= correction;
        }
        // o_acc += P_tile @ V_tile, V rows widened once apiece.
        for (int j = 0; j < kr; ++j) {
          const fp16_t* src = args.qkv + (seq_base + k0 + j) * 3 * hidden +
                              2 * hidden + h * d;
          convert_row_f32(src, kv_row.data(), d);
          for (int e = 0; e < d; ++e) kv_row[static_cast<std::size_t>(e)] += load_f32(v_bias[e]);
          for (int i = 0; i < qr; ++i) {
            const float p =
                s_tile[static_cast<std::size_t>(i) * kKBlock + static_cast<std::size_t>(j)];
            float* orow = o_acc.data() + static_cast<std::int64_t>(i) * d;
            for (int e = 0; e < d; ++e) orow[e] += p * kv_row[static_cast<std::size_t>(e)];
          }
        }
      }

      // Normalize and store the query block.
      for (int i = 0; i < qr; ++i) {
        const float inv = 1.0f / l_run[static_cast<std::size_t>(i)];
        float* orow = o_acc.data() + static_cast<std::int64_t>(i) * d;
        for (int e = 0; e < d; ++e) orow[e] *= inv;
        fp16_t* dst =
            args.ctx + (out_base[static_cast<std::size_t>(b)] + q0 + i) * hidden +
            h * d;
        convert_row_from_f32(orow, dst, d);
      }
    }
  });
}

}  // namespace bt::attn
