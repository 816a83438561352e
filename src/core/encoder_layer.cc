#include "core/encoder_layer.h"

#include <algorithm>
#include <cassert>
#include <cstring>

#include "attention/attention.h"
#include "core/weight_gemm.h"
#include "gemm/epilogues.h"
#include "gemm/gemm.h"
#include "kernels/activation.h"
#include "kernels/layernorm.h"
#include "kernels/transpose.h"

namespace bt::core {

namespace {

// Attention block for pipelines that need padded per-head tensors (every
// non-fused-MHA configuration). Handles both entry layouts:
//   * padded rows  -> split+bias ("add bias (Q,K,V)" + transpose, Fig. 2a)
//   * packed rows  -> fused rebuild-padding + bias + transpose (Fig. 2c)
// and the mirrored merge on the way out.
void padded_attention_block(par::Device& dev, const BertConfig& cfg,
                            const LayerWeights& w, const OptFlags& flags,
                            const fp16_t* qkv, fp16_t* ctx_rows,
                            const SeqOffsets& off, Workspace& ws) {
  const int heads = cfg.heads;
  const int hd = cfg.head_size;
  const std::int64_t per_head_elems =
      static_cast<std::int64_t>(off.batch) * heads * off.max_seq * hd;
  auto q = ws.get<fp16_t>("layer.q", per_head_elems);
  auto k = ws.get<fp16_t>("layer.k", per_head_elems);
  auto v = ws.get<fp16_t>("layer.v", per_head_elems);
  auto ctx_heads = ws.get<fp16_t>("layer.ctx_heads", per_head_elems);

  if (flags.zero_padding) {
    kernels::split_qkv_add_bias_rebuild_padding(dev, qkv, w.b_qkv.data(),
                                                q.data(), k.data(), v.data(),
                                                off, heads, hd);
  } else {
    kernels::split_qkv_add_bias_padded(dev, qkv, w.b_qkv.data(), q.data(),
                                       k.data(), v.data(), off.batch,
                                       off.max_seq, heads, hd);
  }

  attn::PaddedMhaArgs args;
  args.q = q.data();
  args.k = k.data();
  args.v = v.data();
  args.ctx = ctx_heads.data();
  args.batch = off.batch;
  args.heads = heads;
  args.max_seq = off.max_seq;
  args.head_size = hd;
  args.seq_lens = off.seq_lens;
  switch (flags.padded_mha) {
    case PaddedMhaKind::kPyTorchLike:
      attn::mha_pytorch_like(dev, args, ws);
      break;
    case PaddedMhaKind::kBatched:
      attn::mha_batched(dev, args, ws);
      break;
    case PaddedMhaKind::kBatchedZeroPad:
      attn::mha_batched_zeropad(dev, args, ws);
      break;
  }

  if (flags.zero_padding) {
    kernels::merge_heads_remove_padding(dev, ctx_heads.data(), ctx_rows, off,
                                        heads, hd);
  } else {
    kernels::merge_heads_padded(dev, ctx_heads.data(), ctx_rows, off.batch,
                                off.max_seq, heads, hd);
  }
}

}  // namespace

void encoder_layer_tail(par::Device& dev, const BertConfig& cfg,
                        const LayerWeights& w, const OptFlags& flags,
                        const fp16_t* ctx_rows, const fp16_t* input,
                        fp16_t* output, std::int64_t rows, Workspace& ws,
                        StageTimes* times) {
  const std::int64_t h = cfg.hidden();
  const std::int64_t inner = cfg.ffn_inner();
  const bool prepacked = flags.prepacked_weights && w.packed.ready;

  auto attn_out = ws.get<fp16_t>("layer.attn_out", rows * h);
  auto ln1_out = ws.get<fp16_t>("layer.ln1_out", rows * h);
  auto ffn_mid = ws.get<fp16_t>("layer.ffn_mid", rows * inner);
  auto ffn_out = ws.get<fp16_t>("layer.ffn_out", rows * h);

  // GEMM #1: attention output projection.
  {
    StageScope scope(times, "gemm1");
    weight_gemm(dev, prepacked, rows, h, h, ctx_rows, w.packed.proj,
                w.w_proj, attn_out.data());
  }

  // Add-bias + residual + layernorm #0.
  {
    StageScope scope(times, "layernorm0");
    if (flags.fuse_layernorm) {
      kernels::add_bias_residual_layernorm(
          dev, ln1_out.data(), attn_out.data(), input, w.b_proj.data(),
          w.ln1_gamma.data(), w.ln1_beta.data(), rows, h);
    } else {
      kernels::add_bias_residual(dev, attn_out.data(), input,
                                 w.b_proj.data(), rows, h);
      kernels::layernorm(dev, ln1_out.data(), attn_out.data(),
                         w.ln1_gamma.data(), w.ln1_beta.data(), rows, h);
    }
  }

  // GEMM #2: FFN expansion, optionally with bias+GELU fused in the epilogue.
  {
    StageScope scope(times, "gemm2");
    if (flags.fuse_bias_gelu) {
      const gemm::BiasGeluEpilogue<fp16_t> ep{w.b_ffn1.data()};
      weight_gemm(dev, prepacked, rows, inner, h, ln1_out.data(),
                  w.packed.ffn1, w.w_ffn1, ffn_mid.data(), ep);
    } else {
      weight_gemm(dev, prepacked, rows, inner, h, ln1_out.data(),
                  w.packed.ffn1, w.w_ffn1, ffn_mid.data());
    }
  }
  if (!flags.fuse_bias_gelu) {
    StageScope scope(times, "add_bias_gelu");
    kernels::add_bias_gelu(dev, ffn_mid.data(), w.b_ffn1.data(), rows, inner);
  }

  // GEMM #3: FFN contraction.
  {
    StageScope scope(times, "gemm3");
    weight_gemm(dev, prepacked, rows, h, inner, ffn_mid.data(), w.packed.ffn2,
                w.w_ffn2, ffn_out.data());
  }

  // Add-bias + residual + layernorm #1.
  {
    StageScope scope(times, "layernorm1");
    if (flags.fuse_layernorm) {
      kernels::add_bias_residual_layernorm(
          dev, output, ffn_out.data(), ln1_out.data(), w.b_ffn2.data(),
          w.ln2_gamma.data(), w.ln2_beta.data(), rows, h);
    } else {
      kernels::add_bias_residual(dev, ffn_out.data(), ln1_out.data(),
                                 w.b_ffn2.data(), rows, h);
      kernels::layernorm(dev, output, ffn_out.data(), w.ln2_gamma.data(),
                         w.ln2_beta.data(), rows, h);
    }
  }
}

namespace {

// The fused-MHA kind switch, called once per regime run of a packed pass.
void fused_attention(par::Device& dev, const BertConfig& cfg,
                     const LayerWeights& w, const OptFlags& flags,
                     const fp16_t* qkv, fp16_t* ctx_rows,
                     const SeqOffsets& off, std::span<const int> q_start,
                     Workspace& ws) {
  attn::PackedMhaArgs args;
  args.qkv = qkv;
  args.qkv_bias = w.b_qkv.data();
  args.ctx = ctx_rows;
  args.offsets = &off;
  args.heads = cfg.heads;
  args.head_size = cfg.head_size;
  args.causal = flags.causal;
  args.q_start = q_start;
  switch (flags.fused_kind) {
    case FusedMhaKind::kDispatch:
      attn::mha_fused(dev, args, ws);
      break;
    case FusedMhaKind::kShort:
      attn::mha_fused_short(dev, args, ws);
      break;
    case FusedMhaKind::kLong:
      attn::mha_fused_long(dev, args, ws);
      break;
    case FusedMhaKind::kFlashLike:
      attn::mha_flash_like(dev, args, ws);
      break;
  }
}

}  // namespace

void encoder_layer_forward(par::Device& dev, const BertConfig& cfg,
                           const LayerWeights& w, const OptFlags& flags,
                           const fp16_t* input, fp16_t* output,
                           const SeqOffsets& off, Workspace& ws,
                           StageTimes* times) {
  if (flags.zero_padding) {
    const std::vector<int> no_prefix(static_cast<std::size_t>(off.batch), 0);
    encoder_layer_packed(
        dev, cfg, w, flags,
        make_packed_layout(dev, cfg.head_size, no_prefix, off.seq_lens),
        /*prefix_qkv=*/{}, input, output, /*qkv_out=*/nullptr, ws, times);
    return;
  }
  assert(!flags.fused_mha && !flags.causal &&
         "fused and causal attention require the packed pipeline");
  const std::int64_t h = cfg.hidden();
  const std::int64_t rows = static_cast<std::int64_t>(off.batch) * off.max_seq;
  auto qkv = ws.get<fp16_t>("layer.qkv", rows * 3 * h);
  auto ctx_rows = ws.get<fp16_t>("layer.ctx_rows", rows * h);
  const bool prepacked = flags.prepacked_weights && w.packed.ready;

  // GEMM #0: packed (Q,K,V) positioning encoding in one GEMM. Weight GEMMs
  // are served from the persistent pre-packed panels when available —
  // bitwise identical to packing on the fly, minus the packing.
  {
    StageScope scope(times, "gemm0");
    weight_gemm(dev, prepacked, rows, 3 * h, h, input, w.packed.qkv, w.w_qkv,
                qkv.data());
  }
  // Multi-head attention (incl. bias-add and layout transforms).
  {
    StageScope scope(times, "attention");
    padded_attention_block(dev, cfg, w, flags, qkv.data(), ctx_rows.data(),
                           off, ws);
  }
  encoder_layer_tail(dev, cfg, w, flags, ctx_rows.data(), input, output, rows,
                     ws, times);
}

PackedLayout make_packed_layout(par::Device& dev, int head_size,
                                std::span<const int> prefix_rows,
                                std::span<const int> total_rows) {
  assert(prefix_rows.size() == total_rows.size() && !total_rows.empty());
  const int k = static_cast<int>(total_rows.size());
  PackedLayout layout;
  layout.prefix_rows.assign(prefix_rows.begin(), prefix_rows.end());
  layout.full_offset.assign(static_cast<std::size_t>(k) + 1, 0);
  layout.row_offset.assign(static_cast<std::size_t>(k) + 1, 0);
  for (std::size_t b = 0; b < static_cast<std::size_t>(k); ++b) {
    assert(prefix_rows[b] >= 0 && prefix_rows[b] < total_rows[b]);
    layout.has_prefix |= prefix_rows[b] > 0;
    layout.full_offset[b + 1] = layout.full_offset[b] + total_rows[b];
    layout.row_offset[b + 1] =
        layout.row_offset[b] + (total_rows[b] - prefix_rows[b]);
  }
  const auto max_len = [](std::span<const int> lens) {
    return *std::max_element(lens.begin(), lens.end());
  };
  layout.off = build_seq_offsets(dev, total_rows, max_len(total_rows));
  for (int first = 0; first < k;) {
    const auto short_regime = [&](int b) {
      return attn::fused_short_regime(
          dev, total_rows[static_cast<std::size_t>(b)], head_size);
    };
    int end = first + 1;
    while (end < k && short_regime(end) == short_regime(first)) ++end;
    const std::span<const int> lens =
        total_rows.subspan(static_cast<std::size_t>(first),
                           static_cast<std::size_t>(end - first));
    layout.runs.push_back(PackedLayout::Run{
        first, end - first == k ? layout.off
                                : build_seq_offsets(dev, lens, max_len(lens))});
    first = end;
  }
  return layout;
}

void encoder_layer_packed(par::Device& dev, const BertConfig& cfg,
                          const LayerWeights& w, const OptFlags& flags,
                          const PackedLayout& layout,
                          std::span<const fp16_t* const> prefix_qkv,
                          const fp16_t* input, fp16_t* output,
                          fp16_t* qkv_out, Workspace& ws, StageTimes* times) {
  assert(flags.zero_padding);
  assert(!layout.has_prefix || (flags.causal && flags.fused_mha &&
                                prefix_qkv.size() == layout.prefix_rows.size()));
  const std::int64_t h = cfg.hidden();
  const std::int64_t rows = layout.rows();

  fp16_t* qkv = qkv_out != nullptr
                    ? qkv_out
                    : ws.get<fp16_t>("layer.qkv", rows * 3 * h).data();
  auto ctx_rows = ws.get<fp16_t>("layer.ctx_rows", rows * h);
  const bool prepacked = flags.prepacked_weights && w.packed.ready;

  // GEMM #0 once over the whole block. Each output row depends only on its
  // own input row (fixed k-accumulation order), so every row is bitwise
  // identical to the same row of its sequence's full forward.
  {
    StageScope scope(times, "gemm0");
    weight_gemm(dev, prepacked, rows, 3 * h, h, input, w.packed.qkv, w.w_qkv,
                qkv);
  }
  // With cached rows in the pass, place each sequence at its full-length
  // offset: cached prefix rows, then its fresh rows. Without them the two
  // layouts coincide and attention reads gemm0's output in place.
  const fp16_t* attn_qkv = qkv;
  if (layout.has_prefix) {
    auto full = ws.get<fp16_t>("layer.qkv_full", layout.full_offset.back() * 3 * h);
    for (std::size_t b = 0; b < prefix_qkv.size(); ++b) {
      const std::int64_t prefix = layout.prefix_rows[b];
      const std::int64_t fresh = layout.row_offset[b + 1] - layout.row_offset[b];
      fp16_t* dst = full.data() + layout.full_offset[b] * 3 * h;
      if (prefix > 0) {
        std::memcpy(dst, prefix_qkv[b],
                    static_cast<std::size_t>(prefix * 3 * h) * sizeof(fp16_t));
      }
      std::memcpy(dst + prefix * 3 * h, qkv + layout.row_offset[b] * 3 * h,
                  static_cast<std::size_t>(fresh * 3 * h) * sizeof(fp16_t));
    }
    attn_qkv = full.data();
  }

  // Attention computes only fresh query rows, each written straight to its
  // fresh-block row.
  {
    StageScope scope(times, "attention");
    if (flags.fused_mha) {
      for (const PackedLayout::Run& run : layout.runs) {
        const auto first = static_cast<std::size_t>(run.first);
        const std::span<const int> q_start =
            layout.has_prefix
                ? std::span<const int>(layout.prefix_rows)
                      .subspan(first, static_cast<std::size_t>(run.off.batch))
                : std::span<const int>();
        fused_attention(dev, cfg, w, flags,
                        attn_qkv + layout.full_offset[first] * 3 * h,
                        ctx_rows.data() + layout.row_offset[first] * h, run.off,
                        q_start, ws);
      }
    } else {
      assert(!flags.causal && "causal requires the fused packed kernels");
      padded_attention_block(dev, cfg, w, flags, qkv, ctx_rows.data(),
                             layout.off, ws);
    }
  }

  encoder_layer_tail(dev, cfg, w, flags, ctx_rows.data(), input, output, rows,
                     ws, times);
}

}  // namespace bt::core
