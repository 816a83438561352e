#include "models/deberta.h"

#include <cassert>
#include <cmath>

#include "core/weight_gemm.h"
#include "gemm/batched.h"
#include "gemm/epilogues.h"
#include "gemm/gemm.h"
#include "kernels/activation.h"
#include "kernels/layernorm.h"
#include "kernels/softmax.h"
#include "kernels/transpose.h"

namespace bt::models {

namespace {

using core::OptFlags;
using core::PaddedMhaKind;
using core::SeqOffsets;

// Disentangled attention over padded per-head tensors. Scores accumulate the
// three terms in FP16 storage with FP32 GEMM accumulation; the 1/sqrt(3d)
// scale is applied per-term through each GEMM's alpha (the sum is linear).
void disentangled_attention(par::Device& dev, const core::BertConfig& cfg,
                            const core::ModelWeights& model,
                            const core::LayerWeights& w, const OptFlags& flags,
                            const fp16_t* q, const fp16_t* k, const fp16_t* v,
                            fp16_t* ctx_heads, const SeqOffsets& off,
                            core::Workspace& ws) {
  const int heads = cfg.heads;
  const int hd = cfg.head_size;
  const int batch = off.batch;
  const int s = off.max_seq;
  const int span = cfg.relative_span;
  const int buckets = 2 * span;
  const std::int64_t h = cfg.hidden();
  const std::int64_t unit = static_cast<std::int64_t>(s) * hd;
  const float scale = 1.0f / std::sqrt(3.0f * static_cast<float>(hd));

  // Kr / Qr: project the shared relative-embedding table once per layer.
  auto kr = ws.get<fp16_t>("deberta.kr", static_cast<std::int64_t>(buckets) * h);
  auto qr = ws.get<fp16_t>("deberta.qr", static_cast<std::int64_t>(buckets) * h);
  const bool prepacked = flags.prepacked_weights && w.packed.ready;
  core::weight_gemm(dev, prepacked, buckets, h, h, model.rel_embed.data(),
                    w.packed.pos_key, w.w_pos_key, kr.data());
  core::weight_gemm(dev, prepacked, buckets, h, h, model.rel_embed.data(),
                    w.packed.pos_query, w.w_pos_query, qr.data());

  const std::int64_t score_sz =
      static_cast<std::int64_t>(batch) * heads * s * s;
  auto scores = ws.get<fp16_t>("deberta.scores", score_sz);
  auto c2p = ws.get<fp16_t>("deberta.c2p",
                            static_cast<std::int64_t>(batch) * heads * s * buckets);
  auto p2c = ws.get<fp16_t>("deberta.p2c",
                            static_cast<std::int64_t>(batch) * heads * s * buckets);

  // Content-to-content term: one batched GEMM over all (b, h) units.
  gemm::batched_gemm<fp16_t, fp16_t, fp16_t>(
      dev, gemm::Trans::N, gemm::Trans::T, batch * heads, s, s, hd, scale, q,
      hd, unit, k, hd, unit, 0.0f, scores.data(), s,
      static_cast<std::int64_t>(s) * s);

  // Position terms, batched over heads per batch entry: the per-head slices
  // of Kr/Qr are column views (ld = hidden, batch stride = head_size).
  for (int b = 0; b < batch; ++b) {
    const std::int64_t q_base = static_cast<std::int64_t>(b) * heads * unit;
    const std::int64_t out_base =
        static_cast<std::int64_t>(b) * heads * s * buckets;
    gemm::batched_gemm<fp16_t, fp16_t, fp16_t>(
        dev, gemm::Trans::N, gemm::Trans::T, heads, s, buckets, hd, scale,
        q + q_base, hd, unit, kr.data(), h, hd, 0.0f, c2p.data() + out_base,
        buckets, static_cast<std::int64_t>(s) * buckets);
    gemm::batched_gemm<fp16_t, fp16_t, fp16_t>(
        dev, gemm::Trans::N, gemm::Trans::T, heads, s, buckets, hd, scale,
        k + q_base, hd, unit, qr.data(), h, hd, 0.0f, p2c.data() + out_base,
        buckets, static_cast<std::int64_t>(s) * buckets);
  }

  // Gather-add the position terms into the score matrix:
  //   A[i][j] += c2p[i][d(i,j)] + p2c[j][d(j,i)].
  const std::int64_t score_rows =
      static_cast<std::int64_t>(batch) * heads * s;
  dev.parallel_for(0, score_rows, 4, [&](std::int64_t r) {
    const std::int64_t bh = r / s;
    const int i = static_cast<int>(r % s);
    fp16_t* row = scores.data() + r * s;
    const fp16_t* c2p_row =
        c2p.data() + (bh * s + i) * buckets;
    const fp16_t* p2c_unit = p2c.data() + bh * s * buckets;
    for (int j = 0; j < s; ++j) {
      const float add =
          load_f32(c2p_row[relative_bucket(i, j, span)]) +
          load_f32(p2c_unit[static_cast<std::int64_t>(j) * buckets +
                            relative_bucket(j, i, span)]);
      store_f32(row[j], load_f32(row[j]) + add);
    }
  });

  // Softmax: padding-free variant when the zero-padding algorithm is on.
  if (flags.zero_padding ||
      flags.padded_mha == PaddedMhaKind::kBatchedZeroPad) {
    kernels::softmax_zeropad(dev, scores.data(), batch, heads, s,
                             off.seq_lens);
  } else {
    kernels::softmax_full(dev, scores.data(), batch, heads, s, off.seq_lens);
  }

  // Context: P V.
  gemm::batched_gemm<fp16_t, fp16_t, fp16_t>(
      dev, gemm::Trans::N, gemm::Trans::N, batch * heads, s, hd, s, 1.0f,
      scores.data(), s, static_cast<std::int64_t>(s) * s, v, hd, unit, 0.0f,
      ctx_heads, hd, unit);
}

}  // namespace

void deberta_layer_forward(par::Device& dev, const core::BertConfig& cfg,
                           const core::ModelWeights& model,
                           const core::LayerWeights& w, const OptFlags& flags,
                           const fp16_t* input, fp16_t* output,
                           const SeqOffsets& off, core::Workspace& ws,
                           StageTimes* times) {
  assert(cfg.kind == core::ModelKind::kDeberta && cfg.relative_span > 0);
  const std::int64_t h = cfg.hidden();
  const std::int64_t inner = cfg.ffn_inner();
  const std::int64_t rows =
      flags.zero_padding ? off.valid_count
                         : static_cast<std::int64_t>(off.batch) * off.max_seq;
  const std::int64_t per_head_elems =
      static_cast<std::int64_t>(off.batch) * cfg.heads * off.max_seq *
      cfg.head_size;

  auto qkv = ws.get<fp16_t>("layer.qkv", rows * 3 * h);
  auto ctx_rows = ws.get<fp16_t>("layer.ctx_rows", rows * h);
  auto attn_out = ws.get<fp16_t>("layer.attn_out", rows * h);
  auto ln1_out = ws.get<fp16_t>("layer.ln1_out", rows * h);
  auto ffn_mid = ws.get<fp16_t>("layer.ffn_mid", rows * inner);
  auto ffn_out = ws.get<fp16_t>("layer.ffn_out", rows * h);

  const bool prepacked = flags.prepacked_weights && w.packed.ready;

  {
    StageScope scope(times, Stage::kGemm0);
    core::weight_gemm(dev, prepacked, rows, 3 * h, h, input, w.packed.qkv,
                      w.w_qkv, qkv.data());
  }

  {
    StageScope scope(times, Stage::kAttention);
    auto q = ws.get<fp16_t>("layer.q", per_head_elems);
    auto k = ws.get<fp16_t>("layer.k", per_head_elems);
    auto v = ws.get<fp16_t>("layer.v", per_head_elems);
    auto ctx_heads = ws.get<fp16_t>("layer.ctx_heads", per_head_elems);
    if (flags.zero_padding) {
      kernels::split_qkv_add_bias_rebuild_padding(dev, qkv.data(),
                                                  w.b_qkv.data(), q.data(),
                                                  k.data(), v.data(), off,
                                                  cfg.heads, cfg.head_size);
    } else {
      kernels::split_qkv_add_bias_padded(dev, qkv.data(), w.b_qkv.data(),
                                         q.data(), k.data(), v.data(),
                                         off.batch, off.max_seq, cfg.heads,
                                         cfg.head_size);
    }
    disentangled_attention(dev, cfg, model, w, flags, q.data(), k.data(),
                           v.data(), ctx_heads.data(), off, ws);
    if (flags.zero_padding) {
      kernels::merge_heads_remove_padding(dev, ctx_heads.data(),
                                          ctx_rows.data(), off, cfg.heads,
                                          cfg.head_size);
    } else {
      kernels::merge_heads_padded(dev, ctx_heads.data(), ctx_rows.data(),
                                  off.batch, off.max_seq, cfg.heads,
                                  cfg.head_size);
    }
  }

  {
    StageScope scope(times, Stage::kGemm1);
    core::weight_gemm(dev, prepacked, rows, h, h, ctx_rows.data(),
                      w.packed.proj, w.w_proj, attn_out.data());
  }
  {
    StageScope scope(times, Stage::kLayernorm0);
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
  {
    StageScope scope(times, Stage::kGemm2);
    if (flags.fuse_bias_gelu) {
      const gemm::BiasGeluEpilogue<fp16_t> ep{w.b_ffn1.data()};
      core::weight_gemm(dev, prepacked, rows, inner, h, ln1_out.data(),
                        w.packed.ffn1, w.w_ffn1, ffn_mid.data(), ep);
    } else {
      core::weight_gemm(dev, prepacked, rows, inner, h, ln1_out.data(),
                        w.packed.ffn1, w.w_ffn1, ffn_mid.data());
    }
  }
  if (!flags.fuse_bias_gelu) {
    StageScope scope(times, Stage::kAddBiasGelu);
    kernels::add_bias_gelu(dev, ffn_mid.data(), w.b_ffn1.data(), rows, inner);
  }
  {
    StageScope scope(times, Stage::kGemm3);
    core::weight_gemm(dev, prepacked, rows, h, inner, ffn_mid.data(),
                      w.packed.ffn2, w.w_ffn2, ffn_out.data());
  }
  {
    StageScope scope(times, Stage::kLayernorm1);
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

}  // namespace bt::models
