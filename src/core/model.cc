#include "core/model.h"

#include <vector>

#include "models/deberta.h"

namespace bt::core {

void BertModel::forward(par::Device& dev, const fp16_t* input, fp16_t* output,
                        const SeqOffsets& off, const OptFlags& flags,
                        Workspace& ws, StageTimes* times,
                        QkvCaptureSink* capture) const {
  const ModelWeights& weights = *weights_;
  const BertConfig& cfg = weights.config;
  const std::int64_t h = cfg.hidden();
  const std::int64_t padded_rows =
      static_cast<std::int64_t>(off.batch) * off.max_seq;
  const std::int64_t rows = flags.zero_padding ? off.valid_count : padded_rows;
  if (capture != nullptr &&
      (cfg.kind == ModelKind::kDeberta || !flags.zero_padding)) {
    throw std::invalid_argument(
        "BertModel::forward: QKV capture requires zero_padding and a "
        "non-DeBERTa model");
  }

  auto buf_a = ws.get<fp16_t>("model.buf_a", rows * h);
  auto buf_b = ws.get<fp16_t>("model.buf_b", rows * h);

  const fp16_t* cur = input;
  if (flags.zero_padding) {
    StageScope scope(times, "padding");
    pack_rows(dev, input, buf_a.data(), off, h);
    cur = buf_a.data();
  }

  // Where layer i writes: alternate buffers; the last layer writes the
  // caller's output directly (padded mode) or the final packed buffer.
  fp16_t* packed_final = nullptr;
  for (int layer = 0; layer < cfg.layers; ++layer) {
    fp16_t* dst;
    const bool last = layer == cfg.layers - 1;
    if (last && !flags.zero_padding) {
      dst = output;
    } else {
      dst = (cur == buf_a.data()) ? buf_b.data() : buf_a.data();
    }
    const LayerWeights& w = weights.layer(layer);
    if (cfg.kind == ModelKind::kDeberta) {
      models::deberta_layer_forward(dev, cfg, weights, w, flags, cur, dst,
                                    off, ws, times);
    } else {
      encoder_layer_forward(dev, cfg, w, flags, cur, dst, off, ws, times);
      if (capture != nullptr) {
        // Same key + size as the layer just used -> same grow-only buffer,
        // still holding this layer's gemm0 output (the next layer is what
        // overwrites it).
        capture->on_layer_qkv(
            layer, ws.get<fp16_t>("layer.qkv", rows * 3 * h).data());
      }
    }
    cur = dst;
    if (last) packed_final = dst;
  }

  if (flags.zero_padding) {
    StageScope scope(times, "padding");
    unpack_rows(dev, packed_final, output, off, h);
  }
}

void BertModel::forward_resume(par::Device& dev,
                               std::span<const ResumeSeq> seqs,
                               const fp16_t* suffix_input,
                               fp16_t* suffix_output, fp16_t* suffix_qkv,
                               const OptFlags& flags, Workspace& ws,
                               StageTimes* times) const {
  const ModelWeights& weights = *weights_;
  const BertConfig& cfg = weights.config;
  if (cfg.kind == ModelKind::kDeberta) {
    throw std::invalid_argument(
        "BertModel::forward_resume: DeBERTa has no reusable prefix state");
  }
  if (!flags.causal || !flags.fused_mha || !flags.zero_padding) {
    throw std::invalid_argument(
        "BertModel::forward_resume: requires causal + fused_mha + "
        "zero_padding (prefix reuse is only exact under causal attention)");
  }
  if (seqs.empty()) {
    throw std::invalid_argument(
        "BertModel::forward_resume: needs at least one sequence");
  }
  std::vector<int> prefix_rows;
  std::vector<int> total_rows;
  for (const ResumeSeq& s : seqs) {
    if (s.prefix_rows <= 0 || s.prefix_rows >= s.total_rows) {
      throw std::invalid_argument(
          "BertModel::forward_resume: prefix_rows must be in (0, total_rows)");
    }
    prefix_rows.push_back(s.prefix_rows);
    total_rows.push_back(s.total_rows);
  }
  const ResumeLayout layout =
      make_resume_layout(dev, cfg.head_size, prefix_rows, total_rows);
  const std::int64_t h = cfg.hidden();
  const std::int64_t suffix = layout.suffix_rows();

  auto buf_a = ws.get<fp16_t>("model.buf_a", suffix * h);
  auto buf_b = ws.get<fp16_t>("model.buf_b", suffix * h);

  // Suffix rows arrive packed, so there is no pack/unpack step.
  std::vector<const fp16_t*> layer_qkv(seqs.size());
  const fp16_t* cur = suffix_input;
  for (int layer = 0; layer < cfg.layers; ++layer) {
    for (std::size_t b = 0; b < seqs.size(); ++b) {
      layer_qkv[b] = seqs[b].prefix_qkv +
                     static_cast<std::int64_t>(layer) * seqs[b].prefix_rows * 3 * h;
    }
    const bool last = layer == cfg.layers - 1;
    fp16_t* dst = last             ? suffix_output
                  : (cur == buf_a.data()) ? buf_b.data()
                                          : buf_a.data();
    encoder_layer_resume(dev, cfg, weights.layer(layer), flags, layout,
                         layer_qkv, cur, dst,
                         suffix_qkv + layer * suffix * 3 * h, ws, times);
    cur = dst;
  }
}

void BertModel::forward_resume(par::Device& dev, const fp16_t* prefix_qkv,
                               std::int64_t prefix_rows,
                               const fp16_t* suffix_input,
                               fp16_t* suffix_output, fp16_t* suffix_qkv,
                               const SeqOffsets& off, const OptFlags& flags,
                               Workspace& ws, StageTimes* times) const {
  if (off.batch != 1) {
    throw std::invalid_argument(
        "BertModel::forward_resume: off must describe exactly one sequence");
  }
  const ResumeSeq seq{prefix_qkv, static_cast<int>(prefix_rows),
                      static_cast<int>(off.valid_count)};
  forward_resume(dev, std::span<const ResumeSeq>(&seq, 1), suffix_input,
                 suffix_output, suffix_qkv, flags, ws, times);
}

}  // namespace bt::core
