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
  if (capture != nullptr &&
      (cfg.kind == ModelKind::kDeberta || !flags.zero_padding)) {
    throw std::invalid_argument(
        "BertModel::forward: QKV capture requires zero_padding and a "
        "non-DeBERTa model");
  }

  if (flags.zero_padding) {
    const std::int64_t rows = off.valid_count;
    auto packed_in = ws.get<fp16_t>("model.packed_in", rows * h);
    auto packed_out = ws.get<fp16_t>("model.packed_out", rows * h);
    fp16_t* stream = nullptr;
    if (capture != nullptr) {
      stream = ws.get<fp16_t>("model.qkv_stream", cfg.layers * rows * 3 * h).data();
    }
    std::vector<PackedSeq> seqs(static_cast<std::size_t>(off.batch));
    for (std::size_t b = 0; b < seqs.size(); ++b) {
      seqs[b].total_rows = off.seq_lens[b];
    }
    {
      StageScope scope(times, Stage::kPadding);
      pack_rows(dev, input, packed_in.data(), off, h);
    }
    forward_packed(dev, seqs, packed_in.data(), packed_out.data(), stream,
                   flags, ws, times);
    {
      StageScope scope(times, Stage::kPadding);
      unpack_rows(dev, packed_out.data(), output, off, h);
    }
    if (capture != nullptr) {
      for (int layer = 0; layer < cfg.layers; ++layer) {
        capture->on_layer_qkv(layer, stream + layer * rows * 3 * h);
      }
    }
    return;
  }

  // Padded baseline: every layer on the [batch * max_seq] grid; the last
  // layer writes the caller's output directly.
  const std::int64_t rows = static_cast<std::int64_t>(off.batch) * off.max_seq;
  auto buf_a = ws.get<fp16_t>("model.buf_a", rows * h);
  auto buf_b = ws.get<fp16_t>("model.buf_b", rows * h);
  const fp16_t* cur = input;
  for (int layer = 0; layer < cfg.layers; ++layer) {
    fp16_t* dst = layer == cfg.layers - 1 ? output
                  : cur == buf_a.data()   ? buf_b.data()
                                          : buf_a.data();
    const LayerWeights& w = weights.layer(layer);
    if (cfg.kind == ModelKind::kDeberta) {
      models::deberta_layer_forward(dev, cfg, weights, w, flags, cur, dst,
                                    off, ws, times);
    } else {
      encoder_layer_forward(dev, cfg, w, flags, cur, dst, off, ws, times);
    }
    cur = dst;
  }
}

void BertModel::forward_packed(par::Device& dev,
                               std::span<const PackedSeq> seqs,
                               const fp16_t* input, fp16_t* output,
                               fp16_t* qkv_stream, const OptFlags& flags,
                               Workspace& ws, StageTimes* times) const {
  const ModelWeights& weights = *weights_;
  const BertConfig& cfg = weights.config;
  const bool deberta = cfg.kind == ModelKind::kDeberta;
  if (!flags.zero_padding) {
    throw std::invalid_argument(
        "BertModel::forward_packed: requires zero_padding (packed rows)");
  }
  if (seqs.empty()) {
    throw std::invalid_argument(
        "BertModel::forward_packed: needs at least one sequence");
  }
  if (deberta && qkv_stream != nullptr) {
    throw std::invalid_argument(
        "BertModel::forward_packed: DeBERTa has no reusable QKV state");
  }
  std::vector<int> prefix_rows;
  std::vector<int> total_rows;
  for (const PackedSeq& s : seqs) {
    if (s.prefix_rows < 0 || s.prefix_rows >= s.total_rows) {
      throw std::invalid_argument(
          "BertModel::forward_packed: prefix_rows must be in [0, total_rows)");
    }
    prefix_rows.push_back(s.prefix_rows);
    total_rows.push_back(s.total_rows);
  }
  const PackedLayout layout =
      make_packed_layout(dev, cfg.head_size, prefix_rows, total_rows);
  if (layout.has_prefix && (deberta || !flags.causal || !flags.fused_mha)) {
    throw std::invalid_argument(
        "BertModel::forward_packed: a cached prefix requires causal + "
        "fused_mha and a non-DeBERTa model (prefix reuse is only exact under "
        "causal attention)");
  }
  const std::int64_t h = cfg.hidden();
  const std::int64_t rows = layout.rows();

  auto buf_a = ws.get<fp16_t>("model.buf_a", rows * h);
  auto buf_b = ws.get<fp16_t>("model.buf_b", rows * h);

  std::vector<const fp16_t*> layer_qkv(layout.has_prefix ? seqs.size() : 0);
  const fp16_t* cur = input;
  for (int layer = 0; layer < cfg.layers; ++layer) {
    for (std::size_t b = 0; b < layer_qkv.size(); ++b) {
      layer_qkv[b] = seqs[b].prefix_qkv +
                     static_cast<std::int64_t>(layer) * seqs[b].prefix_rows * 3 * h;
    }
    fp16_t* dst = layer == cfg.layers - 1 ? output
                  : cur == buf_a.data()   ? buf_b.data()
                                          : buf_a.data();
    const LayerWeights& w = weights.layer(layer);
    if (deberta) {
      models::deberta_layer_forward(dev, cfg, weights, w, flags, cur, dst,
                                    layout.off, ws, times);
    } else {
      encoder_layer_packed(
          dev, cfg, w, flags, layout, layer_qkv, cur, dst,
          qkv_stream != nullptr ? qkv_stream + layer * rows * 3 * h : nullptr,
          ws, times);
    }
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
  const PackedSeq seq{prefix_qkv, static_cast<int>(prefix_rows),
                      static_cast<int>(off.valid_count)};
  forward_packed(dev, std::span<const PackedSeq>(&seq, 1), suffix_input,
                 suffix_output, suffix_qkv, flags, ws, times);
}

}  // namespace bt::core
