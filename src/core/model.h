// Stacked encoder model (BERT / ALBERT / DistilBERT / DeBERTa).
//
// The model holds its weights through `std::shared_ptr<const ModelWeights>`
// and runs `config.layers` encoder iterations, dispatching to the DeBERTa
// disentangled-attention layer when configured. Shared ownership is what
// lets a serving::EnginePool run N replica engines against one physical
// copy of the weights *and* the persistent pre-packed GEMM panels: every
// replica's BertModel aliases the same storage, and pack_panels() runs
// exactly once (it is idempotent), never per-replica. The contract is
// per-model, not global: a serving::ModelRegistry holding several distinct
// BertModels packs each model's weights once, and registering one model
// under several names shares a single packed copy across all of them.
//
// With flags.zero_padding the input is packed once on entry, every layer
// runs on packed rows, and the final hidden states are rebuilt to the padded
// layout on exit (paper Fig. 2c), so callers always see padded tensors.
#pragma once

#include <memory>
#include <span>
#include <stdexcept>

#include "common/half.h"
#include "common/timer.h"
#include "core/config.h"
#include "core/encoder_layer.h"
#include "core/padding.h"
#include "core/weights.h"
#include "core/workspace.h"
#include "parallel/device.h"

namespace bt::core {

// Observer for the per-layer raw QKV projections (the gemm0 output, bias
// unapplied — exactly the rows the fused attention kernels consume and the
// prefix cache stores, see cache/prefix_cache.h). Called once per encoder
// layer after that layer completes; `qkv` points into a workspace buffer
// that the NEXT layer overwrites, so implementations must copy what they
// need before returning. The row count matches the forward pass's row
// layout (packed rows under zero_padding). Never invoked for DeBERTa
// models (their disentangled attention has no reusable prefix state).
class QkvCaptureSink {
 public:
  virtual ~QkvCaptureSink() = default;
  virtual void on_layer_qkv(int layer, const fp16_t* qkv) = 0;
};

class BertModel {
 public:
  // Sole-ownership convenience: wraps the weights into shared storage.
  explicit BertModel(ModelWeights weights)
      : BertModel(std::make_shared<ModelWeights>(std::move(weights))) {}

  // Shared-ownership constructor: models built from the same shared_ptr
  // alias one weight + PackedPanels storage. Panels are built here (before
  // the storage goes const); pack_panels() is idempotent, so only the first
  // model over a given ModelWeights pays the packing cost. Not thread-safe
  // against concurrent construction over the same un-packed weights —
  // construct the first model (or call pack_panels()) before fanning out.
  explicit BertModel(std::shared_ptr<ModelWeights> weights) {
    if (weights == nullptr) {
      throw std::invalid_argument("BertModel: weights must not be null");
    }
    weights->pack_panels();
    weights_ = std::move(weights);
  }

  const BertConfig& config() const noexcept { return weights_->config; }
  const ModelWeights& weights() const noexcept { return *weights_; }

  // Identity of the shared storage — replicas of a pool compare equal here
  // (tests assert one physical weight copy across the fleet).
  const std::shared_ptr<const ModelWeights>& weights_ptr() const noexcept {
    return weights_;
  }

  // input/output: padded token rows [batch * max_seq, hidden]; padding rows
  // of `input` must be zero-filled. `off` describes the valid tokens.
  // Pack/unpack time is attributed to the "padding" stage of `times`.
  // `capture`, if given, observes each layer's raw QKV rows (packed layout;
  // requires flags.zero_padding and a non-DeBERTa model).
  void forward(par::Device& dev, const fp16_t* input, fp16_t* output,
               const SeqOffsets& off, const OptFlags& flags, Workspace& ws,
               StageTimes* times = nullptr,
               QkvCaptureSink* capture = nullptr) const;

  // Packed prefix-resume forward (cache/prefix_cache.h): k sequences, each
  // with its own cached prefix, run as ONE model pass — every weight GEMM
  // and layernorm runs once over the sum of the suffix rows. `seqs[b]`
  // gives sequence b's cached per-layer raw QKV rows (`prefix_qkv`,
  // [layers, prefix_rows, 3*hidden] contiguous) and its full length;
  // `suffix_input` holds the embedding rows of every suffix packed in
  // sequence order ([suffix_rows, hidden], suffix_rows = sum of
  // total_rows - prefix_rows). Computes the final hidden states of the
  // suffix rows only (`suffix_output`, same layout) and streams each
  // layer's suffix QKV rows to `suffix_qkv` ([layers, suffix_rows,
  // 3*hidden]) so the caller can extend each cache entry from its slice.
  // Ordering the sequences by length keeps attention at two launches per
  // layer at most (encoder_layer.h ResumeLayout).
  //
  // Exactness contract: every suffix output row is bitwise identical to the
  // same row of forward() over that sequence alone with the same flags.
  // Requires flags.causal + fused_mha + zero_padding, a non-DeBERTa model
  // and 0 < prefix_rows < total_rows for every sequence; throws
  // std::invalid_argument otherwise.
  struct ResumeSeq {
    const fp16_t* prefix_qkv = nullptr;
    int prefix_rows = 0;
    int total_rows = 0;
  };
  void forward_resume(par::Device& dev, std::span<const ResumeSeq> seqs,
                      const fp16_t* suffix_input, fp16_t* suffix_output,
                      fp16_t* suffix_qkv, const OptFlags& flags, Workspace& ws,
                      StageTimes* times = nullptr) const;

  // One-sequence form of the above: `off` describes exactly that sequence.
  void forward_resume(par::Device& dev, const fp16_t* prefix_qkv,
                      std::int64_t prefix_rows, const fp16_t* suffix_input,
                      fp16_t* suffix_output, fp16_t* suffix_qkv,
                      const SeqOffsets& off, const OptFlags& flags,
                      Workspace& ws, StageTimes* times = nullptr) const;

  static BertModel random(const BertConfig& cfg, Rng& rng) {
    return BertModel(ModelWeights::random(cfg, rng));
  }

 private:
  std::shared_ptr<const ModelWeights> weights_;
};

}  // namespace bt::core
