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
// With flags.zero_padding every pass is one forward_packed() over packed
// rows (paper Fig. 2c); forward() packs a padded input once on entry and
// rebuilds the padded layout on exit, so its callers see padded tensors.
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
// prefix cache stores, see cache/prefix_cache.h) of a forward() pass,
// replayed from the pass's QKV stream once per encoder layer after the pass
// completes; `qkv` is that layer's [valid_count, 3*hidden] packed rows and
// is only valid during the call. It exists only for bench/e2e's layer sweep;
// the serving engine reads forward_packed()'s stream directly. forward()
// throws for DeBERTa models or without flags.zero_padding when one is given.
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
  // of `input` must be zero-filled. `off` describes the valid tokens. With
  // flags.zero_padding this is pack -> forward_packed (no cached prefix) ->
  // unpack, the pack/unpack time attributed to the "padding" stage of
  // `times`; otherwise every layer runs on the padded rows. `capture`, if
  // given, observes each layer's raw QKV rows (packed layout; requires
  // flags.zero_padding and a non-DeBERTa model).
  void forward(par::Device& dev, const fp16_t* input, fp16_t* output,
               const SeqOffsets& off, const OptFlags& flags, Workspace& ws,
               StageTimes* times = nullptr,
               QkvCaptureSink* capture = nullptr) const;

  // The packed forward (paper Fig. 2c): k sequences run as ONE model pass —
  // every weight GEMM and layernorm runs once over the sum of their fresh
  // rows. Sequence b's first `prefix_rows` rows may come from the prefix
  // cache (cache/prefix_cache.h): `prefix_qkv` then holds its cached
  // per-layer raw QKV rows ([layers, prefix_rows, 3*hidden] contiguous) and
  // only its remaining total_rows - prefix_rows rows are computed; a cache
  // miss, or any uncached sequence, has prefix_rows = 0. `input` holds the
  // fresh rows of every sequence packed in sequence order ([rows, hidden],
  // rows = sum of total_rows - prefix_rows); `output` receives their final
  // hidden states in the same layout. If `qkv_stream` is non-null, each
  // layer's fresh QKV rows are streamed to it ([layers, rows, 3*hidden]) so
  // the caller can fill or extend each cache entry from its slice. Ordering
  // the sequences by length keeps attention at two launches per layer at
  // most (encoder_layer.h PackedLayout).
  //
  // Exactness contract: every output row is bitwise identical to the same
  // row of forward() over that sequence alone with the same flags, whatever
  // the pass's other sequences. Requires flags.zero_padding, 0 <= prefix_rows
  // < total_rows for every sequence, and, when some prefix_rows > 0,
  // flags.causal + fused_mha and a non-DeBERTa model; a DeBERTa model runs
  // its own layer and streams no QKV. Throws std::invalid_argument
  // otherwise.
  struct PackedSeq {
    const fp16_t* prefix_qkv = nullptr;
    int prefix_rows = 0;
    int total_rows = 0;
  };
  void forward_packed(par::Device& dev, std::span<const PackedSeq> seqs,
                      const fp16_t* input, fp16_t* output, fp16_t* qkv_stream,
                      const OptFlags& flags, Workspace& ws,
                      StageTimes* times = nullptr) const;

  // One-sequence resume: `off` describes exactly that sequence, of which the
  // first prefix_rows rows are cached; computes its remaining rows.
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
