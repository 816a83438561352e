// One BERT encoder layer, parameterized by the step-wise optimization flags
// of Fig. 14. The same function implements every rung of the ladder — from
// the Fig. 2(a) padded baseline to the fully fused, padding-free Fig. 2(c)
// pipeline — so benchmark deltas isolate exactly one optimization at a time.
//
// Tensor convention:
//   * flags.zero_padding == false: input/output are padded token rows
//     [batch * max_seq, hidden], padding rows zero-filled on entry.
//   * flags.zero_padding == true:  input/output are packed token rows
//     [valid_count, hidden] indexed through SeqOffsets.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/half.h"
#include "common/timer.h"
#include "core/config.h"
#include "core/padding.h"
#include "core/weights.h"
#include "core/workspace.h"
#include "parallel/device.h"

namespace bt::core {

// `times` receives the Fig. 3 breakdown: every bt::Stage but kPadding
// (kAddBiasGelu only when bias+GELU is unfused).
// Under flags.zero_padding this is encoder_layer_packed over `off` with no
// cached prefix; otherwise it runs the padded baseline.
void encoder_layer_forward(par::Device& dev, const BertConfig& cfg,
                           const LayerWeights& w, const OptFlags& flags,
                           const fp16_t* input, fp16_t* output,
                           const SeqOffsets& off, Workspace& ws,
                           StageTimes* times = nullptr);

// Everything after attention — projection GEMM, layernorm #0, FFN, layernorm
// #1 — over `rows` token rows. All of these operate row-independently, which
// is why a packed pass can run them over just the rows it computes and still
// be bitwise identical to a full single-sequence run. `ctx_rows` is the
// attention output, `input` the layer input (residual source).
void encoder_layer_tail(par::Device& dev, const BertConfig& cfg,
                        const LayerWeights& w, const OptFlags& flags,
                        const fp16_t* ctx_rows, const fp16_t* input,
                        fp16_t* output, std::int64_t rows, Workspace& ws,
                        StageTimes* times = nullptr);

// Row layout of one packed pass over k sequences, built once per pass and
// shared by every layer. Sequence b has prefix_rows[b] >= 0 cached rows
// (cache/prefix_cache.h) followed by its fresh rows; a cache miss is a
// sequence with no prefix. The fresh rows of all k sequences form one
// contiguous block of rows() rows, in sequence order, which is the layout of
// the pass's input, output and QKV stream. When some sequence has cached
// rows, the layer places every sequence at its full-length offset
// (full_offset: cached prefix rows, then fresh rows) so attention reads each
// sequence's K/V exactly as in a full forward; otherwise attention reads the
// gemm0 output in place.
struct PackedLayout {
  std::vector<int> prefix_rows;           // [k], attention's q_start
  std::vector<std::int64_t> full_offset;  // [k + 1] full-QKV row of b
  std::vector<std::int64_t> row_offset;   // [k + 1] fresh-block row of b
  bool has_prefix = false;                // some prefix_rows[b] > 0
  SeqOffsets off;  // full lengths; the non-fused attention path and DeBERTa
  // Maximal runs of consecutive sequences whose OWN full length selects the
  // same attention regime (attn::fused_short_regime). Each run is one
  // attention launch over zero-based offsets of its members, so every
  // sequence runs the kernel its single-sequence forward would run, whatever
  // it is batched with.
  struct Run {
    int first = 0;
    SeqOffsets off;
  };
  std::vector<Run> runs;

  std::int64_t rows() const { return row_offset.back(); }
};

// Builds the layout for sequences of full lengths total_rows[b] whose first
// prefix_rows[b] rows are cached (0 <= prefix_rows[b] < total_rows[b]).
// Sequences ordered by length give at most two runs.
PackedLayout make_packed_layout(par::Device& dev, int head_size,
                                std::span<const int> prefix_rows,
                                std::span<const int> total_rows);

// One layer of a packed pass. Given the layer's input for the fresh-row
// block (`input`, [rows, hidden]) and, per sequence with a prefix, the
// layer's cached raw QKV rows (`prefix_qkv[b]`, [prefix_rows[b], 3*hidden],
// bias unapplied — exactly the raw gemm0 output the fused kernels consume;
// may be empty when the layout has no prefix), computes the layer's output
// for the fresh rows only:
//
//   1. gemm0 once over the block -> `qkv_out` ([rows, 3*hidden], what the
//      caller fills or extends cache entries from; a workspace buffer when
//      null); only when some sequence has cached rows are cached + fresh
//      rows placed at full-length offsets,
//   2. attention: with fused_mha, one launch per regime run, q_start =
//      prefix_rows, each computed row landing at its fresh-block row;
//      without it, the padded attention block over the whole pass,
//   3. the shared tail once over the block.
//
// A prefix requires flags.causal + fused_mha (validated by the caller):
// under bidirectional attention the fresh rows' context would not match a
// full re-encode. Every output row is bitwise identical to the same row of
// the pass over that sequence alone.
void encoder_layer_packed(par::Device& dev, const BertConfig& cfg,
                          const LayerWeights& w, const OptFlags& flags,
                          const PackedLayout& layout,
                          std::span<const fp16_t* const> prefix_qkv,
                          const fp16_t* input, fp16_t* output,
                          fp16_t* qkv_out, Workspace& ws,
                          StageTimes* times = nullptr);

}  // namespace bt::core
