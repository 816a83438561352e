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

// Stage keys used for the Fig. 3 breakdown: "gemm0", "attention", "gemm1",
// "layernorm0", "gemm2", "add_bias_gelu" (unfused only), "gemm3",
// "layernorm1". Split/merge transposes are attributed to "attention".
void encoder_layer_forward(par::Device& dev, const BertConfig& cfg,
                           const LayerWeights& w, const OptFlags& flags,
                           const fp16_t* input, fp16_t* output,
                           const SeqOffsets& off, Workspace& ws,
                           StageTimes* times = nullptr);

// Everything after attention — projection GEMM, layernorm #0, FFN, layernorm
// #1 — over `rows` token rows. All of these operate row-independently, which
// is why the prefix-resume path below can run them over just the suffix rows
// and still be bitwise identical to the full-layer run; sharing the
// implementation here is what keeps the two paths from drifting. `ctx_rows`
// is the attention output, `input` the layer input (residual source).
void encoder_layer_tail(par::Device& dev, const BertConfig& cfg,
                        const LayerWeights& w, const OptFlags& flags,
                        const fp16_t* ctx_rows, const fp16_t* input,
                        fp16_t* output, std::int64_t rows, Workspace& ws,
                        StageTimes* times = nullptr);

// Row layout of a packed prefix-resume pass (cache/prefix_cache.h) over k
// sequences, built once per pass and shared by every layer. Sequence b has
// prefix_rows[b] cached rows followed by suffix fresh rows; the fresh rows
// of all k sequences form one contiguous block of suffix_rows() rows, in
// sequence order, which is the layout of the pass's input, output and
// suffix QKV. The layer's full QKV buffer holds every sequence at its
// full-length offset (cached prefix rows, then fresh suffix rows), so
// attention reads each sequence's K/V exactly as in a full forward.
struct ResumeLayout {
  std::vector<int> prefix_rows;             // [k], attention's q_start
  std::vector<std::int64_t> full_offset;    // [k + 1] full-QKV row of b
  std::vector<std::int64_t> suffix_offset;  // [k + 1] suffix-block row of b
  // Maximal runs of consecutive sequences whose OWN full length selects the
  // same attention regime (attn::fused_short_regime). Each run is one
  // attention launch over zero-based offsets of its members, so every
  // sequence runs the kernel its single-sequence forward would run.
  struct Run {
    int first = 0;
    SeqOffsets off;
  };
  std::vector<Run> runs;

  std::int64_t suffix_rows() const { return suffix_offset.back(); }
};

// Builds the layout for sequences of full lengths total_rows[b] whose first
// prefix_rows[b] rows are cached (0 < prefix_rows[b] < total_rows[b]).
// Sequences ordered by length give at most two runs.
ResumeLayout make_resume_layout(par::Device& dev, int head_size,
                                std::span<const int> prefix_rows,
                                std::span<const int> total_rows);

// Prefix-resume layer step for a packed batch of sequences. Given, per
// sequence, the layer's cached raw QKV rows for its prefix (`prefix_qkv[b]`,
// [prefix_rows[b], 3*hidden], bias unapplied — exactly the raw gemm0 output
// the fused kernels consume) and the layer's input for the suffix block
// (`suffix_input`, [suffix_rows, hidden]), computes the layer's output for
// the suffix block only:
//
//   1. gemm0 once over the suffix block -> `suffix_qkv` ([suffix_rows,
//      3*hidden], what the caller extends the cache entries from), then
//      cached prefix + fresh suffix rows are placed at full-length offsets,
//   2. attention with causal masking and q_start = prefix_rows, one launch
//      per regime run; each computed row lands at its suffix-block row,
//   3. the shared tail once over the suffix block.
//
// Requires flags.causal (validated by the caller): under bidirectional
// attention the suffix context would not match a full re-encode. Every
// suffix output row is bitwise identical to the same row of
// encoder_layer_forward over that sequence alone.
void encoder_layer_resume(par::Device& dev, const BertConfig& cfg,
                          const LayerWeights& w, const OptFlags& flags,
                          const ResumeLayout& layout,
                          std::span<const fp16_t* const> prefix_qkv,
                          const fp16_t* suffix_input, fp16_t* suffix_output,
                          fp16_t* suffix_qkv, Workspace& ws,
                          StageTimes* times = nullptr);

}  // namespace bt::core
