// The attention zoo.
//
// Every variant computes, per batch b and head h, over the *valid* length
// len_b of each sequence:
//     ctx = softmax(Q K^T / sqrt(head_size)) V
// They differ exactly along the two axes the paper evaluates (Figs. 11-13):
// how padding is handled, and how much of the chain is fused.
//
//   variant               input layout      padding work      fusion
//   -------------------------------------------------------------------------
//   mha_pytorch_like      padded per-head   full S^2          none (separate
//                                                             kernels + copies)
//   mha_batched           padded per-head   full S^2          batched GEMMs
//                                                             (cuBLAS-like)
//   mha_batched_zeropad   padded per-head   GEMMs full S^2,   batched GEMMs +
//                                           softmax valid-only zero-pad softmax
//   mha_fused_short       packed QKV        none              single kernel,
//                                                             logits in scratch
//   mha_fused_long        packed QKV        none              grouped GEMM +
//                                                             softmax epilogue/
//                                                             mainloop fusion
//   mha_flash_like        packed QKV        none              one CTA per
//                                                             attention unit,
//                                                             online softmax
//   mha_et_like           padded per-head   full S^2, FP32    none
//   mha_fused             packed QKV        none              dispatches short/
//                                                             long at 384
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/half.h"
#include "core/padding.h"
#include "core/workspace.h"
#include "parallel/device.h"

namespace bt::attn {

// Sequence-length regime switch for mha_fused: at 384 the short kernel's
// scratch demand (fp16 K/V panel + fp32 logits tile) crosses the 164 KiB
// CTA arena, mirroring the shared-memory limit that forces the same cutoff
// on the A100 (paper Sec. III-E2).
inline constexpr int kShortSeqCutoff = 384;

// Query-tile rows per CTA in the short-sequence fused kernel (paper's
// split_seq_len, "typically 32 or 48").
inline constexpr int kSplitSeqLen = 48;

// Padded per-head operands: [batch, heads, max_seq, head_size] each, biases
// already applied by the split/transpose kernel.
struct PaddedMhaArgs {
  const fp16_t* q = nullptr;
  const fp16_t* k = nullptr;
  const fp16_t* v = nullptr;
  fp16_t* ctx = nullptr;  // [batch, heads, max_seq, head_size]
  int batch = 0;
  int heads = 0;
  int max_seq = 0;
  int head_size = 0;
  std::span<const int> seq_lens;
};

// Packed operands: the fused QKV projection output [valid, 3*hidden] with
// its bias unapplied — bias addition is fused into the kernels' loads, as in
// Algorithm III.1. Output is packed token rows [valid, hidden].
struct PackedMhaArgs {
  const fp16_t* qkv = nullptr;       // [valid, 3*hidden]
  const fp16_t* qkv_bias = nullptr;  // [3*hidden]
  fp16_t* ctx = nullptr;             // [valid, hidden]
  const core::SeqOffsets* offsets = nullptr;
  int heads = 0;
  int head_size = 0;
  // Causal (decoder-style) masking: token i attends to keys j <= i only.
  // Supported by the short and flash kernels; the dispatcher routes causal
  // long sequences to the flash kernel (the grouped-GEMM two-pass softmax
  // would need per-tile masking — the decoder extension the paper lists as
  // future work).
  bool causal = false;
  // Suffix-only computation for a packed prefix resume
  // (cache/prefix_cache.h). q_start[b] is the first query row computed for
  // sequence b; rows below it already have cached context and are neither
  // computed nor stored. Empty means 0 for every sequence. `ctx` holds only
  // the computed rows, packed in sequence order: row t >= q_start[b] of
  // sequence b lands at ctx row
  //     batch_offset[b] - (q_start[0] + ... + q_start[b]) + t
  // (ctx_row_base below), so with no q_start the layout is the usual one.
  // Query tiles/blocks are anchored at q_start[b], not at row 0, so no
  // cached row is recomputed. Exactness rests on row independence: every
  // computed value of a query row is a fixed-order chain over that row's
  // own keys, whichever tile the row falls in, so each computed row is
  // bitwise identical to the same row of a q_start = 0 run. Keys are NOT
  // restricted: rows >= q_start still attend over the full (causally
  // masked) key range, reading prefix K/V from the qkv buffer. Only
  // meaningful with causal masking — a bidirectional row's context could
  // never be skipped consistently.
  std::span<const int> q_start = {};
};

// First query row computed for sequence b (0 without q_start).
inline int first_query_row(const PackedMhaArgs& args, int b) {
  return args.q_start.empty() ? 0
                              : args.q_start[static_cast<std::size_t>(b)];
}

// Per sequence, the ctx row that query row 0 would occupy under the packing
// rule above; row t of sequence b is stored at ctx + (base[b] + t) * hidden.
std::vector<std::int64_t> ctx_row_base(const PackedMhaArgs& args);

// --- padded-variant baselines -------------------------------------------
void mha_pytorch_like(par::Device& dev, const PaddedMhaArgs& args,
                      core::Workspace& ws);
void mha_batched(par::Device& dev, const PaddedMhaArgs& args,
                 core::Workspace& ws);
void mha_batched_zeropad(par::Device& dev, const PaddedMhaArgs& args,
                         core::Workspace& ws);

// E.T.-style comparator: FP32 unfused per-head pipeline (Volta-era, no
// tensor cores); used by the Table III bench.
struct PaddedMhaArgsF32 {
  const float* q = nullptr;
  const float* k = nullptr;
  const float* v = nullptr;
  float* ctx = nullptr;
  int batch = 0;
  int heads = 0;
  int max_seq = 0;
  int head_size = 0;
  std::span<const int> seq_lens;
};
void mha_et_like(par::Device& dev, const PaddedMhaArgsF32& args,
                 core::Workspace& ws);

// --- ByteTransformer fused MHA + FlashAttention baseline -----------------
void mha_fused_short(par::Device& dev, const PackedMhaArgs& args,
                     core::Workspace& ws);
void mha_fused_long(par::Device& dev, const PackedMhaArgs& args,
                    core::Workspace& ws,
                    std::int64_t scheduler_prefetch = 32);
void mha_flash_like(par::Device& dev, const PackedMhaArgs& args,
                    core::Workspace& ws);

// Scratch demand of the short kernel at a given shape; the short path is
// only viable when this fits the device's CTA arena (the same shared-memory
// capacity argument that fixes the paper's 384 cutoff on the A100).
std::size_t fused_short_scratch_bytes(int max_seq, int head_size);

// Whether mha_fused runs a batch whose longest sequence has `max_seq`
// tokens on the short kernel: max_seq <= kShortSeqCutoff and the kernel's
// scratch demand fits the device arena.
bool fused_short_regime(const par::Device& dev, int max_seq, int head_size);

// Dispatcher: short kernel in the fused_short_regime, grouped-GEMM kernel
// beyond (flash kernel when causal).
void mha_fused(par::Device& dev, const PackedMhaArgs& args,
               core::Workspace& ws);

// --- reference ------------------------------------------------------------
// FP64 O(S^2) reference over padded per-head tensors; context rows of
// padding tokens are zeroed. Single-threaded; tests only.
void mha_reference(const double* q, const double* k, const double* v,
                   double* ctx, int batch, int heads, int max_seq,
                   int head_size, std::span<const int> seq_lens,
                   bool causal = false);

}  // namespace bt::attn
