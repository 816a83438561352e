// Regime dispatcher: the short kernel keeps the whole attention unit in CTA
// scratch and wins while it fits; past the 384-token capacity boundary the
// grouped-GEMM kernel takes over (paper Sec. III-E: "we set 384 to be the
// cut-off sequence length").
#include "attention/attention.h"

namespace bt::attn {

std::vector<std::int64_t> ctx_row_base(const PackedMhaArgs& args) {
  const core::SeqOffsets& off = *args.offsets;
  std::vector<std::int64_t> base(static_cast<std::size_t>(off.batch));
  std::int64_t skipped = 0;
  for (int b = 0; b < off.batch; ++b) {
    skipped += first_query_row(args, b);
    base[static_cast<std::size_t>(b)] =
        off.batch_offset[static_cast<std::size_t>(b)] - skipped;
  }
  return base;
}

bool fused_short_regime(const par::Device& dev, int max_seq, int head_size) {
  return max_seq <= kShortSeqCutoff &&
         fused_short_scratch_bytes(max_seq, head_size) <= dev.scratch_bytes();
}

void mha_fused(par::Device& dev, const PackedMhaArgs& args,
               core::Workspace& ws) {
  if (fused_short_regime(dev, args.offsets->max_seq, args.head_size)) {
    mha_fused_short(dev, args, ws);
  } else if (args.causal) {
    // The grouped-GEMM kernel's two-pass softmax has no per-tile causal
    // masking yet (decoder support is the paper's future work); the flash
    // kernel handles any length with causal masking.
    mha_flash_like(dev, args, ws);
  } else {
    mha_fused_long(dev, args, ws);
  }
}

}  // namespace bt::attn
