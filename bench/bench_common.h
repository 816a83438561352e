// Shared benchmark scaffolding.
//
// CPU-scale configurations: the paper benches hidden 768 (12 heads x 64),
// batch 16, seq up to 1024, 12 layers on an A100. On the 2-core CPU
// substrate we shrink heads/layers/batch but keep head_size = 64 and the
// average-to-maximum ratio alpha = 0.6 — the two constants every crossover
// in the paper depends on. EXPERIMENTS.md records the mapping per figure.
#pragma once

#include <benchmark/benchmark.h>

#include <cstring>
#include <string>
#include <vector>

#include "attention/attention.h"
#include "common/rng.h"
#include "common/stats.h"
#include "core/config.h"
#include "core/model.h"
#include "core/padding.h"
#include "core/workspace.h"
#include "gemm/kernels/kernel.h"
#include "parallel/device.h"
#include "serving/engine.h"
#include "serving/request_gen.h"
#include "tensor/tensor.h"

namespace bt::bench {

// ---- JSON reporter plumbing -------------------------------------------------
// bench/run_perf.sh drives the binaries with --benchmark_format=json once per
// BT_GEMM_KERNEL variant and merges the outputs into BENCH_gemm.json /
// BENCH_fig15.json. These helpers attach the fields the merge step reads:
// a `gflops` / `tokens_s` rate counter and the active GEMM kernel as the
// benchmark label, so every JSON record is self-describing.

inline void set_gflops(benchmark::State& state, double flops_per_iteration) {
  state.counters["gflops"] = benchmark::Counter(
      flops_per_iteration * 1e-9, benchmark::Counter::kIsIterationInvariantRate);
}

inline void set_tokens_rate(benchmark::State& state,
                            double tokens_per_iteration) {
  state.counters["tokens_s"] = benchmark::Counter(
      tokens_per_iteration, benchmark::Counter::kIsIterationInvariantRate);
}

// Label = the kernel actually dispatched (BT_GEMM_KERNEL requests that are
// unsupported fall back, so the label is ground truth, not the request).
inline void set_kernel_label(benchmark::State& state) {
  state.SetLabel(gemm::kernels::name(gemm::kernels::active()));
}

inline par::Device& dev() {
  static par::Device d;  // all hardware threads
  return d;
}

inline constexpr double kAlpha = 0.6;  // paper default avg/max ratio
inline constexpr std::uint64_t kSeed = 20230515;

// Deterministic variable-length batch: lengths at the paper's alpha plus a
// zero-padded input tensor.
struct VarLenBatch {
  core::SeqOffsets off;
  Tensor<fp16_t> padded;  // [batch*max_seq, hidden] with zeroed pad rows

  static VarLenBatch make(int batch, int max_seq, int hidden,
                          double alpha = kAlpha, std::uint64_t seed = kSeed) {
    Rng rng(seed);
    auto lens = serving::gen_lengths(batch, max_seq, alpha, rng);
    VarLenBatch b;
    b.off = core::build_seq_offsets(dev(), lens, max_seq);
    b.padded = Tensor<fp16_t>::zeros(
        {static_cast<std::int64_t>(batch) * max_seq, hidden});
    for (std::int64_t v = 0; v < b.off.valid_count; ++v) {
      const std::int64_t r = b.off.packed_to_padded[static_cast<std::size_t>(v)];
      for (int j = 0; j < hidden; ++j) {
        b.padded(r, j) = fp16_t(rng.normal(0.0f, 1.0f));
      }
    }
    return b;
  }
};

// The framework strategy proxies of Fig. 15/16 (see DESIGN.md section 3).
enum class Framework {
  kPyTorchJit,
  kTensorFlowXla,
  kDeepSpeed,
  kFasterTransformer,
  kTurboTransformer,
  kByteTransformer,
};

inline const char* framework_name(Framework f) {
  switch (f) {
    case Framework::kPyTorchJit: return "PyTorchJIT";
    case Framework::kTensorFlowXla: return "TensorFlowXLA";
    case Framework::kDeepSpeed: return "DeepSpeed";
    case Framework::kFasterTransformer: return "FasterTransformer";
    case Framework::kTurboTransformer: return "TurboTransformer";
    case Framework::kByteTransformer: return "ByteTransformer";
  }
  return "?";
}

// Maps each framework to the optimization strategy the paper attributes to
// it (Table I). TurboTransformer additionally re-groups batches — handled by
// run_turbo_like below, not by flags.
inline core::OptFlags framework_flags(Framework f, int max_seq) {
  using core::FusedMhaKind;
  using core::OptFlags;
  using core::PaddedMhaKind;
  OptFlags flags;
  switch (f) {
    case Framework::kPyTorchJit:
      // Padded, unfused elementwise, batched-GEMM MHA.
      flags = OptFlags::baseline();
      flags.padded_mha = PaddedMhaKind::kBatched;
      break;
    case Framework::kTensorFlowXla:
      // Padded, unfused, copy-heavy framework MHA.
      flags = OptFlags::baseline();
      flags.padded_mha = PaddedMhaKind::kPyTorchLike;
      break;
    case Framework::kDeepSpeed:
      // Padded but with fused elementwise kernels.
      flags = OptFlags::bias_gelu_fused();
      flags.padded_mha = PaddedMhaKind::kBatched;
      break;
    case Framework::kFasterTransformer:
      // Variable-length support + fused kernels; TensorRT-style fused MHA
      // only while it fits on-chip, batched fallback beyond.
      flags = OptFlags::byte_transformer();
      if (max_seq <= attn::kShortSeqCutoff) {
        flags.fused_kind = FusedMhaKind::kShort;
      } else {
        flags.fused_mha = false;
        flags.padded_mha = PaddedMhaKind::kBatchedZeroPad;
      }
      break;
    case Framework::kTurboTransformer:
      // SmartBatch re-grouping + partial fusion (LN/activation fused as
      // standalone kernels, no GEMM-epilogue fusion, no fused MHA).
      flags = OptFlags::layernorm_fused();
      flags.padded_mha = PaddedMhaKind::kBatched;
      break;
    case Framework::kByteTransformer:
      flags = OptFlags::byte_transformer();
      break;
  }
  return flags;
}

// Maps a framework proxy to its serving-layer configuration: the Engine
// batching policy riding on top of framework_flags. TurboTransformer
// re-groups batches (SmartBatch); everything else either packs (when its
// pipeline is padding-free) or pads to the batch max.
inline serving::EngineOptions framework_engine_options(Framework f,
                                                       int max_seq,
                                                       int max_batch_requests,
                                                       int group_size = 4) {
  serving::EngineOptions opts;
  opts.flags = framework_flags(f, max_seq);
  opts.max_batch_requests = max_batch_requests;
  if (f == Framework::kTurboTransformer) {
    opts.policy = serving::BatchPolicy::kSortGroup;
    opts.group_size = group_size;
  } else {
    opts.policy = opts.flags.zero_padding ? serving::BatchPolicy::kPacked
                                          : serving::BatchPolicy::kPadToMax;
  }
  return opts;
}

// Slices a VarLenBatch into the per-request [len, hidden] tensors the Engine
// consumes (clone per submission — the engine takes ownership).
inline std::vector<Tensor<fp16_t>> to_requests(const VarLenBatch& batch,
                                               std::int64_t hidden) {
  std::vector<Tensor<fp16_t>> requests;
  for (std::size_t b = 0; b < batch.off.seq_lens.size(); ++b) {
    const int len = batch.off.seq_lens[b];
    Tensor<fp16_t> r({len, hidden});
    std::memcpy(r.data(),
                batch.padded.data() +
                    static_cast<std::int64_t>(b) * batch.off.max_seq * hidden,
                static_cast<std::size_t>(r.size()) * sizeof(fp16_t));
    requests.push_back(std::move(r));
  }
  return requests;
}

}  // namespace bt::bench
