// Table II — computation counts for variable-length inputs, analytic vs
// measured.
//
// Counters report the analytic FLOPs (Table II formulas) for each padding
// mode; the benchmark itself measures the corresponding pipeline so the
// measured-time ratios can be compared against the FLOP ratios
// (paper: zero padding alone -> +24.7% at alpha = 0.6).
#include <benchmark/benchmark.h>

#include "bench_common.h"
#include "core/encoder_layer.h"
#include "costmodel/flops.h"

namespace bt::bench {
namespace {

constexpr int kBatch = 4;

core::OptFlags mode_flags(costmodel::PaddingMode mode) {
  switch (mode) {
    case costmodel::PaddingMode::kBaseline:
      return core::OptFlags::bias_gelu_fused();  // fully fused, padded
    case costmodel::PaddingMode::kZeroPadding:
      return core::OptFlags::zero_padding_enabled();
    case costmodel::PaddingMode::kZeroPaddingFusedMha:
      return core::OptFlags::byte_transformer();
  }
  return {};
}

void run_mode(benchmark::State& state, costmodel::PaddingMode mode) {
  const int max_seq = static_cast<int>(state.range(0));
  core::BertConfig cfg;
  cfg.heads = 4;
  cfg.head_size = 64;
  cfg.layers = 1;
  Rng rng(kSeed);
  const auto w = core::LayerWeights::random(cfg, rng);
  auto batch = VarLenBatch::make(kBatch, max_seq, cfg.hidden());
  const auto flags = mode_flags(mode);

  Tensor<fp16_t> packed_in({batch.off.valid_count, cfg.hidden()});
  core::pack_rows(dev(), batch.padded.data(), packed_in.data(), batch.off,
                  cfg.hidden());
  const fp16_t* in =
      flags.zero_padding ? packed_in.data() : batch.padded.data();
  const std::int64_t out_rows =
      flags.zero_padding ? batch.off.valid_count : batch.padded.dim(0);
  Tensor<fp16_t> out({out_rows, cfg.hidden()});
  core::Workspace ws;
  for (auto _ : state) {
    core::encoder_layer_forward(dev(), cfg, w, flags, in, out.data(),
                                batch.off, ws);
    benchmark::DoNotOptimize(out.data());
  }

  const auto flops = costmodel::layer_flops_exact(cfg, batch.off.seq_lens,
                                                  max_seq, mode);
  state.counters["gflops_analytic"] = flops.total() / 1e9;
  state.counters["mha_gflops"] = flops.mha / 1e9;
  state.counters["alpha"] = batch.off.fill_ratio();
}

void BM_Tab02_Baseline(benchmark::State& state) {
  run_mode(state, costmodel::PaddingMode::kBaseline);
}
void BM_Tab02_ZeroPadding(benchmark::State& state) {
  run_mode(state, costmodel::PaddingMode::kZeroPadding);
}
void BM_Tab02_ZeroPaddingFusedMha(benchmark::State& state) {
  run_mode(state, costmodel::PaddingMode::kZeroPaddingFusedMha);
}

#define TAB02_ARGS ->Arg(256)->Arg(512)->Unit(benchmark::kMillisecond)
BENCHMARK(BM_Tab02_Baseline) TAB02_ARGS;
BENCHMARK(BM_Tab02_ZeroPadding) TAB02_ARGS;
BENCHMARK(BM_Tab02_ZeroPaddingFusedMha) TAB02_ARGS;

}  // namespace
}  // namespace bt::bench
