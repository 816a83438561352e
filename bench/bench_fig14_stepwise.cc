// Fig. 14 — single-layer BERT with step-wise optimizations.
//
// Each variant includes all previous optimizations (paper: +3.2% layernorm
// fusion, +3.8% bias+GELU fusion, +24% zero padding, +20% fused MHA; 60%
// total over the padded baseline at avg = 0.6*max).
// Scaled: batch 4, 4 heads x 64, one layer.
#include <benchmark/benchmark.h>

#include "bench_common.h"
#include "core/encoder_layer.h"

namespace bt::bench {
namespace {

constexpr int kBatch = 4;

struct StepwiseBench {
  core::BertConfig cfg;
  core::LayerWeights w;
  VarLenBatch batch;
  Tensor<fp16_t> packed_in, out_padded, out_packed;
  core::Workspace ws;

  explicit StepwiseBench(int max_seq)
      : cfg(), w(), batch() {
    cfg.heads = 4;
    cfg.head_size = 64;
    cfg.layers = 1;
    Rng rng(kSeed);
    w = core::LayerWeights::random(cfg, rng);
    batch = VarLenBatch::make(kBatch, max_seq, cfg.hidden());
    packed_in = Tensor<fp16_t>::zeros({batch.off.valid_count, cfg.hidden()});
    core::pack_rows(dev(), batch.padded.data(), packed_in.data(), batch.off,
                    cfg.hidden());
    out_padded = Tensor<fp16_t>::zeros({batch.padded.dim(0), cfg.hidden()});
    out_packed = Tensor<fp16_t>::zeros({batch.off.valid_count, cfg.hidden()});
  }

  void run(benchmark::State& state, const core::OptFlags& flags) {
    const fp16_t* in =
        flags.zero_padding ? packed_in.data() : batch.padded.data();
    fp16_t* out =
        flags.zero_padding ? out_packed.data() : out_padded.data();
    for (auto _ : state) {
      core::encoder_layer_forward(dev(), cfg, w, flags, in, out, batch.off,
                                  ws);
      benchmark::DoNotOptimize(out);
    }
  }
};

void BM_Fig14_Baseline(benchmark::State& state) {
  StepwiseBench b(static_cast<int>(state.range(0)));
  b.run(state, core::OptFlags::baseline());
}
void BM_Fig14_LayernormFusion(benchmark::State& state) {
  StepwiseBench b(static_cast<int>(state.range(0)));
  b.run(state, core::OptFlags::layernorm_fused());
}
void BM_Fig14_BiasGeluFusion(benchmark::State& state) {
  StepwiseBench b(static_cast<int>(state.range(0)));
  b.run(state, core::OptFlags::bias_gelu_fused());
}
void BM_Fig14_ZeroPadding(benchmark::State& state) {
  StepwiseBench b(static_cast<int>(state.range(0)));
  b.run(state, core::OptFlags::zero_padding_enabled());
}
void BM_Fig14_FusedMHA(benchmark::State& state) {
  StepwiseBench b(static_cast<int>(state.range(0)));
  b.run(state, core::OptFlags::byte_transformer());
}

#define FIG14_ARGS ->Arg(128)->Arg(256)->Arg(384)->Arg(512) \
    ->Unit(benchmark::kMillisecond)

BENCHMARK(BM_Fig14_Baseline) FIG14_ARGS;
BENCHMARK(BM_Fig14_LayernormFusion) FIG14_ARGS;
BENCHMARK(BM_Fig14_BiasGeluFusion) FIG14_ARGS;
BENCHMARK(BM_Fig14_ZeroPadding) FIG14_ARGS;
BENCHMARK(BM_Fig14_FusedMHA) FIG14_ARGS;

}  // namespace
}  // namespace bt::bench
