// Fig. 3 — single-layer BERT time breakdown by module.
//
// Paper (batch 16, hidden 768): GEMM-like modules take ~61% of layer time
// at seq 256 and ~40% at 1024, with attention growing from 22% to 49%.
// Counters report each module's share of the layer (percent). Scaled:
// batch 4, hidden 256 (4 heads x 64); padded baseline pipeline as in the
// paper's cuBLAS profile.
#include <benchmark/benchmark.h>

#include <string>

#include "bench_common.h"
#include "core/encoder_layer.h"

namespace bt::bench {
namespace {

constexpr int kBatch = 4;
constexpr int kHeads = 4;
constexpr int kHd = 64;

void BM_Fig03_Breakdown(benchmark::State& state) {
  const int max_seq = static_cast<int>(state.range(0));
  core::BertConfig cfg;
  cfg.heads = kHeads;
  cfg.head_size = kHd;
  cfg.layers = 1;
  Rng rng(kSeed);
  const auto w = core::LayerWeights::random(cfg, rng);
  auto batch = VarLenBatch::make(kBatch, max_seq, cfg.hidden(), /*alpha=*/1.0);
  auto out = Tensor<fp16_t>::zeros({batch.padded.dim(0), cfg.hidden()});
  core::Workspace ws;
  StageTimes times;

  for (auto _ : state) {
    core::encoder_layer_forward(dev(), cfg, w, core::OptFlags::baseline(),
                                batch.padded.data(), out.data(), batch.off,
                                ws, &times);
    benchmark::DoNotOptimize(out.data());
  }

  const double total = times.total_seconds();
  for (Stage stage : kStages) {
    if (times[stage] == 0) continue;  // a stage this pipeline never runs
    state.counters[std::string(stage_name(stage)) + "_pct"] =
        100.0 * times[stage] / total;
  }
}

BENCHMARK(BM_Fig03_Breakdown)
    ->Arg(256)
    ->Arg(512)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace bt::bench
