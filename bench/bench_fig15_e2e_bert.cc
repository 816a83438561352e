// Fig. 15 — end-to-end BERT vs framework strategy proxies, plus the
// average-to-maximum ratio sweep of Fig. 15(c).
//
// Paper (12 layers, 12 heads x 64, batch 1/8/16, seq 64..1024, alpha 0.6):
// ByteTransformer beats PyTorch-JIT / TF-XLA / DeepSpeed / TurboTransformer
// / FasterTransformer by 87% / 131% / 74% / 138% / 55% on average, and the
// padding-free pipeline saves up to 66% runtime at alpha 0.1 vs 1.0.
// Scaled: 2 layers, 2 heads x 64 (hidden 128), batch 1 and 8, seq 64..512.
#include <benchmark/benchmark.h>

#include "bench_common.h"

namespace bt::bench {
namespace {

core::BertConfig e2e_config() {
  core::BertConfig cfg = core::BertConfig::bert_base().scaled(/*heads=*/2,
                                                              /*layers=*/2);
  return cfg;
}

std::shared_ptr<const core::BertModel> shared_model() {
  static std::shared_ptr<const core::BertModel> model = [] {
    Rng rng(kSeed);
    return std::make_shared<const core::BertModel>(
        core::BertModel::random(e2e_config(), rng));
  }();
  return model;
}

// Serves the batch through an Engine configured for the framework proxy —
// each iteration measures the full request-level path (submit, batch
// formation under the framework's policy, forward, per-request scatter).
void run_framework(benchmark::State& state, Framework fw) {
  const int batch_size = static_cast<int>(state.range(0));
  const int max_seq = static_cast<int>(state.range(1));
  // TurboTransformer supports seq <= 512 only (as in the paper's plots).
  if (fw == Framework::kTurboTransformer && max_seq > 512) {
    state.SkipWithError("TurboTransformer proxy supports seq <= 512");
    return;
  }
  auto model = shared_model();
  const std::int64_t hidden = model->config().hidden();
  auto batch = VarLenBatch::make(batch_size, max_seq, hidden);
  const auto requests = to_requests(batch, hidden);
  serving::Engine engine(
      model, framework_engine_options(fw, max_seq, batch_size));
  for (auto _ : state) {
    for (const auto& r : requests) engine.submit(r.clone());
    auto responses = engine.drain();
    benchmark::DoNotOptimize(responses.data());
  }
  state.counters["alpha"] = batch.off.fill_ratio();
  state.counters["pad_waste"] =
      engine.stats().processed_tokens > 0
          ? static_cast<double>(engine.stats().padding_tokens()) /
                static_cast<double>(engine.stats().processed_tokens)
          : 0.0;
  set_tokens_rate(state, static_cast<double>(batch.off.valid_count));
  set_kernel_label(state);
}

void BM_Fig15_PyTorchJIT(benchmark::State& state) {
  run_framework(state, Framework::kPyTorchJit);
}
void BM_Fig15_TensorFlowXLA(benchmark::State& state) {
  run_framework(state, Framework::kTensorFlowXla);
}
void BM_Fig15_DeepSpeed(benchmark::State& state) {
  run_framework(state, Framework::kDeepSpeed);
}
void BM_Fig15_FasterTransformer(benchmark::State& state) {
  run_framework(state, Framework::kFasterTransformer);
}
void BM_Fig15_TurboTransformer(benchmark::State& state) {
  run_framework(state, Framework::kTurboTransformer);
}
void BM_Fig15_ByteTransformer(benchmark::State& state) {
  run_framework(state, Framework::kByteTransformer);
}

#define FIG15_ARGS                                                    \
  ->Args({1, 64})->Args({1, 128})->Args({1, 256})->Args({1, 384})    \
  ->Args({1, 512})->Args({8, 64})->Args({8, 128})->Args({8, 256})    \
  ->Args({8, 384})->Args({8, 512})                                   \
  ->Unit(benchmark::kMillisecond)

BENCHMARK(BM_Fig15_PyTorchJIT) FIG15_ARGS;
BENCHMARK(BM_Fig15_TensorFlowXLA) FIG15_ARGS;
BENCHMARK(BM_Fig15_DeepSpeed) FIG15_ARGS;
BENCHMARK(BM_Fig15_FasterTransformer) FIG15_ARGS;
BENCHMARK(BM_Fig15_TurboTransformer) FIG15_ARGS;
BENCHMARK(BM_Fig15_ByteTransformer) FIG15_ARGS;

// Fig. 15(c) ratio sweep: ByteTransformer at alpha = 0.1 .. 1.0, batch 8,
// seq 384. Runtime should fall roughly linearly as alpha drops (paper: up to
// -66% at alpha 0.1 vs 1.0).
void BM_Fig15c_RatioSweep(benchmark::State& state) {
  const double alpha = static_cast<double>(state.range(0)) / 100.0;
  auto model = shared_model();
  const std::int64_t hidden = model->config().hidden();
  auto batch = VarLenBatch::make(8, 384, hidden, alpha, kSeed + 4);
  const auto requests = to_requests(batch, hidden);
  serving::Engine engine(
      model,
      framework_engine_options(Framework::kByteTransformer, 384, /*batch=*/8));
  for (auto _ : state) {
    for (const auto& r : requests) engine.submit(r.clone());
    auto responses = engine.drain();
    benchmark::DoNotOptimize(responses.data());
  }
  state.counters["alpha"] = batch.off.fill_ratio();
}

BENCHMARK(BM_Fig15c_RatioSweep)
    ->Arg(10)->Arg(25)->Arg(50)->Arg(75)->Arg(100)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace bt::bench
