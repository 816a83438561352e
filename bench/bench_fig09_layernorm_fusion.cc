// Fig. 9 — kernel fusion for add-bias + residual + layernorm.
//
// Paper: fused kernel is ~61-69% faster than the two-kernel baseline on a
// (batch*seq) x hidden tensor, batch 16, hidden 768, seq 128..1024.
// This bench runs at the paper's exact tensor shapes (the kernel is
// memory-bound, so CPU scale handles them fine).
#include <benchmark/benchmark.h>

#include "bench_common.h"
#include "kernels/layernorm.h"

namespace bt::bench {
namespace {

constexpr int kBatch = 16;
constexpr int kHidden = 768;

struct LnSetup {
  Tensor<fp16_t> x, residual, out;
  Tensor<fp16_t> bias;
  Tensor<float> gamma, beta;

  explicit LnSetup(std::int64_t rows) {
    Rng rng(kSeed);
    x = Tensor<fp16_t>::random_normal({rows, kHidden}, rng);
    residual = Tensor<fp16_t>::random_normal({rows, kHidden}, rng);
    out = Tensor<fp16_t>::zeros({rows, kHidden});
    bias = Tensor<fp16_t>::random_normal({kHidden}, rng);
    gamma = Tensor<float>({kHidden});
    gamma.fill(1.0f);
    beta = Tensor<float>::zeros({kHidden});
  }
};

void BM_Fig09_Unfused(benchmark::State& state) {
  const std::int64_t rows = kBatch * state.range(0);
  LnSetup s(rows);
  auto staging = s.x.clone();
  for (auto _ : state) {
    // Two kernels, two full round trips (the framework baseline).
    kernels::add_bias_residual(dev(), staging.data(), s.residual.data(),
                               s.bias.data(), rows, kHidden);
    kernels::layernorm(dev(), s.out.data(), staging.data(), s.gamma.data(),
                       s.beta.data(), rows, kHidden);
    benchmark::DoNotOptimize(s.out.data());
  }
  state.counters["rows"] = static_cast<double>(rows);
}

void BM_Fig09_Fused(benchmark::State& state) {
  const std::int64_t rows = kBatch * state.range(0);
  LnSetup s(rows);
  for (auto _ : state) {
    kernels::add_bias_residual_layernorm(
        dev(), s.out.data(), s.x.data(), s.residual.data(), s.bias.data(),
        s.gamma.data(), s.beta.data(), rows, kHidden);
    benchmark::DoNotOptimize(s.out.data());
  }
  state.counters["rows"] = static_cast<double>(rows);
}

BENCHMARK(BM_Fig09_Unfused)
    ->Arg(128)->Arg(256)->Arg(384)->Arg(512)->Arg(640)->Arg(768)->Arg(896)->Arg(1024)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Fig09_Fused)
    ->Arg(128)->Arg(256)->Arg(384)->Arg(512)->Arg(640)->Arg(768)->Arg(896)->Arg(1024)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace bt::bench
