// Fig. 10 — kernel fusion for GEMM + add-bias + GELU.
//
// Paper: fusing the elementwise tail into the GEMM epilogue is ~24% faster
// on average than GEMM followed by a separate add-bias+GELU kernel, for a
// (batch*seq) x (4*hidden) output. Scaled shape: batch 4, hidden 256
// (4 heads x 64), FFN scale 4.
#include <benchmark/benchmark.h>

#include "bench_common.h"
#include "gemm/epilogues.h"
#include "gemm/gemm.h"
#include "kernels/activation.h"

namespace bt::bench {
namespace {

constexpr int kBatch = 4;
constexpr int kHidden = 256;
constexpr int kInner = 4 * kHidden;

struct GeluSetup {
  Tensor<fp16_t> a, w, bias, out;

  explicit GeluSetup(std::int64_t rows) {
    Rng rng(kSeed);
    a = Tensor<fp16_t>::random_normal({rows, kHidden}, rng);
    w = Tensor<fp16_t>::random_normal({kHidden, kInner}, rng,
                                      1.0f / 16.0f);
    bias = Tensor<fp16_t>::random_normal({kInner}, rng);
    out = Tensor<fp16_t>::zeros({rows, kInner});
  }
};

void BM_Fig10_Unfused(benchmark::State& state) {
  const std::int64_t rows = kBatch * state.range(0);
  GeluSetup s(rows);
  for (auto _ : state) {
    gemm::gemm_f16(dev(), gemm::Trans::N, gemm::Trans::N, rows, kInner,
                   kHidden, 1.0f, s.a.data(), kHidden, s.w.data(), kInner,
                   0.0f, s.out.data(), kInner);
    kernels::add_bias_gelu(dev(), s.out.data(), s.bias.data(), rows, kInner);
    benchmark::DoNotOptimize(s.out.data());
  }
}

void BM_Fig10_Fused(benchmark::State& state) {
  const std::int64_t rows = kBatch * state.range(0);
  GeluSetup s(rows);
  const gemm::BiasGeluEpilogue<fp16_t> ep{s.bias.data()};
  for (auto _ : state) {
    gemm::gemm<fp16_t, fp16_t, fp16_t, gemm::IdentityATransform,
               gemm::BiasGeluEpilogue<fp16_t>>(
        dev(), gemm::Trans::N, gemm::Trans::N, rows, kInner, kHidden, 1.0f,
        s.a.data(), kHidden, s.w.data(), kInner, 0.0f, s.out.data(), kInner,
        ep);
    benchmark::DoNotOptimize(s.out.data());
  }
}

BENCHMARK(BM_Fig10_Unfused)
    ->Arg(64)->Arg(128)->Arg(192)->Arg(256)->Arg(384)->Arg(512)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Fig10_Fused)
    ->Arg(64)->Arg(128)->Arg(192)->Arg(256)->Arg(384)->Arg(512)
    ->Unit(benchmark::kMillisecond);

// Bandwidth-ratio-matched variant: on the A100, GEMM throughput is ~100x
// larger relative to memory bandwidth than on this CPU, so at BERT shapes
// the elementwise tail is a far larger *fraction* of GEMM time there. A
// small reduction dimension (k = 64) restores the paper's compute-to-tail
// cost ratio, making the fusion saving visible at CPU scale.
struct ThinKSetup {
  static constexpr int kThinK = 64;
  Tensor<fp16_t> a, w, bias, out;

  explicit ThinKSetup(std::int64_t rows) {
    Rng rng(kSeed);
    a = Tensor<fp16_t>::random_normal({rows, kThinK}, rng);
    w = Tensor<fp16_t>::random_normal({kThinK, kInner}, rng, 1.0f / 8.0f);
    bias = Tensor<fp16_t>::random_normal({kInner}, rng);
    out = Tensor<fp16_t>::zeros({rows, kInner});
  }
};

void BM_Fig10_Unfused_ThinK(benchmark::State& state) {
  const std::int64_t rows = kBatch * state.range(0);
  ThinKSetup s(rows);
  for (auto _ : state) {
    gemm::gemm_f16(dev(), gemm::Trans::N, gemm::Trans::N, rows, kInner,
                   ThinKSetup::kThinK, 1.0f, s.a.data(), ThinKSetup::kThinK,
                   s.w.data(), kInner, 0.0f, s.out.data(), kInner);
    kernels::add_bias_gelu(dev(), s.out.data(), s.bias.data(), rows, kInner);
    benchmark::DoNotOptimize(s.out.data());
  }
}

void BM_Fig10_Fused_ThinK(benchmark::State& state) {
  const std::int64_t rows = kBatch * state.range(0);
  ThinKSetup s(rows);
  const gemm::BiasGeluEpilogue<fp16_t> ep{s.bias.data()};
  for (auto _ : state) {
    gemm::gemm<fp16_t, fp16_t, fp16_t, gemm::IdentityATransform,
               gemm::BiasGeluEpilogue<fp16_t>>(
        dev(), gemm::Trans::N, gemm::Trans::N, rows, kInner,
        ThinKSetup::kThinK, 1.0f, s.a.data(), ThinKSetup::kThinK, s.w.data(),
        kInner, 0.0f, s.out.data(), kInner, ep);
    benchmark::DoNotOptimize(s.out.data());
  }
}

BENCHMARK(BM_Fig10_Unfused_ThinK)
    ->Arg(128)->Arg(256)->Arg(512)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Fig10_Fused_ThinK)
    ->Arg(128)->Arg(256)->Arg(512)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace bt::bench
