// GEMM backend trajectory bench: GFLOP/s per kernel variant and per operand
// regime, the feed for BENCH_gemm.json (bench/run_perf.sh).
//
// Shapes are the scaled BERT layer GEMMs of the fig15 config (hidden 128,
// rows = packed tokens) plus one square stress shape. Three regimes:
//   * Dynamic    — pack-on-the-fly B with the column-stripe reuse
//   * Prepacked  — persistent PackedB panels (the weight-GEMM path)
//   * PackFresh  — PackedB::pack each iteration (what prepacking amortizes)
// The kernel variant comes from BT_GEMM_KERNEL (set by run_perf.sh); each
// record carries the dispatched kernel as its label.
#include <benchmark/benchmark.h>

#include "bench_common.h"
#include "gemm/gemm.h"
#include "gemm/packed.h"

namespace bt::bench {
namespace {

struct GemmOperands {
  Tensor<fp16_t> a;
  Tensor<fp16_t> b;
  Tensor<fp16_t> c;
  gemm::PackedB packed;

  GemmOperands(int m, int n, int k) {
    Rng rng(kSeed);
    a = Tensor<fp16_t>::random_normal({m, k}, rng);
    b = Tensor<fp16_t>::random_normal({k, n}, rng);
    c = Tensor<fp16_t>::zeros({m, n});
    packed = gemm::PackedB::pack(gemm::Trans::N, b.data(), n, k, n);
  }
};

void BM_GemmDynamic(benchmark::State& state) {
  const int m = static_cast<int>(state.range(0));
  const int n = static_cast<int>(state.range(1));
  const int k = static_cast<int>(state.range(2));
  GemmOperands op(m, n, k);
  for (auto _ : state) {
    gemm::gemm_f16(dev(), gemm::Trans::N, gemm::Trans::N, m, n, k, 1.0f,
                   op.a.data(), k, op.b.data(), n, 0.0f, op.c.data(), n);
    benchmark::DoNotOptimize(op.c.data());
  }
  set_gflops(state, 2.0 * m * n * k);
  set_kernel_label(state);
}

void BM_GemmPrepacked(benchmark::State& state) {
  const int m = static_cast<int>(state.range(0));
  const int n = static_cast<int>(state.range(1));
  const int k = static_cast<int>(state.range(2));
  GemmOperands op(m, n, k);
  for (auto _ : state) {
    gemm::gemm_prepacked(dev(), gemm::Trans::N, m, n, k, 1.0f, op.a.data(), k,
                         op.packed, 0.0f, op.c.data(), n);
    benchmark::DoNotOptimize(op.c.data());
  }
  set_gflops(state, 2.0 * m * n * k);
  set_kernel_label(state);
}

void BM_GemmPackFresh(benchmark::State& state) {
  const int m = static_cast<int>(state.range(0));
  const int n = static_cast<int>(state.range(1));
  const int k = static_cast<int>(state.range(2));
  GemmOperands op(m, n, k);
  for (auto _ : state) {
    auto packed = gemm::PackedB::pack(gemm::Trans::N, op.b.data(), n, k, n);
    gemm::gemm_prepacked(dev(), gemm::Trans::N, m, n, k, 1.0f, op.a.data(), k,
                         packed, 0.0f, op.c.data(), n);
    benchmark::DoNotOptimize(op.c.data());
  }
  set_gflops(state, 2.0 * m * n * k);
  set_kernel_label(state);
}

// {rows, n, k}: scaled-BERT qkv / proj / ffn1 / ffn2 plus a square shape.
#define GEMM_SHAPES                                                   \
  ->Args({256, 384, 128})->Args({256, 128, 128})->Args({256, 512, 128}) \
  ->Args({256, 128, 512})->Args({512, 512, 512})                       \
  ->Unit(benchmark::kMillisecond)

BENCHMARK(BM_GemmDynamic) GEMM_SHAPES;
BENCHMARK(BM_GemmPrepacked) GEMM_SHAPES;
BENCHMARK(BM_GemmPackFresh) GEMM_SHAPES;

}  // namespace
}  // namespace bt::bench
