// Fig. 13 — ByteTransformer FMHA vs FlashAttention, batch 1 vs batch 16.
//
// The paper's crossover is a *device-width* effect: FlashAttention runs one
// CTA per attention unit, so a single-batch BERT offers only 12 CTAs to 108
// SMs and starves the machine; at batch 16 its 192 CTAs saturate and its
// avoidance of score materialization wins. Two views are reported here:
//   * CPU wall-clock of both kernels (functional substrate), and
//   * the A100 makespan projection (costmodel) as counters
//     a100_flash_us / a100_fused_us — these carry the paper's crossover.
#include <benchmark/benchmark.h>

#include "attention/attention.h"
#include "bench_common.h"
#include "costmodel/makespan.h"

namespace bt::bench {
namespace {

constexpr int kHeads = 4;  // scaled from 12
constexpr int kHd = 64;
constexpr int kHidden = kHeads * kHd;

struct FlashBench {
  VarLenBatch batch;
  Tensor<fp16_t> qkv, bias, ctx;
  core::Workspace ws;

  FlashBench(int batch_size, int max_seq)
      : batch(VarLenBatch::make(batch_size, max_seq, 3 * kHidden)) {
    Rng rng(kSeed + 3);
    qkv = Tensor<fp16_t>::random_normal({batch.off.valid_count, 3 * kHidden}, rng);
    bias = Tensor<fp16_t>::random_normal({3 * kHidden}, rng, 0.1f);
    ctx = Tensor<fp16_t>::zeros({batch.off.valid_count, kHidden});
  }

  attn::PackedMhaArgs args() {
    return {qkv.data(), bias.data(), ctx.data(), &batch.off, kHeads, kHd};
  }

  void attach_a100_counters(benchmark::State& state) const {
    // Project onto the A100 at the *paper's* head count (12).
    const auto g = costmodel::GpuSpec::a100();
    const auto flash =
        costmodel::flash_attention_ctas(batch.off.seq_lens, 12, kHd);
    const auto fused =
        batch.off.max_seq <= attn::kShortSeqCutoff
            ? costmodel::fused_short_ctas(batch.off.seq_lens, 12, kHd,
                                          attn::kSplitSeqLen)
            : costmodel::fused_long_ctas(batch.off.seq_lens, 12, kHd);
    state.counters["a100_flash_us"] =
        costmodel::makespan_seconds(flash, g) * 1e6;
    state.counters["a100_fused_us"] =
        costmodel::makespan_seconds(fused, g) * 1e6;
  }
};

void BM_Fig13_Flash(benchmark::State& state) {
  FlashBench b(static_cast<int>(state.range(0)),
               static_cast<int>(state.range(1)));
  auto args = b.args();
  for (auto _ : state) {
    attn::mha_flash_like(dev(), args, b.ws);
    benchmark::DoNotOptimize(b.ctx.data());
  }
  b.attach_a100_counters(state);
}

void BM_Fig13_OurFMHA(benchmark::State& state) {
  FlashBench b(static_cast<int>(state.range(0)),
               static_cast<int>(state.range(1)));
  auto args = b.args();
  for (auto _ : state) {
    attn::mha_fused(dev(), args, b.ws);
    benchmark::DoNotOptimize(b.ctx.data());
  }
  b.attach_a100_counters(state);
}

#define FIG13_ARGS                                                   \
  ->Args({1, 128})->Args({1, 256})->Args({1, 384})->Args({1, 512})  \
  ->Args({1, 640})->Args({8, 128})->Args({8, 256})->Args({8, 384})  \
  ->Args({8, 512})->Args({8, 640})                                  \
  ->Unit(benchmark::kMillisecond)

BENCHMARK(BM_Fig13_Flash) FIG13_ARGS;
BENCHMARK(BM_Fig13_OurFMHA) FIG13_ARGS;

}  // namespace
}  // namespace bt::bench
