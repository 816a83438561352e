// Fig. 11 — MHA variants for short sequences (max_seq <= 384).
//
// Paper ladder (batch 16, 12 heads x 64, avg = 0.6*max):
//   PyTorch MHA  <<  cuBLAS batched  <  cuBLAS + zero-padding softmax
//   <  fused MHA      (617% / 42% / 30% average gains for the fused kernel)
// Scaled: batch 4, 4 heads x 64.
#include <benchmark/benchmark.h>

#include "attention/attention.h"
#include "bench_common.h"
#include "kernels/transpose.h"

namespace bt::bench {
namespace {

constexpr int kBatch = 4;
constexpr int kHeads = 4;
constexpr int kHd = 64;
constexpr int kHidden = kHeads * kHd;

struct MhaBench {
  VarLenBatch batch;
  Tensor<fp16_t> qkv, bias;          // packed inputs for fused paths
  Tensor<fp16_t> q, k, v, ctx_heads;  // padded per-head for baselines
  Tensor<fp16_t> ctx_packed;
  core::Workspace ws;

  explicit MhaBench(int max_seq)
      : batch(VarLenBatch::make(kBatch, max_seq, 3 * kHidden)) {
    Rng rng(kSeed + 1);
    qkv = Tensor<fp16_t>::random_normal({batch.off.valid_count, 3 * kHidden}, rng);
    bias = Tensor<fp16_t>::random_normal({3 * kHidden}, rng, 0.1f);
    const std::int64_t per_head =
        static_cast<std::int64_t>(kBatch) * kHeads * max_seq * kHd;
    q = Tensor<fp16_t>::zeros({per_head});
    k = Tensor<fp16_t>::zeros({per_head});
    v = Tensor<fp16_t>::zeros({per_head});
    ctx_heads = Tensor<fp16_t>::zeros({per_head});
    ctx_packed = Tensor<fp16_t>::zeros({batch.off.valid_count, kHidden});
    kernels::split_qkv_add_bias_rebuild_padding(dev(), qkv.data(), bias.data(),
                                                q.data(), k.data(), v.data(),
                                                batch.off, kHeads, kHd);
  }

  attn::PaddedMhaArgs padded_args() {
    return {q.data(),     k.data(), v.data(),        ctx_heads.data(),
            kBatch,       kHeads,   batch.off.max_seq, kHd,
            batch.off.seq_lens};
  }
  attn::PackedMhaArgs packed_args() {
    return {qkv.data(), bias.data(), ctx_packed.data(), &batch.off, kHeads,
            kHd};
  }
};

void BM_Fig11_PyTorchMHA(benchmark::State& state) {
  MhaBench b(static_cast<int>(state.range(0)));
  auto args = b.padded_args();
  for (auto _ : state) {
    attn::mha_pytorch_like(dev(), args, b.ws);
    benchmark::DoNotOptimize(b.ctx_heads.data());
  }
}

void BM_Fig11_Batched(benchmark::State& state) {
  MhaBench b(static_cast<int>(state.range(0)));
  auto args = b.padded_args();
  for (auto _ : state) {
    attn::mha_batched(dev(), args, b.ws);
    benchmark::DoNotOptimize(b.ctx_heads.data());
  }
}

void BM_Fig11_BatchedZeroPad(benchmark::State& state) {
  MhaBench b(static_cast<int>(state.range(0)));
  auto args = b.padded_args();
  for (auto _ : state) {
    attn::mha_batched_zeropad(dev(), args, b.ws);
    benchmark::DoNotOptimize(b.ctx_heads.data());
  }
}

void BM_Fig11_FusedMHA(benchmark::State& state) {
  MhaBench b(static_cast<int>(state.range(0)));
  auto args = b.packed_args();
  for (auto _ : state) {
    attn::mha_fused_short(dev(), args, b.ws);
    benchmark::DoNotOptimize(b.ctx_packed.data());
  }
}

#define FIG11_ARGS ->Arg(64)->Arg(128)->Arg(192)->Arg(256)->Arg(320)->Arg(384) \
    ->Unit(benchmark::kMillisecond)

BENCHMARK(BM_Fig11_PyTorchMHA) FIG11_ARGS;
BENCHMARK(BM_Fig11_Batched) FIG11_ARGS;
BENCHMARK(BM_Fig11_BatchedZeroPad) FIG11_ARGS;
BENCHMARK(BM_Fig11_FusedMHA) FIG11_ARGS;

}  // namespace
}  // namespace bt::bench
