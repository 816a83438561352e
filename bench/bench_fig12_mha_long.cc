// Fig. 12 — MHA variants for long sequences (max_seq >= 448).
//
// Paper ladder (batch 16, 12 heads x 64, avg = 0.6*max): grouped-GEMM fused
// MHA beats PyTorch / cuBLAS / cuBLAS+zero-padding by 451% / 110% / 79%.
// Scaled: batch 2, 4 heads x 64, seq 448..640.
#include <benchmark/benchmark.h>

#include "attention/attention.h"
#include "bench_common.h"
#include "kernels/transpose.h"

namespace bt::bench {
namespace {

constexpr int kBatch = 2;
constexpr int kHeads = 4;
constexpr int kHd = 64;
constexpr int kHidden = kHeads * kHd;

struct MhaBench {
  VarLenBatch batch;
  Tensor<fp16_t> qkv, bias;
  Tensor<fp16_t> q, k, v, ctx_heads;
  Tensor<fp16_t> ctx_packed;
  core::Workspace ws;

  explicit MhaBench(int max_seq)
      : batch(VarLenBatch::make(kBatch, max_seq, 3 * kHidden)) {
    Rng rng(kSeed + 2);
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
};

void BM_Fig12_PyTorchMHA(benchmark::State& state) {
  MhaBench b(static_cast<int>(state.range(0)));
  attn::PaddedMhaArgs args{b.q.data(), b.k.data(), b.v.data(),
                           b.ctx_heads.data(), kBatch, kHeads,
                           b.batch.off.max_seq, kHd, b.batch.off.seq_lens};
  for (auto _ : state) {
    attn::mha_pytorch_like(dev(), args, b.ws);
    benchmark::DoNotOptimize(b.ctx_heads.data());
  }
}

void BM_Fig12_Batched(benchmark::State& state) {
  MhaBench b(static_cast<int>(state.range(0)));
  attn::PaddedMhaArgs args{b.q.data(), b.k.data(), b.v.data(),
                           b.ctx_heads.data(), kBatch, kHeads,
                           b.batch.off.max_seq, kHd, b.batch.off.seq_lens};
  for (auto _ : state) {
    attn::mha_batched(dev(), args, b.ws);
    benchmark::DoNotOptimize(b.ctx_heads.data());
  }
}

void BM_Fig12_BatchedZeroPad(benchmark::State& state) {
  MhaBench b(static_cast<int>(state.range(0)));
  attn::PaddedMhaArgs args{b.q.data(), b.k.data(), b.v.data(),
                           b.ctx_heads.data(), kBatch, kHeads,
                           b.batch.off.max_seq, kHd, b.batch.off.seq_lens};
  for (auto _ : state) {
    attn::mha_batched_zeropad(dev(), args, b.ws);
    benchmark::DoNotOptimize(b.ctx_heads.data());
  }
}

void BM_Fig12_FusedMHA(benchmark::State& state) {
  MhaBench b(static_cast<int>(state.range(0)));
  attn::PackedMhaArgs args{b.qkv.data(), b.bias.data(), b.ctx_packed.data(),
                           &b.batch.off, kHeads, kHd};
  for (auto _ : state) {
    attn::mha_fused_long(dev(), args, b.ws);
    benchmark::DoNotOptimize(b.ctx_packed.data());
  }
}

#define FIG12_ARGS ->Arg(448)->Arg(512)->Arg(576)->Arg(640) \
    ->Unit(benchmark::kMillisecond)

BENCHMARK(BM_Fig12_PyTorchMHA) FIG12_ARGS;
BENCHMARK(BM_Fig12_Batched) FIG12_ARGS;
BENCHMARK(BM_Fig12_BatchedZeroPad) FIG12_ARGS;
BENCHMARK(BM_Fig12_FusedMHA) FIG12_ARGS;

}  // namespace
}  // namespace bt::bench
