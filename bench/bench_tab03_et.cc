// Table III — single-layer, batch-1 BERT: E.T.-style comparator vs
// ByteTransformer.
//
// Paper: 3.57x at seq 256, 11.56x at seq 1024 (E.T. is tuned for pruned
// models on Volta; on dense A100 workloads its FP32 unfused pipeline loses
// badly, and the gap widens with sequence length). Scaled: 4 heads x 64.
#include <benchmark/benchmark.h>

#include "attention/attention.h"
#include "bench_common.h"
#include "core/encoder_layer.h"
#include "gemm/gemm.h"
#include "kernels/activation.h"
#include "kernels/layernorm.h"
#include "kernels/transpose.h"

namespace bt::bench {
namespace {

constexpr int kHeads = 4;
constexpr int kHd = 64;
constexpr int kHidden = kHeads * kHd;

// E.T.-style single layer: FP32, per-head unfused MHA, separate elementwise
// kernels. Uses the library's FP32 kernel overloads.
void BM_Tab03_EtLike(benchmark::State& state) {
  const int max_seq = static_cast<int>(state.range(0));
  Rng rng(kSeed);
  auto batch = VarLenBatch::make(1, max_seq, kHidden);
  // FP32 padded per-head operands.
  const std::int64_t per_head =
      static_cast<std::int64_t>(kHeads) * max_seq * kHd;
  auto q = Tensor<float>::random_normal({per_head}, rng);
  auto k = Tensor<float>::random_normal({per_head}, rng);
  auto v = Tensor<float>::random_normal({per_head}, rng);
  auto ctx = Tensor<float>::zeros({per_head});
  // FP32 weights for the projection/FFN part.
  auto w_proj = Tensor<float>::random_normal({kHidden, kHidden}, rng, 0.06f);
  auto w_ffn1 = Tensor<float>::random_normal({kHidden, 4 * kHidden}, rng, 0.06f);
  auto w_ffn2 = Tensor<float>::random_normal({4 * kHidden, kHidden}, rng, 0.03f);
  auto bias_h = Tensor<float>::zeros({kHidden});
  auto bias_i = Tensor<float>::zeros({4 * kHidden});
  auto gamma = Tensor<float>({kHidden});
  gamma.fill(1.0f);
  auto beta = Tensor<float>::zeros({kHidden});
  const std::int64_t rows = max_seq;  // batch 1
  auto rows_buf = Tensor<float>::random_normal({rows, kHidden}, rng);
  auto tmp = Tensor<float>::zeros({rows, kHidden});
  auto mid = Tensor<float>::zeros({rows, 4 * kHidden});
  core::Workspace ws;

  attn::PaddedMhaArgsF32 args{q.data(), k.data(), v.data(), ctx.data(), 1,
                              kHeads, max_seq, kHd, batch.off.seq_lens};
  for (auto _ : state) {
    attn::mha_et_like(dev(), args, ws);
    // Unfused FP32 projection + LN + FFN chain.
    gemm::gemm_f32(dev(), gemm::Trans::N, gemm::Trans::N, rows, kHidden,
                   kHidden, 1.0f, rows_buf.data(), kHidden, w_proj.data(),
                   kHidden, 0.0f, tmp.data(), kHidden);
    kernels::add_bias_residual(dev(), tmp.data(), rows_buf.data(),
                               bias_h.data(), rows, kHidden);
    kernels::layernorm(dev(), tmp.data(), tmp.data(), gamma.data(),
                       beta.data(), rows, kHidden);
    gemm::gemm_f32(dev(), gemm::Trans::N, gemm::Trans::N, rows, 4 * kHidden,
                   kHidden, 1.0f, tmp.data(), kHidden, w_ffn1.data(),
                   4 * kHidden, 0.0f, mid.data(), 4 * kHidden);
    kernels::add_bias_gelu(dev(), mid.data(), bias_i.data(), rows,
                           4 * kHidden);
    gemm::gemm_f32(dev(), gemm::Trans::N, gemm::Trans::N, rows, kHidden,
                   4 * kHidden, 1.0f, mid.data(), 4 * kHidden, w_ffn2.data(),
                   kHidden, 0.0f, tmp.data(), kHidden);
    kernels::add_bias_residual(dev(), tmp.data(), tmp.data(), bias_h.data(),
                               rows, kHidden);
    kernels::layernorm(dev(), tmp.data(), tmp.data(), gamma.data(),
                       beta.data(), rows, kHidden);
    benchmark::DoNotOptimize(tmp.data());
  }
}

void BM_Tab03_ByteTransformer(benchmark::State& state) {
  const int max_seq = static_cast<int>(state.range(0));
  core::BertConfig cfg;
  cfg.heads = kHeads;
  cfg.head_size = kHd;
  cfg.layers = 1;
  Rng rng(kSeed);
  const auto w = core::LayerWeights::random(cfg, rng);
  auto batch = VarLenBatch::make(1, max_seq, cfg.hidden());
  Tensor<fp16_t> packed_in({batch.off.valid_count, cfg.hidden()});
  core::pack_rows(dev(), batch.padded.data(), packed_in.data(), batch.off,
                  cfg.hidden());
  Tensor<fp16_t> out({batch.off.valid_count, cfg.hidden()});
  core::Workspace ws;
  const auto flags = core::OptFlags::byte_transformer();
  for (auto _ : state) {
    core::encoder_layer_forward(dev(), cfg, w, flags, packed_in.data(),
                                out.data(), batch.off, ws);
    benchmark::DoNotOptimize(out.data());
  }
}

#define TAB03_ARGS ->Arg(256)->Arg(512)->Unit(benchmark::kMillisecond)
BENCHMARK(BM_Tab03_EtLike) TAB03_ARGS;
BENCHMARK(BM_Tab03_ByteTransformer) TAB03_ARGS;

}  // namespace
}  // namespace bt::bench
