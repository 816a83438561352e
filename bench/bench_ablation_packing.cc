// Ablation — cost of the padding-free machinery itself (paper Sec. III-D
// claims prefix-sum + pack/unpack overhead is negligible because it is fused
// with existing memory-bound footprints).
//
// Measures: offset construction (prefix sum), pack, unpack, and their sum
// relative to one ByteTransformer encoder layer at the same shape.
#include <benchmark/benchmark.h>

#include "bench_common.h"
#include "core/encoder_layer.h"

namespace bt::bench {
namespace {

constexpr int kBatch = 8;
constexpr int kHidden = 256;

void BM_AblationPacking_BuildOffsets(benchmark::State& state) {
  const int max_seq = static_cast<int>(state.range(0));
  Rng rng(kSeed);
  const auto lens = serving::gen_lengths(kBatch, max_seq, kAlpha, rng);
  for (auto _ : state) {
    auto off = core::build_seq_offsets(dev(), lens, max_seq);
    benchmark::DoNotOptimize(off.valid_count);
  }
}

void BM_AblationPacking_BuildOffsetsFromMask(benchmark::State& state) {
  const int max_seq = static_cast<int>(state.range(0));
  Rng rng(kSeed);
  const auto lens = serving::gen_lengths(kBatch, max_seq, kAlpha, rng);
  std::vector<std::uint8_t> mask(static_cast<std::size_t>(kBatch) * max_seq, 0);
  for (int b = 0; b < kBatch; ++b) {
    for (int s = 0; s < lens[static_cast<std::size_t>(b)]; ++s) {
      mask[static_cast<std::size_t>(b * max_seq + s)] = 1;
    }
  }
  for (auto _ : state) {
    auto off = core::build_seq_offsets_from_mask(dev(), mask, kBatch, max_seq);
    benchmark::DoNotOptimize(off.valid_count);
  }
}

void BM_AblationPacking_PackUnpack(benchmark::State& state) {
  const int max_seq = static_cast<int>(state.range(0));
  auto batch = VarLenBatch::make(kBatch, max_seq, kHidden);
  Tensor<fp16_t> packed({batch.off.valid_count, kHidden});
  Tensor<fp16_t> rebuilt({batch.padded.dim(0), kHidden});
  for (auto _ : state) {
    core::pack_rows(dev(), batch.padded.data(), packed.data(), batch.off,
                    kHidden);
    core::unpack_rows(dev(), packed.data(), rebuilt.data(), batch.off,
                      kHidden);
    benchmark::DoNotOptimize(rebuilt.data());
  }
}

// Reference point: one fully-optimized encoder layer at the same shape.
void BM_AblationPacking_OneLayerForScale(benchmark::State& state) {
  const int max_seq = static_cast<int>(state.range(0));
  core::BertConfig cfg;
  cfg.heads = 4;
  cfg.head_size = 64;
  cfg.layers = 1;
  Rng rng(kSeed);
  const auto w = core::LayerWeights::random(cfg, rng);
  auto batch = VarLenBatch::make(kBatch, max_seq, cfg.hidden());
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

// The same machinery measured at the serving tier: a full Engine round trip
// (submit, packed batch formation, offsets, one-layer forward, per-request
// scatter) minus OneLayerForScale above isolates the request-level overhead
// the Engine adds on top of the kernel-level API.
void BM_AblationPacking_EngineRoundtrip(benchmark::State& state) {
  const int max_seq = static_cast<int>(state.range(0));
  core::BertConfig cfg;
  cfg.heads = 4;
  cfg.head_size = 64;
  cfg.layers = 1;
  Rng rng(kSeed);
  auto model = std::make_shared<const core::BertModel>(
      core::BertModel::random(cfg, rng));
  auto batch = VarLenBatch::make(kBatch, max_seq, cfg.hidden());
  const auto requests = to_requests(batch, cfg.hidden());
  serving::EngineOptions opts;
  opts.flags = core::OptFlags::byte_transformer();
  opts.policy = serving::BatchPolicy::kPacked;
  opts.max_batch_requests = kBatch;
  serving::Engine engine(model, opts);
  for (auto _ : state) {
    for (const auto& r : requests) engine.submit(r.clone());
    auto responses = engine.drain();
    benchmark::DoNotOptimize(responses.data());
  }
}

#define PACKING_ARGS ->Arg(128)->Arg(512)->Unit(benchmark::kMicrosecond)
BENCHMARK(BM_AblationPacking_BuildOffsets) PACKING_ARGS;
BENCHMARK(BM_AblationPacking_BuildOffsetsFromMask) PACKING_ARGS;
BENCHMARK(BM_AblationPacking_PackUnpack) PACKING_ARGS;
BENCHMARK(BM_AblationPacking_OneLayerForScale) PACKING_ARGS;
BENCHMARK(BM_AblationPacking_EngineRoundtrip) PACKING_ARGS;

}  // namespace
}  // namespace bt::bench
