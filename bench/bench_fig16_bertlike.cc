// Fig. 16 — end-to-end ALBERT / DistilBERT / DeBERTa vs framework proxies.
//
// Paper (batch 16, alpha 0.6): for ALBERT/DistilBERT ByteTransformer beats
// PyTorch / TF / Turbo / DeepSpeed / FasterTransformer by 98% / 158% / 256%
// / 93% / 53%; for DeBERTa (FT and Turbo don't support it) it beats
// PyTorch / TF / DeepSpeed by 44% / 243% / 74%.
// Scaled: batch 4; ALBERT 4 shared layers x 3 heads, DistilBERT 2 layers x
// 2 heads, DeBERTa 2 layers x 2 heads (relative span 32); head size 64.
#include <benchmark/benchmark.h>

#include "bench_common.h"

namespace bt::bench {
namespace {

enum class WhichModel { kAlbert, kDistilBert, kDeberta };

core::BertConfig model_config(WhichModel m) {
  using core::BertConfig;
  using core::ModelKind;
  switch (m) {
    case WhichModel::kAlbert: {
      BertConfig cfg = BertConfig::albert_base().scaled(3, 4);
      return cfg;
    }
    case WhichModel::kDistilBert:
      return BertConfig::distilbert_base().scaled(2, 2);
    case WhichModel::kDeberta: {
      BertConfig cfg = BertConfig::deberta_base().scaled(2, 2);
      cfg.relative_span = 32;
      return cfg;
    }
  }
  return {};
}

std::shared_ptr<const core::BertModel> model_for(WhichModel m) {
  static std::shared_ptr<const core::BertModel> albert = [] {
    Rng rng(kSeed);
    return std::make_shared<const core::BertModel>(
        core::BertModel::random(model_config(WhichModel::kAlbert), rng));
  }();
  static std::shared_ptr<const core::BertModel> distil = [] {
    Rng rng(kSeed + 1);
    return std::make_shared<const core::BertModel>(
        core::BertModel::random(model_config(WhichModel::kDistilBert), rng));
  }();
  static std::shared_ptr<const core::BertModel> deberta = [] {
    Rng rng(kSeed + 2);
    return std::make_shared<const core::BertModel>(
        core::BertModel::random(model_config(WhichModel::kDeberta), rng));
  }();
  switch (m) {
    case WhichModel::kAlbert: return albert;
    case WhichModel::kDistilBert: return distil;
    case WhichModel::kDeberta: return deberta;
  }
  return albert;
}

void run_model(benchmark::State& state, WhichModel which, Framework fw) {
  const int max_seq = static_cast<int>(state.range(0));
  const int batch_size = 4;
  // FT and Turbo do not support DeBERTa (paper Sec. IV-F). DeBERTa's
  // disentangled attention also has no fused-MHA path, so ByteTransformer
  // mode for it is padding-free + fused kernels + zero-pad softmax.
  auto model = model_for(which);
  const std::int64_t hidden = model->config().hidden();
  auto batch = VarLenBatch::make(batch_size, max_seq, hidden);
  const auto requests = to_requests(batch, hidden);
  auto opts = framework_engine_options(fw, max_seq, batch_size,
                                       /*group_size=*/2);
  if (which == WhichModel::kDeberta && fw == Framework::kByteTransformer) {
    opts.flags = core::OptFlags::zero_padding_enabled();
  }
  serving::Engine engine(model, opts);
  for (auto _ : state) {
    for (const auto& r : requests) engine.submit(r.clone());
    auto responses = engine.drain();
    benchmark::DoNotOptimize(responses.data());
  }
}

// ALBERT.
void BM_Fig16_Albert_PyTorch(benchmark::State& s) {
  run_model(s, WhichModel::kAlbert, Framework::kPyTorchJit);
}
void BM_Fig16_Albert_TensorFlow(benchmark::State& s) {
  run_model(s, WhichModel::kAlbert, Framework::kTensorFlowXla);
}
void BM_Fig16_Albert_DeepSpeed(benchmark::State& s) {
  run_model(s, WhichModel::kAlbert, Framework::kDeepSpeed);
}
void BM_Fig16_Albert_FasterTransformer(benchmark::State& s) {
  run_model(s, WhichModel::kAlbert, Framework::kFasterTransformer);
}
void BM_Fig16_Albert_TurboTransformer(benchmark::State& s) {
  run_model(s, WhichModel::kAlbert, Framework::kTurboTransformer);
}
void BM_Fig16_Albert_ByteTransformer(benchmark::State& s) {
  run_model(s, WhichModel::kAlbert, Framework::kByteTransformer);
}

// DistilBERT.
void BM_Fig16_Distil_PyTorch(benchmark::State& s) {
  run_model(s, WhichModel::kDistilBert, Framework::kPyTorchJit);
}
void BM_Fig16_Distil_TensorFlow(benchmark::State& s) {
  run_model(s, WhichModel::kDistilBert, Framework::kTensorFlowXla);
}
void BM_Fig16_Distil_DeepSpeed(benchmark::State& s) {
  run_model(s, WhichModel::kDistilBert, Framework::kDeepSpeed);
}
void BM_Fig16_Distil_FasterTransformer(benchmark::State& s) {
  run_model(s, WhichModel::kDistilBert, Framework::kFasterTransformer);
}
void BM_Fig16_Distil_TurboTransformer(benchmark::State& s) {
  run_model(s, WhichModel::kDistilBert, Framework::kTurboTransformer);
}
void BM_Fig16_Distil_ByteTransformer(benchmark::State& s) {
  run_model(s, WhichModel::kDistilBert, Framework::kByteTransformer);
}

// DeBERTa (no FT / Turbo, as in the paper).
void BM_Fig16_Deberta_PyTorch(benchmark::State& s) {
  run_model(s, WhichModel::kDeberta, Framework::kPyTorchJit);
}
void BM_Fig16_Deberta_TensorFlow(benchmark::State& s) {
  run_model(s, WhichModel::kDeberta, Framework::kTensorFlowXla);
}
void BM_Fig16_Deberta_DeepSpeed(benchmark::State& s) {
  run_model(s, WhichModel::kDeberta, Framework::kDeepSpeed);
}
void BM_Fig16_Deberta_ByteTransformer(benchmark::State& s) {
  run_model(s, WhichModel::kDeberta, Framework::kByteTransformer);
}

#define FIG16_ARGS ->Arg(128)->Arg(256)->Arg(384) \
    ->Unit(benchmark::kMillisecond)

BENCHMARK(BM_Fig16_Albert_PyTorch) FIG16_ARGS;
BENCHMARK(BM_Fig16_Albert_TensorFlow) FIG16_ARGS;
BENCHMARK(BM_Fig16_Albert_DeepSpeed) FIG16_ARGS;
BENCHMARK(BM_Fig16_Albert_FasterTransformer) FIG16_ARGS;
BENCHMARK(BM_Fig16_Albert_TurboTransformer) FIG16_ARGS;
BENCHMARK(BM_Fig16_Albert_ByteTransformer) FIG16_ARGS;
BENCHMARK(BM_Fig16_Distil_PyTorch) FIG16_ARGS;
BENCHMARK(BM_Fig16_Distil_TensorFlow) FIG16_ARGS;
BENCHMARK(BM_Fig16_Distil_DeepSpeed) FIG16_ARGS;
BENCHMARK(BM_Fig16_Distil_FasterTransformer) FIG16_ARGS;
BENCHMARK(BM_Fig16_Distil_TurboTransformer) FIG16_ARGS;
BENCHMARK(BM_Fig16_Distil_ByteTransformer) FIG16_ARGS;
BENCHMARK(BM_Fig16_Deberta_PyTorch) FIG16_ARGS;
BENCHMARK(BM_Fig16_Deberta_TensorFlow) FIG16_ARGS;
BENCHMARK(BM_Fig16_Deberta_DeepSpeed) FIG16_ARGS;
BENCHMARK(BM_Fig16_Deberta_ByteTransformer) FIG16_ARGS;

}  // namespace
}  // namespace bt::bench
