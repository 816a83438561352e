// Quickstart: serve a variable-length batch through the request-level
// Engine API with the full ByteTransformer optimization stack, and compare
// against a padded-baseline engine.
//
//   $ ./examples/quickstart
//
// Walks through the public API end to end:
//   1. BertConfig        — pick an architecture (layers/heads/head_size).
//   2. BertModel         — weights (random here; load trained ones in prod).
//   3. EngineOptions     — optimization flags + batching policy + limits.
//   4. Engine            — owns the device, workspace, and scheduler.
//   5. submit()/drain()  — per-request [len, hidden] tensors in,
//                          per-request outputs + latency + stage times out.
// Offset construction, pad-row zeroing, and workspace reuse all happen
// behind the Engine; the kernel-level BertModel::forward remains available
// for embedders that manage their own batching (see docs/API.md).
#include <cstdio>
#include <memory>
#include <vector>

#include "common/rng.h"
#include "core/model.h"
#include "serving/engine.h"
#include "serving/request_gen.h"
#include "tensor/tensor.h"

int main() {
  using namespace bt;

  // 1. A scaled BERT config: 4 layers of 4 heads x 64 (hidden 256). The
  //    full-size config is BertConfig::bert_base().
  const core::BertConfig cfg = core::BertConfig::bert_base().scaled(4, 4);
  std::printf("model: BERT, %d layers, %d heads x %d (hidden %d)\n",
              cfg.layers, cfg.heads, cfg.head_size, cfg.hidden());

  // 2. Random weights, shared by both engines below.
  Rng rng(1234);
  auto model = std::make_shared<const core::BertModel>(
      core::BertModel::random(cfg, rng));

  // 3. Two engines over the same weights: the padded pad-to-max baseline vs
  //    the packed ByteTransformer stack.
  serving::EngineOptions base_opts;
  base_opts.flags = core::OptFlags::baseline();
  base_opts.policy = serving::BatchPolicy::kPadToMax;
  serving::Engine baseline(model, base_opts);

  serving::EngineOptions bt_opts;
  bt_opts.flags = core::OptFlags::byte_transformer();
  bt_opts.policy = serving::BatchPolicy::kPacked;
  serving::Engine engine(model, bt_opts);

  // 4. A variable-length batch: 8 sequences, max length 256, average 0.6x —
  //    the paper's serving distribution. Requests carry only their valid
  //    rows; the engine handles padding geometry internally.
  const int batch = 8;
  const int max_seq = 256;
  const auto lens = serving::gen_lengths(batch, max_seq, 0.6, rng);
  std::printf("batch lengths:");
  long long valid = 0;
  for (int l : lens) {
    std::printf(" %d", l);
    valid += l;
  }
  std::printf("\n");
  for (int l : lens) {
    auto hidden = Tensor<fp16_t>::random_normal({l, cfg.hidden()}, rng);
    baseline.submit(hidden.clone());
    engine.submit(std::move(hidden));
  }

  // 5. Serve: one scheduling round per engine (batch fits in one round).
  const auto base_responses = baseline.drain();
  const auto bt_responses = engine.drain();
  const double base_ms = baseline.stats().compute_seconds * 1e3;
  const double bt_ms = engine.stats().compute_seconds * 1e3;

  std::printf("\npadded tokens processed: baseline %lld of %lld (%.0f%% waste), "
              "packed %lld\n",
              baseline.stats().processed_tokens, valid,
              100.0 * static_cast<double>(baseline.stats().padding_tokens()) /
                  static_cast<double>(baseline.stats().processed_tokens),
              engine.stats().processed_tokens);
  std::printf("padded baseline : %8.2f ms\n", base_ms);
  std::printf("ByteTransformer : %8.2f ms   (%.2fx)\n", bt_ms,
              base_ms / bt_ms);

  std::printf("\nByteTransformer stage breakdown:\n");
  const StageTimes& stages = bt_responses.front().stages;
  for (Stage stage : kStages) {
    if (stages[stage] == 0) continue;  // e.g. add_bias_gelu when fused
    std::printf("  %-14s %7.2f ms  (%4.1f%%)\n", stage_name(stage),
                stages[stage] * 1e3,
                100.0 * stages[stage] / stages.total_seconds());
  }

  // 6. Outputs agree on every token (semantic preservation).
  double worst = 0;
  for (std::size_t i = 0; i < bt_responses.size(); ++i) {
    worst = std::max(worst, max_abs_diff(base_responses[i].output,
                                         bt_responses[i].output));
  }
  std::printf("\nmax |baseline - bytetransformer| on valid tokens: %.4f\n",
              worst);
  return worst < 0.25 ? 0 : 1;
}
