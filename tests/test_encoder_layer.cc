// Encoder layer: every optimization rung must compute the same function.
#include <gtest/gtest.h>

#include <vector>

#include "core/encoder_layer.h"
#include "parallel/device.h"
#include "test_utils.h"

namespace bt::core {
namespace {

par::Device& dev() {
  static par::Device d(2);
  return d;
}

struct LayerFixture {
  BertConfig cfg;
  LayerWeights w;
  test::VarLenInput in;
  std::vector<double> ref;

  LayerFixture(std::vector<int> lens, int max_seq, int heads, int hd,
               std::uint64_t seed = 5)
      : cfg(), w(), in() {
    cfg.heads = heads;
    cfg.head_size = hd;
    cfg.layers = 1;
    Rng rng(seed);
    w = LayerWeights::random(cfg, rng);
    in = test::make_varlen_input(dev(), lens, max_seq, cfg.hidden(), rng);
    ref = test::ref_encoder_layer(cfg, w, test::to_f64(in.padded), in.off);
  }
};

// Runs one configuration and returns the max diff vs the FP64 reference on
// valid tokens. Packed-mode outputs are unpacked for comparison.
double run_and_diff(LayerFixture& f, const OptFlags& flags) {
  Workspace ws;
  const std::int64_t h = f.cfg.hidden();
  const std::int64_t padded_rows =
      static_cast<std::int64_t>(f.in.off.batch) * f.in.off.max_seq;
  if (!flags.zero_padding) {
    auto out = Tensor<fp16_t>::zeros({padded_rows, h});
    encoder_layer_forward(dev(), f.cfg, f.w, flags, f.in.padded.data(),
                          out.data(), f.in.off, ws);
    return test::max_diff_valid_rows(out, f.ref, f.in.off, h);
  }
  auto packed_in = Tensor<fp16_t>::zeros({f.in.off.valid_count, h});
  pack_rows(dev(), f.in.padded.data(), packed_in.data(), f.in.off, h);
  auto packed_out = Tensor<fp16_t>::zeros({f.in.off.valid_count, h});
  encoder_layer_forward(dev(), f.cfg, f.w, flags, packed_in.data(),
                        packed_out.data(), f.in.off, ws);
  auto out = Tensor<fp16_t>::zeros({padded_rows, h});
  unpack_rows(dev(), packed_out.data(), out.data(), f.in.off, h);
  return test::max_diff_valid_rows(out, f.ref, f.in.off, h);
}

constexpr double kTol = 6e-2;  // LN-normalized outputs are O(1)

TEST(EncoderLayer, BaselineMatchesReference) {
  LayerFixture f({12, 7, 16}, 16, 2, 32);
  EXPECT_LT(run_and_diff(f, OptFlags::baseline()), kTol);
}

TEST(EncoderLayer, LayernormFusionPreservesSemantics) {
  LayerFixture f({12, 7, 16}, 16, 2, 32);
  EXPECT_LT(run_and_diff(f, OptFlags::layernorm_fused()), kTol);
}

TEST(EncoderLayer, BiasGeluFusionPreservesSemantics) {
  LayerFixture f({12, 7, 16}, 16, 2, 32);
  EXPECT_LT(run_and_diff(f, OptFlags::bias_gelu_fused()), kTol);
}

TEST(EncoderLayer, ZeroPaddingPreservesSemantics) {
  LayerFixture f({12, 7, 16}, 16, 2, 32);
  EXPECT_LT(run_and_diff(f, OptFlags::zero_padding_enabled()), kTol);
}

TEST(EncoderLayer, FusedMhaPreservesSemantics) {
  LayerFixture f({12, 7, 16}, 16, 2, 32);
  EXPECT_LT(run_and_diff(f, OptFlags::byte_transformer()), kTol);
}

TEST(EncoderLayer, AllRungsAgreePairwise) {
  LayerFixture f({30, 11, 48, 5}, 48, 3, 16, /*seed=*/6);
  const std::vector<OptFlags> rungs{
      OptFlags::baseline(), OptFlags::layernorm_fused(),
      OptFlags::bias_gelu_fused(), OptFlags::zero_padding_enabled(),
      OptFlags::byte_transformer()};
  for (const auto& flags : rungs) {
    EXPECT_LT(run_and_diff(f, flags), kTol) << flags.name();
  }
}

TEST(EncoderLayer, PyTorchLikeMhaVariant) {
  LayerFixture f({10, 20}, 20, 2, 16, /*seed=*/8);
  OptFlags flags = OptFlags::baseline();
  flags.padded_mha = PaddedMhaKind::kPyTorchLike;
  EXPECT_LT(run_and_diff(f, flags), kTol);
}

TEST(EncoderLayer, FlashLikeMhaVariant) {
  LayerFixture f({10, 20}, 20, 2, 16, /*seed=*/9);
  OptFlags flags = OptFlags::byte_transformer();
  flags.fused_kind = FusedMhaKind::kFlashLike;
  EXPECT_LT(run_and_diff(f, flags), kTol);
}

TEST(EncoderLayer, LongKernelVariant) {
  LayerFixture f({40, 64}, 64, 2, 16, /*seed=*/10);
  OptFlags flags = OptFlags::byte_transformer();
  flags.fused_kind = FusedMhaKind::kLong;
  EXPECT_LT(run_and_diff(f, flags), kTol);
}

TEST(EncoderLayer, FullLengthBatchAllRungs) {
  // alpha = 1.0: packed and padded pipelines process identical token sets.
  LayerFixture f({16, 16}, 16, 2, 16, /*seed=*/11);
  EXPECT_LT(run_and_diff(f, OptFlags::baseline()), kTol);
  EXPECT_LT(run_and_diff(f, OptFlags::byte_transformer()), kTol);
}

TEST(EncoderLayer, SingleTokenSequences) {
  LayerFixture f({1, 1}, 8, 2, 16, /*seed=*/12);
  EXPECT_LT(run_and_diff(f, OptFlags::baseline()), kTol);
  EXPECT_LT(run_and_diff(f, OptFlags::byte_transformer()), kTol);
}

TEST(EncoderLayer, StageTimesCoverPipeline) {
  LayerFixture f({8, 8}, 8, 2, 16, /*seed=*/13);
  Workspace ws;
  StageTimes times;
  auto out = Tensor<fp16_t>::zeros(
      {static_cast<std::int64_t>(f.in.off.batch) * f.in.off.max_seq,
       f.cfg.hidden()});
  encoder_layer_forward(dev(), f.cfg, f.w, OptFlags::baseline(),
                        f.in.padded.data(), out.data(), f.in.off, ws, &times);
  // Fig. 3 buckets: every stage of one layer (the baseline has the
  // separate add_bias_gelu kernel); padding belongs to the model.
  for (Stage stage : kStages) {
    if (stage == Stage::kPadding) continue;
    EXPECT_GT(times[stage], 0.0) << stage_name(stage);
  }
  EXPECT_EQ(times[Stage::kPadding], 0.0);
  // Fused pipeline folds add_bias_gelu into gemm2.
  times.clear();
  encoder_layer_forward(dev(), f.cfg, f.w, OptFlags::byte_transformer(),
                        f.in.padded.data(), out.data(), f.in.off, ws, &times);
  EXPECT_EQ(times[Stage::kAddBiasGelu], 0.0);
  EXPECT_GT(times[Stage::kGemm2], 0.0);
}

}  // namespace
}  // namespace bt::core
