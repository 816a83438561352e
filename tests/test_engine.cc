// Engine facade: bitwise equivalence with hand-wired BertModel::forward for
// every batching policy, outputs independent of batch mates, padded-token
// accounting, option validation, and queue-edge behaviour.
#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <stdexcept>
#include <vector>

#include "attention/attention.h"
#include "core/model.h"
#include "parallel/device.h"
#include "serving/engine.h"
#include "serving/scheduler.h"
#include "tensor/tensor.h"

namespace bt::serving {
namespace {

par::Device& dev() {
  static par::Device d(2);
  return d;
}

core::BertConfig tiny_config() {
  core::BertConfig cfg;
  cfg.layers = 2;
  cfg.heads = 2;
  cfg.head_size = 16;
  return cfg;
}

std::shared_ptr<const core::BertModel> shared_model() {
  static std::shared_ptr<const core::BertModel> model = [] {
    Rng rng(4242);
    return std::make_shared<const core::BertModel>(
        core::BertModel::random(tiny_config(), rng));
  }();
  return model;
}

const std::vector<int> kLens{12, 3, 8, 16, 5};

// Deterministic per-request hidden states; a fresh Rng per call so the
// engine and the hand-wired reference see identical inputs.
std::vector<Tensor<fp16_t>> make_requests(std::span<const int> lens,
                                          int hidden) {
  Rng rng(77);
  std::vector<Tensor<fp16_t>> reqs;
  for (int len : lens) {
    reqs.push_back(Tensor<fp16_t>::random_normal({len, hidden}, rng));
  }
  return reqs;
}

// Hand-wired kernel-level execution of one micro-batch: zero-padded gather,
// offset construction, forward — exactly what every call site did before the
// engine existed.
Tensor<fp16_t> direct_forward(const core::BertModel& model,
                              const std::vector<Tensor<fp16_t>>& reqs,
                              std::span<const int> indices, int max_len,
                              const core::OptFlags& flags) {
  const std::int64_t h = model.config().hidden();
  const std::int64_t rows = static_cast<std::int64_t>(indices.size()) * max_len;
  auto in = Tensor<fp16_t>::zeros({rows, h});
  std::vector<int> lens;
  for (std::size_t i = 0; i < indices.size(); ++i) {
    const auto& r = reqs[static_cast<std::size_t>(indices[i])];
    lens.push_back(static_cast<int>(r.dim(0)));
    std::copy(r.data(), r.data() + r.size(),
              in.data() + static_cast<std::int64_t>(i) * max_len * h);
  }
  const auto off = core::build_seq_offsets(dev(), lens, max_len);
  auto out = Tensor<fp16_t>::zeros({rows, h});
  core::Workspace ws;
  model.forward(dev(), in.data(), out.data(), off, flags, ws);
  return out;
}

// Bitwise comparison of a valid-rows response against the padded direct
// output at row block `block`.
void expect_bits_equal(const Response& got, const Tensor<fp16_t>& padded_out,
                       int block, int max_len, std::int64_t h) {
  ASSERT_EQ(got.output.rank(), 2);
  const std::int64_t len = got.output.dim(0);
  for (std::int64_t s = 0; s < len; ++s) {
    for (std::int64_t j = 0; j < h; ++j) {
      ASSERT_EQ(got.output(s, j).bits(),
                padded_out(static_cast<std::int64_t>(block) * max_len + s, j)
                    .bits())
          << "row " << s << " col " << j;
    }
  }
}

EngineOptions options_for(BatchPolicy policy, const core::OptFlags& flags,
                          int group_size = 2) {
  EngineOptions opts;
  opts.policy = policy;
  opts.flags = flags;
  opts.group_size = group_size;
  opts.max_batch_requests = static_cast<int>(kLens.size());
  opts.threads = 2;
  return opts;
}

TEST(Engine, PadToMaxBitMatchesDirectForward) {
  auto model = shared_model();
  const auto flags = core::OptFlags::bias_gelu_fused();
  Engine engine(model, options_for(BatchPolicy::kPadToMax, flags));
  const std::int64_t h = engine.hidden();

  auto reqs = make_requests(kLens, static_cast<int>(h));
  const auto expect_reqs = make_requests(kLens, static_cast<int>(h));
  const std::vector<int> order{0, 1, 2, 3, 4};
  const int max_len = 16;
  const auto want = direct_forward(*model, expect_reqs, order, max_len, flags);

  for (auto& r : reqs) engine.submit(std::move(r));
  const auto responses = engine.drain();
  ASSERT_EQ(responses.size(), kLens.size());
  for (std::size_t i = 0; i < responses.size(); ++i) {
    EXPECT_EQ(responses[i].id, static_cast<RequestId>(i));
    expect_bits_equal(responses[i], want, static_cast<int>(i), max_len, h);
  }
}

TEST(Engine, PackedBitMatchesDirectForward) {
  auto model = shared_model();
  const auto flags = core::OptFlags::byte_transformer();
  Engine engine(model, options_for(BatchPolicy::kPacked, flags));
  const std::int64_t h = engine.hidden();

  auto reqs = make_requests(kLens, static_cast<int>(h));
  const auto expect_reqs = make_requests(kLens, static_cast<int>(h));
  const std::vector<int> order{0, 1, 2, 3, 4};
  const int max_len = 16;
  const auto want = direct_forward(*model, expect_reqs, order, max_len, flags);

  for (auto& r : reqs) engine.submit(std::move(r));
  const auto responses = engine.drain();
  ASSERT_EQ(responses.size(), kLens.size());
  for (std::size_t i = 0; i < responses.size(); ++i) {
    expect_bits_equal(responses[i], want, static_cast<int>(i), max_len, h);
  }
}

TEST(Engine, SortGroupBitMatchesDirectForward) {
  auto model = shared_model();
  const auto flags = core::OptFlags::layernorm_fused();
  const int group_size = 2;
  Engine engine(model, options_for(BatchPolicy::kSortGroup, flags, group_size));
  const std::int64_t h = engine.hidden();

  auto reqs = make_requests(kLens, static_cast<int>(h));
  const auto expect_reqs = make_requests(kLens, static_cast<int>(h));
  for (auto& r : reqs) engine.submit(std::move(r));
  const auto responses = engine.drain();
  ASSERT_EQ(responses.size(), kLens.size());

  // Replicate the scheduler's plan and run each group by hand.
  const auto plan = plan_batch(BatchPolicy::kSortGroup, kLens, group_size);
  for (const MicroBatch& mb : plan.micro) {
    const auto want =
        direct_forward(*model, expect_reqs, mb.indices, mb.max_len, flags);
    for (std::size_t i = 0; i < mb.indices.size(); ++i) {
      const auto& r = responses[static_cast<std::size_t>(mb.indices[i])];
      expect_bits_equal(r, want, static_cast<int>(i), mb.max_len, h);
    }
  }
}

TEST(Engine, PaddedTokenAccountingPerPolicy) {
  auto model = shared_model();
  const std::int64_t h = shared_model()->config().hidden();
  long long valid = 0;
  for (int l : kLens) valid += l;
  const long long grid = static_cast<long long>(kLens.size()) * 16;

  Engine packed(model, options_for(BatchPolicy::kPacked,
                                   core::OptFlags::byte_transformer()));
  Engine pad(model, options_for(BatchPolicy::kPadToMax,
                                core::OptFlags::bias_gelu_fused()));
  Engine grouped(model, options_for(BatchPolicy::kSortGroup,
                                    core::OptFlags::layernorm_fused(), 2));
  for (Engine* e : {&packed, &pad, &grouped}) {
    for (auto& r : make_requests(kLens, static_cast<int>(h))) {
      e->submit(std::move(r));
    }
    e->drain();
    EXPECT_EQ(e->stats().valid_tokens, valid);
  }

  EXPECT_EQ(packed.stats().padding_tokens(), 0);
  EXPECT_EQ(pad.stats().padding_tokens(), grid - valid);
  // Grouping reduces but does not eliminate padding on non-uniform lengths.
  EXPECT_GT(grouped.stats().padding_tokens(), 0);
  EXPECT_LT(grouped.stats().padding_tokens(), pad.stats().padding_tokens());
}

// The paper's 384-token short/long MHA cutoff is a per-sequence choice: a
// short request batched with a long one must run the kernel it runs alone,
// so its bits do not depend on its batch mates. Every fused kernel kind the
// flags accept (causal only for the kinds with a causal long path), under
// every batch policy.
TEST(Engine, ShortRequestBitwiseIndependentOfLongBatchMate) {
  struct Case {
    core::FusedMhaKind kind;
    bool causal;
  };
  const std::vector<Case> cases{
      {core::FusedMhaKind::kDispatch, false},
      {core::FusedMhaKind::kShort, false},
      {core::FusedMhaKind::kLong, false},
      {core::FusedMhaKind::kFlashLike, false},
      {core::FusedMhaKind::kDispatch, true},
      {core::FusedMhaKind::kFlashLike, true},
  };
  const std::int64_t h = shared_model()->config().hidden();
  Rng rng(21);
  const auto short_req = Tensor<fp16_t>::random_normal({100, h}, rng);
  const auto long_req = Tensor<fp16_t>::random_normal({400, h}, rng);
  ASSERT_LE(short_req.dim(0), attn::kShortSeqCutoff);
  ASSERT_GT(long_req.dim(0), attn::kShortSeqCutoff);

  for (const Case& c : cases) {
    core::OptFlags flags = core::OptFlags::byte_transformer();
    flags.fused_kind = c.kind;
    flags.causal = c.causal;
    ASSERT_TRUE(flags.validate().empty());
    for (BatchPolicy policy : {BatchPolicy::kPadToMax, BatchPolicy::kSortGroup,
                               BatchPolicy::kPacked}) {
      SCOPED_TRACE(flags.name() + " " + batch_policy_name(policy));
      Engine alone(shared_model(), options_for(policy, flags));
      alone.submit(short_req.clone());
      const Tensor<fp16_t> want = alone.drain().front().output.clone();

      Engine mixed(shared_model(), options_for(policy, flags));
      mixed.submit(long_req.clone());
      mixed.submit(short_req.clone());
      const std::vector<Response> got = mixed.run_batch();
      ASSERT_EQ(got.size(), 2u);
      ASSERT_EQ(mixed.stats().micro_batches, 1);  // one pass, both members
      ASSERT_EQ(got[1].output.size(), want.size());
      EXPECT_EQ(std::memcmp(got[1].output.data(), want.data(),
                            static_cast<std::size_t>(want.size()) *
                                sizeof(fp16_t)),
                0);
    }
  }
}

TEST(Engine, EmptyQueueIsANoOp) {
  Engine engine(shared_model(),
                options_for(BatchPolicy::kPacked,
                            core::OptFlags::byte_transformer()));
  EXPECT_TRUE(engine.run_batch().empty());
  EXPECT_TRUE(engine.drain().empty());
  EXPECT_EQ(engine.pending(), 0u);
  EXPECT_EQ(engine.stats().batches, 0);
  EXPECT_EQ(engine.stats().requests, 0);
}

TEST(Engine, SingleRequestRoundTrips) {
  Engine engine(shared_model(),
                options_for(BatchPolicy::kPacked,
                            core::OptFlags::byte_transformer()));
  const std::int64_t h = engine.hidden();
  Rng rng(9);
  const RequestId id =
      engine.submit(Tensor<fp16_t>::random_normal({7, h}, rng));
  EXPECT_EQ(engine.pending(), 1u);
  const auto responses = engine.drain();
  ASSERT_EQ(responses.size(), 1u);
  EXPECT_EQ(responses[0].id, id);
  EXPECT_EQ(responses[0].output.dim(0), 7);
  EXPECT_EQ(responses[0].output.dim(1), h);
  EXPECT_EQ(engine.pending(), 0u);
  EXPECT_EQ(engine.stats().padding_tokens(), 0);
  EXPECT_GE(responses[0].compute_seconds, 0.0);
  EXPECT_GE(responses[0].queue_seconds, 0.0);
}

TEST(Engine, RoundsRespectRequestCap) {
  auto opts = options_for(BatchPolicy::kPacked,
                          core::OptFlags::byte_transformer());
  opts.max_batch_requests = 2;
  Engine engine(shared_model(), opts);
  const std::int64_t h = engine.hidden();
  for (auto& r : make_requests(kLens, static_cast<int>(h))) {
    engine.submit(std::move(r));
  }
  const auto responses = engine.drain();
  ASSERT_EQ(responses.size(), kLens.size());
  for (std::size_t i = 0; i < responses.size(); ++i) {
    EXPECT_EQ(responses[i].id, static_cast<RequestId>(i));
    EXPECT_EQ(responses[i].output.dim(0), kLens[i]);
  }
  EXPECT_EQ(engine.stats().batches, 3);  // 2 + 2 + 1
}

TEST(Engine, TokenCapAlwaysAdmitsAtLeastOneRequest) {
  auto opts = options_for(BatchPolicy::kPacked,
                          core::OptFlags::byte_transformer());
  opts.max_batch_tokens = 10;  // smaller than the 16-token request
  Engine engine(shared_model(), opts);
  const std::int64_t h = engine.hidden();
  Rng rng(10);
  engine.submit(Tensor<fp16_t>::random_normal({16, h}, rng));
  engine.submit(Tensor<fp16_t>::random_normal({4, h}, rng));
  const auto first = engine.run_batch();
  ASSERT_EQ(first.size(), 1u);  // the oversized request runs alone
  EXPECT_EQ(first[0].output.dim(0), 16);
  EXPECT_EQ(engine.pending(), 1u);
}

TEST(Engine, RejectsInconsistentOptions) {
  auto model = shared_model();

  core::OptFlags bad = core::OptFlags::byte_transformer();
  bad.zero_padding = false;  // fused MHA needs the packed pipeline
  EXPECT_FALSE(bad.validate().empty());
  EXPECT_THROW(Engine(model, options_for(BatchPolicy::kPadToMax, bad)),
               std::invalid_argument);

  // Packed policy claims zero waste, so it must run the packed pipeline.
  EXPECT_THROW(Engine(model, options_for(BatchPolicy::kPacked,
                                         core::OptFlags::bias_gelu_fused())),
               std::invalid_argument);

  EXPECT_THROW(Engine(model, options_for(BatchPolicy::kSortGroup,
                                         core::OptFlags::layernorm_fused(),
                                         /*group_size=*/0)),
               std::invalid_argument);

  auto opts = options_for(BatchPolicy::kPacked,
                          core::OptFlags::byte_transformer());
  opts.max_batch_requests = 0;
  EXPECT_THROW(Engine(model, opts), std::invalid_argument);

  // 0 means unlimited; a negative cap is an error, not a second spelling.
  opts.max_batch_requests = 8;
  opts.max_batch_tokens = -1;
  EXPECT_THROW(Engine(model, opts), std::invalid_argument);
}

TEST(Engine, DiscardPendingDropsQueueAndBurnsIds) {
  Engine engine(shared_model(),
                options_for(BatchPolicy::kPacked,
                            core::OptFlags::byte_transformer()));
  const std::int64_t h = engine.hidden();
  Rng rng(13);
  const RequestId a = engine.submit(Tensor<fp16_t>::random_normal({3, h}, rng));
  EXPECT_EQ(a, 0);
  const RequestId b = engine.submit(Tensor<fp16_t>::random_normal({5, h}, rng));
  EXPECT_EQ(engine.discard_pending(), 2u);
  EXPECT_EQ(engine.pending(), 0u);
  EXPECT_TRUE(engine.drain().empty());
  // Discarded ids stay burned (never reissued); the engine keeps working
  // for new requests.
  const RequestId c = engine.submit(Tensor<fp16_t>::random_normal({2, h}, rng));
  EXPECT_GT(c, b);
  const auto responses = engine.drain();
  ASSERT_EQ(responses.size(), 1u);
  EXPECT_EQ(responses[0].id, c);
}

TEST(Engine, SubmitRejectsMalformedHidden) {
  Engine engine(shared_model(),
                options_for(BatchPolicy::kPacked,
                            core::OptFlags::byte_transformer()));
  EXPECT_THROW(engine.submit(Tensor<fp16_t>::zeros({4})),
               std::invalid_argument);  // rank 1
  EXPECT_THROW(engine.submit(Tensor<fp16_t>::zeros({0, engine.hidden()})),
               std::invalid_argument);  // zero-length
  EXPECT_THROW(engine.submit(Tensor<fp16_t>::zeros({4, engine.hidden() + 1})),
               std::invalid_argument);  // wrong hidden dim
}

TEST(OptFlags, PresetsValidateAndNamesCarryVariant) {
  using core::OptFlags;
  for (const OptFlags& f :
       {OptFlags::baseline(), OptFlags::layernorm_fused(),
        OptFlags::bias_gelu_fused(), OptFlags::zero_padding_enabled(),
        OptFlags::byte_transformer()}) {
    EXPECT_TRUE(f.validate().empty()) << f.name();
  }
  EXPECT_EQ(OptFlags::baseline().name(), "baseline/batched");
  EXPECT_EQ(OptFlags::zero_padding_enabled().name(),
            "zero-padding/batched-zeropad");
  EXPECT_EQ(OptFlags::byte_transformer().name(), "fused-mha/dispatch");
  core::OptFlags shortk = core::OptFlags::byte_transformer();
  shortk.fused_kind = core::FusedMhaKind::kShort;
  EXPECT_EQ(shortk.name(), "fused-mha/short");
}

}  // namespace
}  // namespace bt::serving
