// Fused MHA specifics: tile boundaries, the short/long dispatch cutoff,
// scheduler prefetch invariance, scratch-capacity behaviour, and the
// per-sequence q_start of a packed prefix resume.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "attention/attention.h"
#include "common/rng.h"
#include "parallel/device.h"
#include "tensor/tensor.h"

namespace bt::attn {
namespace {

par::Device& dev() {
  static par::Device d(2);
  return d;
}

struct MhaSetup {
  core::SeqOffsets off;
  Tensor<fp16_t> qkv;
  Tensor<fp16_t> bias;
  int heads;
  int head_size;
  int hidden;

  MhaSetup(std::vector<int> lens, int max_seq, int heads_, int hd,
        std::uint64_t seed = 7) {
    Rng rng(seed);
    heads = heads_;
    head_size = hd;
    hidden = heads * hd;
    off = core::build_seq_offsets(dev(), lens, max_seq);
    qkv = Tensor<fp16_t>::random_normal({off.valid_count, 3 * hidden}, rng);
    bias = Tensor<fp16_t>::random_normal({3 * hidden}, rng, 0.1f);
  }

  PackedMhaArgs args(Tensor<fp16_t>& ctx) {
    return {qkv.data(), bias.data(), ctx.data(), &off, heads, head_size};
  }
};

TEST(FusedShort, SplitSeqLenBoundaries) {
  // Lengths around the kSplitSeqLen = 48 tile boundary must all agree with
  // the long kernel (independent implementation).
  for (int len : {47, 48, 49, 95, 96, 97}) {
    MhaSetup s({len}, len, 2, 32);
    core::Workspace ws;
    auto a = Tensor<fp16_t>::zeros({s.off.valid_count, s.hidden});
    auto b = Tensor<fp16_t>::zeros({s.off.valid_count, s.hidden});
    auto args_a = s.args(a);
    auto args_b = s.args(b);
    mha_fused_short(dev(), args_a, ws);
    mha_fused_long(dev(), args_b, ws);
    EXPECT_LT(max_abs_diff(a, b), 3e-2) << "len=" << len;
  }
}

TEST(FusedShort, SingleTokenSequences) {
  MhaSetup s({1, 1, 1}, 4, 2, 16);
  core::Workspace ws;
  auto ctx = Tensor<fp16_t>::zeros({s.off.valid_count, s.hidden});
  auto args = s.args(ctx);
  mha_fused_short(dev(), args, ws);
  // softmax over a single position is 1, so ctx == V (+bias).
  for (std::int64_t t = 0; t < 3; ++t) {
    for (int j = 0; j < s.hidden; ++j) {
      const float want = load_f32(s.qkv(t, 2 * s.hidden + j)) +
                         load_f32(s.bias.data()[2 * s.hidden + j]);
      EXPECT_NEAR(load_f32(ctx(t, j)), want, 1e-2);
    }
  }
}

TEST(FusedLong, PrefetchWidthsProduceSameResult) {
  MhaSetup s({130, 70, 200}, 200, 2, 32);
  core::Workspace ws;
  auto a = Tensor<fp16_t>::zeros({s.off.valid_count, s.hidden});
  auto b = Tensor<fp16_t>::zeros({s.off.valid_count, s.hidden});
  auto args_a = s.args(a);
  auto args_b = s.args(b);
  mha_fused_long(dev(), args_a, ws, /*scheduler_prefetch=*/1);
  mha_fused_long(dev(), args_b, ws, /*scheduler_prefetch=*/32);
  for (std::int64_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.data()[i].bits(), b.data()[i].bits());
  }
}

TEST(FusedLong, CrossTileSoftmaxCorrectness) {
  // Length > 64 forces multiple column tiles in the partial reduction; the
  // two-pass softmax (partial + full reduce + mainloop normalize) must match
  // the single-pass short kernel.
  MhaSetup s({150}, 150, 1, 32);
  core::Workspace ws;
  auto a = Tensor<fp16_t>::zeros({s.off.valid_count, s.hidden});
  auto b = Tensor<fp16_t>::zeros({s.off.valid_count, s.hidden});
  auto args_a = s.args(a);
  auto args_b = s.args(b);
  mha_fused_long(dev(), args_a, ws);
  mha_fused_short(dev(), args_b, ws);
  EXPECT_LT(max_abs_diff(a, b), 3e-2);
}

TEST(FusedDispatch, UsesShortKernelUpToCutoff) {
  EXPECT_EQ(kShortSeqCutoff, 384);
  // At the cutoff the dispatcher must run (and agree with) the short path.
  MhaSetup s({kShortSeqCutoff}, kShortSeqCutoff, 1, 16);
  core::Workspace ws;
  auto a = Tensor<fp16_t>::zeros({s.off.valid_count, s.hidden});
  auto b = Tensor<fp16_t>::zeros({s.off.valid_count, s.hidden});
  auto args_a = s.args(a);
  auto args_b = s.args(b);
  mha_fused(dev(), args_a, ws);
  mha_fused_short(dev(), args_b, ws);
  for (std::int64_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.data()[i].bits(), b.data()[i].bits());
  }
}

TEST(FusedDispatch, UsesLongKernelPastCutoff) {
  MhaSetup s({kShortSeqCutoff + 16, 100}, kShortSeqCutoff + 16, 1, 16);
  core::Workspace ws;
  auto a = Tensor<fp16_t>::zeros({s.off.valid_count, s.hidden});
  auto b = Tensor<fp16_t>::zeros({s.off.valid_count, s.hidden});
  auto args_a = s.args(a);
  auto args_b = s.args(b);
  mha_fused(dev(), args_a, ws);
  mha_fused_long(dev(), args_b, ws);
  for (std::int64_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.data()[i].bits(), b.data()[i].bits());
  }
}

TEST(FusedShort, ScratchFitsAtCutoffWithBertHeadSize) {
  // The capacity argument behind the 384 cutoff: at head_size 64 the short
  // kernel's arena demand at len=384 fits in 164 KiB, at 448 it does not.
  auto demand = [](int len, int hd) {
    const std::size_t s_kv = static_cast<std::size_t>(len) * hd * sizeof(fp16_t);
    const std::size_t q = static_cast<std::size_t>(kSplitSeqLen) * hd * sizeof(float);
    const std::size_t logits =
        static_cast<std::size_t>(kSplitSeqLen) * len * sizeof(float);
    const std::size_t ctx = static_cast<std::size_t>(kSplitSeqLen) * hd * sizeof(float);
    const std::size_t row_buf = static_cast<std::size_t>(hd) * sizeof(float);
    return s_kv + q + logits + ctx + row_buf;
  };
  EXPECT_LE(demand(384, 64), par::CtaScratch::kDefaultBytes);
  EXPECT_GT(demand(448, 64), par::CtaScratch::kDefaultBytes);

  // fused_short_scratch_bytes is what the kernel really allocates: on an
  // arena of exactly that size every allocation fits (a missed one would
  // fire alloc_or_abort) and the kernel runs instead of falling back, so it
  // matches the default-arena short run bitwise. At head_size 128, P V runs
  // over both 64-column B panels; the grouped-GEMM kernel checks the values.
  EXPECT_LE(fused_short_scratch_bytes(kShortSeqCutoff, 64),
            par::CtaScratch::kDefaultBytes);
  for (const auto& [len, hd] : {std::pair{kShortSeqCutoff, 64}, {200, 128}}) {
    par::Device tight(2, fused_short_scratch_bytes(len, hd));
    if (hd == 64) {
      EXPECT_TRUE(fused_short_regime(tight, len, hd));
    }
    for (const bool causal : {false, true}) {
      MhaSetup s({len, len / 2 + 1, 1}, len, 2, hd);
      core::Workspace ws;
      auto a = Tensor<fp16_t>::zeros({s.off.valid_count, s.hidden});
      auto b = Tensor<fp16_t>::zeros({s.off.valid_count, s.hidden});
      auto c = Tensor<fp16_t>::zeros({s.off.valid_count, s.hidden});
      auto args = s.args(a);
      args.causal = causal;
      mha_fused_short(tight, args, ws);
      args.ctx = b.data();
      mha_fused_short(dev(), args, ws);
      args.ctx = c.data();
      mha_flash_like(dev(), args, ws);
      for (std::int64_t i = 0; i < a.size(); ++i) {
        ASSERT_EQ(a.data()[i].bits(), b.data()[i].bits())
            << "len=" << len << " hd=" << hd << " elem " << i;
      }
      EXPECT_LT(max_abs_diff(a, c), 3e-2) << "len=" << len << " hd=" << hd;
    }
  }
}

// Per-sequence q_start (prefix resume): every computed row is bitwise the
// same row of the q_start = 0 run, lands at its packed suffix row, and no
// other ctx row is written.
TEST(FusedMha, PerSequenceQStartComputesOnlySuffixRowsBitwise) {
  const std::vector<int> lens{60, 100, 97, 130, 200};
  const std::vector<int> q_start{0, 47, 48, 49, 199};  // 199 = len - 1
  const fp16_t sentinel = fp16_t::from_bits(0x7e01);  // a NaN no kernel writes
  using Kernel = void (*)(par::Device&, const PackedMhaArgs&, core::Workspace&);
  const std::pair<const char*, Kernel> kernels[] = {
      {"short", mha_fused_short}, {"flash", mha_flash_like}, {"fused", mha_fused}};
  for (const int hd : {16, 64, 128}) {
    MhaSetup s(lens, 200, 2, hd, /*seed=*/31);
    std::int64_t suffix_rows = 0;
    for (std::size_t b = 0; b < lens.size(); ++b) suffix_rows += lens[b] - q_start[b];
    for (const auto& [name, kernel] : kernels) {
      core::Workspace ws;
      auto full = Tensor<fp16_t>::zeros({s.off.valid_count, s.hidden});
      auto args = s.args(full);
      args.causal = true;
      kernel(dev(), args, ws);

      // Rows past the suffix block must stay untouched.
      Tensor<fp16_t> part({s.off.valid_count, s.hidden});
      std::fill(part.data(), part.data() + part.size(), sentinel);
      args.ctx = part.data();
      args.q_start = q_start;
      kernel(dev(), args, ws);

      std::int64_t row = 0;
      for (std::size_t b = 0; b < lens.size(); ++b) {
        for (int t = q_start[b]; t < lens[b]; ++t, ++row) {
          const std::int64_t src = s.off.batch_offset[b] + t;
          for (int j = 0; j < s.hidden; ++j) {
            ASSERT_EQ(part(row, j).bits(), full(src, j).bits())
                << name << " hd=" << hd << " seq " << b << " row " << t;
          }
        }
      }
      ASSERT_EQ(row, suffix_rows);
      for (std::int64_t i = suffix_rows * s.hidden; i < part.size(); ++i) {
        ASSERT_EQ(part.data()[i].bits(), sentinel.bits())
            << name << " hd=" << hd << " wrote past the suffix block";
      }
    }
  }
}

TEST(FusedLong, ManyHeadsManyBatches) {
  MhaSetup s({40, 90, 10, 65}, 90, 4, 16);
  core::Workspace ws;
  auto a = Tensor<fp16_t>::zeros({s.off.valid_count, s.hidden});
  auto b = Tensor<fp16_t>::zeros({s.off.valid_count, s.hidden});
  auto args_a = s.args(a);
  auto args_b = s.args(b);
  mha_fused_long(dev(), args_a, ws);
  mha_flash_like(dev(), args_b, ws);
  EXPECT_LT(max_abs_diff(a, b), 3e-2);
}

TEST(FusedMha, WorkspaceReuseAcrossCallsIsSafe) {
  // Two different problem sizes through the same workspace: the second
  // (smaller) must not read stale state from the first.
  core::Workspace ws;
  MhaSetup big({120, 100}, 120, 2, 32, /*seed=*/21);
  auto ctx_big = Tensor<fp16_t>::zeros({big.off.valid_count, big.hidden});
  auto args_big = big.args(ctx_big);
  mha_fused_long(dev(), args_big, ws);

  MhaSetup small({30}, 30, 2, 32, /*seed=*/22);
  auto ctx1 = Tensor<fp16_t>::zeros({small.off.valid_count, small.hidden});
  auto ctx2 = Tensor<fp16_t>::zeros({small.off.valid_count, small.hidden});
  core::Workspace fresh;
  auto args1 = small.args(ctx1);
  auto args2 = small.args(ctx2);
  mha_fused_long(dev(), args1, ws);     // reused workspace
  mha_fused_long(dev(), args2, fresh);  // fresh workspace
  for (std::int64_t i = 0; i < ctx1.size(); ++i) {
    EXPECT_EQ(ctx1.data()[i].bits(), ctx2.data()[i].bits());
  }
}

// A micro-batch assembled from per-sequence QKV blocks, each drawn from its
// own seed, so one sequence's rows are identical in every composition.
struct Composition {
  core::SeqOffsets off;
  Tensor<fp16_t> qkv;
  Tensor<fp16_t> bias;
  Tensor<fp16_t> ctx;
  int hidden;

  Composition(const std::vector<std::pair<int, std::uint64_t>>& seqs,
              int heads, int hd) {
    hidden = heads * hd;
    std::vector<int> lens;
    int max_seq = 0;
    for (const auto& [len, seed] : seqs) {
      lens.push_back(len);
      max_seq = std::max(max_seq, len);
    }
    off = core::build_seq_offsets(dev(), lens, max_seq);
    qkv = Tensor<fp16_t>({off.valid_count, 3 * hidden});
    std::int64_t row = 0;
    for (const auto& [len, seed] : seqs) {
      Rng rng(seed);
      auto block = Tensor<fp16_t>::random_normal({len, 3 * hidden}, rng);
      std::copy(block.data(), block.data() + block.size(),
                qkv.data() + row * 3 * hidden);
      row += len;
    }
    Rng bias_rng(99);
    bias = Tensor<fp16_t>::random_normal({3 * hidden}, bias_rng, 0.1f);
    ctx = Tensor<fp16_t>::zeros({off.valid_count, hidden});
    core::Workspace ws;
    PackedMhaArgs args{qkv.data(), bias.data(), ctx.data(), &off, heads, hd};
    mha_fused(dev(), args, ws);
  }

  // Context rows of the sequence at batch index b.
  std::vector<fp16_t> rows_of(int b) const {
    const std::int64_t r0 = off.batch_offset[static_cast<std::size_t>(b)];
    const std::int64_t len = off.seq_lens[static_cast<std::size_t>(b)];
    return {ctx.data() + r0 * hidden, ctx.data() + (r0 + len) * hidden};
  }
};

TEST(FusedDispatch, CompositionIndependentWithinRegimeOnly) {
  // A request's output does not depend on what it is batched with — as
  // long as the micro-batch stays in the same kernel regime. Sharing a
  // micro-batch with a sequence over kShortSeqCutoff moves every member to
  // the long kernel, whose softmax rounds differently: across the boundary
  // only FP tolerance holds.
  const int heads = 2;
  const int hd = 32;
  const std::pair<int, std::uint64_t> x{100, 5};  // the request under test
  const Composition alone({x}, heads, hd);
  const Composition short_mix({{60, 11}, x, {300, 12}}, heads, hd);
  const Composition long_a({x, {kShortSeqCutoff + 66, 13}}, heads, hd);
  const Composition long_b({{200, 14}, {kShortSeqCutoff + 116, 15}, x}, heads,
                           hd);

  const std::vector<fp16_t> ref_short = alone.rows_of(0);
  const std::vector<fp16_t> ref_long = long_a.rows_of(0);
  const std::vector<fp16_t> got_short = short_mix.rows_of(1);
  const std::vector<fp16_t> got_long = long_b.rows_of(2);
  ASSERT_EQ(ref_short.size(), got_short.size());
  ASSERT_EQ(ref_long.size(), got_long.size());
  double cross = 0.0;
  for (std::size_t i = 0; i < ref_short.size(); ++i) {
    EXPECT_EQ(got_short[i].bits(), ref_short[i].bits()) << "short elem " << i;
    EXPECT_EQ(got_long[i].bits(), ref_long[i].bits()) << "long elem " << i;
    cross = std::max(cross, std::fabs(static_cast<double>(ref_long[i]) -
                                      static_cast<double>(ref_short[i])));
  }
  EXPECT_LT(cross, 3e-2);
}

}  // namespace
}  // namespace bt::attn
