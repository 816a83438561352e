// Request generation, batching policies, and the batch scheduler.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <span>
#include <vector>

#include "serving/request_gen.h"
#include "serving/scheduler.h"

namespace bt::serving {
namespace {

TEST(RequestGen, LengthsWithinBounds) {
  Rng rng(201);
  for (double alpha : {0.1, 0.3, 0.5, 0.6, 0.9, 1.0}) {
    const auto lens = gen_lengths(1000, 128, alpha, rng);
    for (int l : lens) {
      EXPECT_GE(l, 1);
      EXPECT_LE(l, 128);
    }
  }
}

TEST(RequestGen, MeanTracksAlpha) {
  Rng rng(202);
  for (double alpha : {0.2, 0.4, 0.6, 0.8}) {
    const auto lens = gen_lengths(20000, 256, alpha, rng);
    double mean = 0;
    for (int l : lens) mean += l;
    mean /= static_cast<double>(lens.size());
    EXPECT_NEAR(mean / 256.0, alpha, 0.03) << "alpha=" << alpha;
  }
}

TEST(RequestGen, AlphaOneIsAllMax) {
  Rng rng(203);
  const auto lens = gen_lengths(100, 64, 1.0, rng);
  for (int l : lens) EXPECT_EQ(l, 64);
}

TEST(RequestGen, ArrivalsAreMonotone) {
  Rng rng(204);
  const auto t = gen_arrivals(500, 100.0, rng);
  for (std::size_t i = 1; i < t.size(); ++i) {
    EXPECT_GT(t[i], t[i - 1]);
  }
  // Mean inter-arrival ~ 1/rate.
  EXPECT_NEAR(t.back() / 500.0, 0.01, 0.004);
}

// kSortGroup geometry: plan_batch sorts by descending length and chunks
// into micro-batches of at most group_size, each padded to its own max.
BatchPlan sort_group(std::span<const int> lens, int group_size) {
  return plan_batch(BatchPolicy::kSortGroup, lens, group_size,
                    /*packed=*/false);
}

TEST(Batching, GroupsRespectSizeAndOrder) {
  const std::vector<int> lens{5, 30, 12, 64, 8, 40, 22, 3};
  const auto groups = sort_group(lens, 3).micro;
  EXPECT_EQ(groups.size(), 3u);
  EXPECT_EQ(groups[0].indices.size(), 3u);
  EXPECT_EQ(groups[2].indices.size(), 2u);
  // First group holds the longest requests; its pad target is the global max.
  EXPECT_EQ(groups[0].max_len, 64);
  // Groups are sorted descending: later groups have smaller pad targets.
  EXPECT_GE(groups[0].max_len, groups[1].max_len);
  EXPECT_GE(groups[1].max_len, groups[2].max_len);
  // Every index appears exactly once.
  std::vector<int> all;
  for (const auto& g : groups) {
    all.insert(all.end(), g.indices.begin(), g.indices.end());
  }
  std::sort(all.begin(), all.end());
  for (int i = 0; i < 8; ++i) EXPECT_EQ(all[static_cast<std::size_t>(i)], i);
}

TEST(Batching, GroupSizeZeroMeansPadToMax) {
  const std::vector<int> lens{5, 30, 12};
  const auto plan = sort_group(lens, 0);
  ASSERT_EQ(plan.micro.size(), 1u);
  EXPECT_EQ(plan.micro[0].max_len, 30);
  EXPECT_EQ(plan.processed_tokens, 3 * 30);
}

TEST(Batching, GroupingReducesPaddedTokens) {
  Rng rng(205);
  const auto lens = gen_lengths(64, 512, 0.5, rng);
  const auto one = sort_group(lens, 0);
  const auto grouped = sort_group(lens, 8);
  long long valid = 0;
  for (int l : lens) valid += l;
  EXPECT_LT(grouped.processed_tokens, one.processed_tokens);
  // But grouping never reaches the packed (zero-waste) level for non-uniform
  // lengths.
  EXPECT_GT(grouped.processed_tokens, valid);
}

TEST(Batching, SingleRequestGroup) {
  const std::vector<int> lens{17};
  const auto plan = sort_group(lens, 4);
  ASSERT_EQ(plan.micro.size(), 1u);
  EXPECT_EQ(plan.micro[0].max_len, 17);
  EXPECT_EQ(plan.processed_tokens, 17);
}

TEST(Batching, EmptyLengthsYieldNoGroups) {
  const std::vector<int> lens;
  EXPECT_TRUE(sort_group(lens, 4).micro.empty());
  EXPECT_TRUE(sort_group(lens, 0).micro.empty());
  EXPECT_EQ(sort_group(lens, 4).processed_tokens, 0);
}

TEST(Batching, NonPositiveGroupSizeMeansOneGroup) {
  const std::vector<int> lens{9, 2, 5, 7};
  for (int gs : {0, -1, -100}) {
    const auto groups = sort_group(lens, gs).micro;
    ASSERT_EQ(groups.size(), 1u) << "group_size=" << gs;
    EXPECT_EQ(groups[0].indices.size(), lens.size());
    EXPECT_EQ(groups[0].max_len, 9);
  }
}

TEST(Batching, AllEqualLengthsGroupWithoutPadding) {
  const std::vector<int> lens(8, 7);
  const auto plan = sort_group(lens, 3);
  ASSERT_EQ(plan.micro.size(), 3u);  // 3 + 3 + 2
  long long valid = 0;
  for (int l : lens) valid += l;
  for (const auto& g : plan.micro) EXPECT_EQ(g.max_len, 7);
  // Uniform lengths are the one case where grouping reaches zero waste.
  EXPECT_EQ(plan.processed_tokens, valid);
}

TEST(RequestGen, ArrivalsMeanInterArrivalMatchesRate) {
  Rng rng(206);
  for (double rate : {50.0, 400.0}) {
    const int n = 4000;
    const auto t = gen_arrivals(n, rate, rng);
    // Mean inter-arrival ~ 1/rate (t.back() is the sum of n exponentials).
    EXPECT_NEAR(t.back() / n, 1.0 / rate, 0.1 / rate) << "rate=" << rate;
    // Exponential inter-arrivals: coefficient of variation ~ 1.
    std::vector<double> gaps;
    gaps.push_back(t.front());
    for (std::size_t i = 1; i < t.size(); ++i) gaps.push_back(t[i] - t[i - 1]);
    const double mean = t.back() / n;
    double var = 0;
    for (double g : gaps) var += (g - mean) * (g - mean);
    var /= static_cast<double>(gaps.size());
    EXPECT_NEAR(std::sqrt(var) / mean, 1.0, 0.15) << "rate=" << rate;
  }
}

TEST(Batching, EqualLengthTiesKeepSubmissionOrder) {
  // Regression: the kSortGroup grouping used std::sort with a length-only
  // comparator, leaving equal-length requests in implementation-defined
  // order — micro-batch composition was not reproducible across platforms.
  // stable_sort ties break by ascending index.
  const std::vector<int> lens{8, 16, 8, 4, 16, 8, 4, 16};
  const auto groups = sort_group(lens, 3).micro;
  ASSERT_EQ(groups.size(), 3u);
  EXPECT_EQ(groups[0].indices, (std::vector<int>{1, 4, 7}));  // the 16s
  EXPECT_EQ(groups[1].indices, (std::vector<int>{0, 2, 5}));  // the 8s
  EXPECT_EQ(groups[2].indices, (std::vector<int>{3, 6}));     // the 4s
}

TEST(Batching, GroupingIsDeterministicAcrossCalls) {
  Rng rng(207);
  auto lens = gen_lengths(128, 64, 0.6, rng);
  // Force many ties so the tie-break actually matters.
  for (std::size_t i = 0; i < lens.size(); ++i) {
    lens[i] = 1 + lens[i] % 7;
  }
  const auto first = sort_group(lens, 5);
  for (int repeat = 0; repeat < 4; ++repeat) {
    const auto again = sort_group(lens, 5);
    ASSERT_EQ(again.micro.size(), first.micro.size());
    for (std::size_t g = 0; g < first.micro.size(); ++g) {
      EXPECT_EQ(again.micro[g].indices, first.micro[g].indices)
          << "group " << g;
      EXPECT_EQ(again.micro[g].max_len, first.micro[g].max_len);
    }
    EXPECT_EQ(again.processed_tokens, first.processed_tokens);
  }
}

TEST(Scheduler, PadToMaxPlanIsOneGridShapedMicroBatch) {
  const std::vector<int> lens{12, 3, 8, 16, 5};
  const auto plan = plan_batch(BatchPolicy::kPadToMax, lens, 0, /*packed=*/false);
  ASSERT_EQ(plan.micro.size(), 1u);
  EXPECT_FALSE(plan.micro[0].packed);
  EXPECT_EQ(plan.micro[0].max_len, 16);
  EXPECT_EQ(plan.valid_tokens, 44);
  EXPECT_EQ(plan.processed_tokens, 5 * 16);
  EXPECT_EQ(plan.padding_tokens(), 5 * 16 - 44);
}

TEST(Scheduler, PackedPlanHasZeroPaddingTokens) {
  const std::vector<int> lens{12, 3, 8, 16, 5};
  const auto plan = plan_batch(BatchPolicy::kPacked, lens, 0, /*packed=*/true);
  ASSERT_EQ(plan.micro.size(), 1u);
  EXPECT_TRUE(plan.micro[0].packed);
  EXPECT_EQ(plan.processed_tokens, plan.valid_tokens);
  EXPECT_EQ(plan.padding_tokens(), 0);
}

TEST(Scheduler, SortGroupPlanMatchesGrouping) {
  const std::vector<int> lens{12, 3, 8, 16, 5};
  const auto plan = plan_batch(BatchPolicy::kSortGroup, lens, 2, /*packed=*/false);
  ASSERT_EQ(plan.micro.size(), 3u);  // 2 + 2 + 1, sorted descending
  EXPECT_EQ(plan.micro[0].max_len, 16);
  EXPECT_GE(plan.micro[0].max_len, plan.micro[1].max_len);
  EXPECT_GE(plan.micro[1].max_len, plan.micro[2].max_len);
  // Padded total: each micro-batch's size times its pad target, minus the
  // 44 valid tokens — {16, 12} -> 2*16, {8, 5} -> 2*8, {3} -> 1*3.
  EXPECT_EQ(plan.padding_tokens(), 2 * 16 + 2 * 8 + 1 * 3 - 44);
  // Every request appears exactly once across micro-batches.
  std::vector<int> all;
  for (const auto& mb : plan.micro) {
    all.insert(all.end(), mb.indices.begin(), mb.indices.end());
  }
  std::sort(all.begin(), all.end());
  for (int i = 0; i < 5; ++i) EXPECT_EQ(all[static_cast<std::size_t>(i)], i);
}

TEST(Scheduler, EmptyLengthsYieldEmptyPlan) {
  for (auto policy : {BatchPolicy::kPadToMax, BatchPolicy::kSortGroup,
                      BatchPolicy::kPacked}) {
    const auto plan = plan_batch(policy, {}, 4, /*packed=*/false);
    EXPECT_TRUE(plan.micro.empty());
    EXPECT_EQ(plan.valid_tokens, 0);
    EXPECT_EQ(plan.processed_tokens, 0);
  }
}

}  // namespace
}  // namespace bt::serving
