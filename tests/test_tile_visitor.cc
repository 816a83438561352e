// TileVisitor: the grouped-GEMM scheduler must cover every tile of every
// problem exactly once, for any prefetch width.
#include <gtest/gtest.h>

#include <atomic>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "gemm/tile_visitor.h"

namespace bt::gemm {
namespace {

using Grid = std::pair<std::int64_t, std::int64_t>;

TEST(TileVisitor, TotalTiles) {
  std::vector<Grid> grids{{2, 3}, {1, 1}, {4, 2}};
  TileVisitor v(grids, 32);
  EXPECT_EQ(v.total_tiles(), 6 + 1 + 8);
}

TEST(TileVisitor, LocateMapsGlobalIndices) {
  std::vector<Grid> grids{{2, 3}, {1, 1}, {4, 2}};
  TileVisitor v(grids, 1);
  int cursor = -1;
  // Problem 0 occupies [0, 6): column-major (tile_m fastest), so
  // consecutive tiles share a B column.
  auto t0 = v.locate(0, cursor);
  EXPECT_EQ(t0.problem, 0);
  EXPECT_EQ(t0.tile_m, 0);
  EXPECT_EQ(t0.tile_n, 0);
  auto t1 = v.locate(1, cursor);
  EXPECT_EQ(t1.problem, 0);
  EXPECT_EQ(t1.tile_m, 1);
  EXPECT_EQ(t1.tile_n, 0);
  auto t2 = v.locate(2, cursor);
  EXPECT_EQ(t2.problem, 0);
  EXPECT_EQ(t2.tile_m, 0);
  EXPECT_EQ(t2.tile_n, 1);
  auto t3 = v.locate(3, cursor);
  EXPECT_EQ(t3.problem, 0);
  EXPECT_EQ(t3.tile_m, 1);
  EXPECT_EQ(t3.tile_n, 1);
  auto t5 = v.locate(5, cursor);
  EXPECT_EQ(t5.problem, 0);
  EXPECT_EQ(t5.tile_m, 1);
  EXPECT_EQ(t5.tile_n, 2);
  auto t6 = v.locate(6, cursor);
  EXPECT_EQ(t6.problem, 1);
  EXPECT_EQ(t6.tile_m, 0);
  EXPECT_EQ(t6.tile_n, 0);
  // Problem 2 ({4, 2}) occupies [7, 15): global 10 is the last row of its
  // first column, 11 the top of its second.
  auto t10 = v.locate(10, cursor);
  EXPECT_EQ(t10.problem, 2);
  EXPECT_EQ(t10.tile_m, 3);
  EXPECT_EQ(t10.tile_n, 0);
  auto t11 = v.locate(11, cursor);
  EXPECT_EQ(t11.problem, 2);
  EXPECT_EQ(t11.tile_m, 0);
  EXPECT_EQ(t11.tile_n, 1);
  auto t14 = v.locate(14, cursor);
  EXPECT_EQ(t14.problem, 2);
  EXPECT_EQ(t14.tile_m, 3);
  EXPECT_EQ(t14.tile_n, 1);
}

TEST(TileVisitor, LocateWithColdCursor) {
  std::vector<Grid> grids{{3, 3}, {2, 2}, {5, 1}};
  TileVisitor v(grids, 1);
  // Jump around with a fresh cursor each time (binary search path).
  for (std::int64_t g = v.total_tiles() - 1; g >= 0; --g) {
    int cursor = -1;
    const TileCoord tc = v.locate(g, cursor);
    EXPECT_GE(tc.problem, 0);
    EXPECT_LT(tc.problem, 3);
  }
}

TEST(TileVisitor, ClaimExhaustsExactly) {
  std::vector<Grid> grids{{7, 5}};
  for (std::int64_t prefetch : {1, 2, 32, 100}) {
    TileVisitor v(grids, prefetch);
    std::int64_t covered = 0;
    std::int64_t begin = 0;
    std::int64_t end = 0;
    while (v.claim(begin, end)) covered += end - begin;
    EXPECT_EQ(covered, 35) << "prefetch=" << prefetch;
  }
}

void coverage_test(std::vector<Grid> grids, std::int64_t prefetch,
                   int threads) {
  TileVisitor v(grids, prefetch);
  std::mutex mu;
  std::set<std::tuple<int, std::int64_t, std::int64_t>> seen;
  std::atomic<std::int64_t> count{0};
  std::vector<std::thread> ts;
  for (int t = 0; t < threads; ++t) {
    ts.emplace_back([&] {
      int cursor = -1;
      std::int64_t begin = 0;
      std::int64_t end = 0;
      while (v.claim(begin, end)) {
        for (std::int64_t g = begin; g < end; ++g) {
          const TileCoord tc = v.locate(g, cursor);
          std::lock_guard lock(mu);
          const bool inserted =
              seen.insert({tc.problem, tc.tile_m, tc.tile_n}).second;
          EXPECT_TRUE(inserted) << "duplicate tile";
          ++count;
        }
      }
    });
  }
  for (auto& t : ts) t.join();
  std::int64_t expected = 0;
  for (const auto& [m, n] : grids) expected += m * n;
  EXPECT_EQ(count.load(), expected);
  EXPECT_EQ(static_cast<std::int64_t>(seen.size()), expected);
}

TEST(TileVisitor, MultithreadedCoveragePrefetch1) {
  coverage_test({{4, 4}, {2, 7}, {1, 1}, {9, 3}}, 1, 4);
}

TEST(TileVisitor, MultithreadedCoveragePrefetch32) {
  coverage_test({{4, 4}, {2, 7}, {1, 1}, {9, 3}}, 32, 4);
}

TEST(TileVisitor, RandomProblemSetsProperty) {
  Rng rng(17);
  for (int iter = 0; iter < 20; ++iter) {
    std::vector<Grid> grids;
    const int problems = rng.uniform_int(1, 12);
    for (int p = 0; p < problems; ++p) {
      grids.emplace_back(rng.uniform_int(1, 9), rng.uniform_int(1, 9));
    }
    coverage_test(grids, rng.uniform_int(1, 40), 3);
  }
}

TEST(TileVisitor, PrefetchZeroClampsToOne) {
  std::vector<Grid> grids{{2, 2}};
  TileVisitor v(grids, 0);
  EXPECT_EQ(v.prefetch(), 1);
}

}  // namespace
}  // namespace bt::gemm
