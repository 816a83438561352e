// Routing: least-outstanding-tokens replica selection with lowest-index
// tie-breaking, sticky session pins, and the policy names the simulator
// reports.
#include <gtest/gtest.h>

#include <vector>

#include "serving/router.h"

namespace bt::serving {
namespace {

std::vector<ReplicaLoad> loads(std::initializer_list<std::pair<int, int>> rs) {
  std::vector<ReplicaLoad> out;
  for (auto [reqs, toks] : rs) {
    out.push_back({static_cast<std::size_t>(reqs), toks});
  }
  return out;
}

constexpr RoutePolicy kPolicies[] = {RoutePolicy::kLeastOutstandingTokens,
                                     RoutePolicy::kStickySession};

// Sessionless requests route the same under both policies.
TEST(Router, LeastOutstandingTokensPicksMinWithLowestIndexTie) {
  for (RoutePolicy p : kPolicies) {
    Router router(p);
    // Request counts are ignored: one replica with many tiny requests can
    // be the right target under variable-length traffic.
    EXPECT_EQ(
        router.pick(loads({{1, 1024}, {8, 64}, {2, 512}}), std::nullopt), 1u)
        << route_policy_name(p);
    EXPECT_EQ(router.pick(loads({{0, 100}, {0, 100}}), std::nullopt), 0u)
        << route_policy_name(p);
    // Unavailable replicas are skipped, however light.
    auto l = loads({{0, 0}, {0, 300}, {0, 200}});
    l[0].available = false;
    EXPECT_EQ(router.pick(l, std::nullopt), 2u) << route_policy_name(p);
  }
}

TEST(Router, SingleReplicaAlwaysPicksZero) {
  for (RoutePolicy p : kPolicies) {
    Router router(p);
    EXPECT_EQ(router.pick(loads({{7, 700}}), std::nullopt), 0u)
        << route_policy_name(p);
    EXPECT_EQ(router.pick(loads({{7, 700}}), "s"), 0u)
        << route_policy_name(p);
  }
}

// ---- sticky sessions --------------------------------------------------------

TEST(Router, StickySessionPinsFirstPickAndFollowsItThereafter) {
  Router router(RoutePolicy::kStickySession);
  // A fresh session routes least-outstanding-tokens (replica 1) and pins.
  EXPECT_EQ(router.pick(loads({{1, 100}, {0, 10}}), "alice"), 1u);
  EXPECT_EQ(router.pinned("alice"), 1u);
  // Follow-ups go to the pin even when the loads now favour replica 0.
  EXPECT_EQ(router.pick(loads({{0, 0}, {9, 9000}}), "alice"), 1u);
  EXPECT_EQ(router.pick(loads({{0, 0}, {9, 9000}}), "alice"), 1u);
  // A different session pins independently, by the current loads.
  EXPECT_EQ(router.pick(loads({{0, 0}, {9, 9000}}), "bob"), 0u);
  EXPECT_EQ(router.pinned("bob"), 0u);
  EXPECT_EQ(router.pinned("alice"), 1u);
}

TEST(Router, StickySessionlessRequestsFallBackToTokensAndNeverPin) {
  Router router(RoutePolicy::kStickySession);
  EXPECT_EQ(router.pick(loads({{0, 500}, {3, 20}}), std::nullopt), 1u);
  EXPECT_EQ(router.pick(loads({{0, 10}, {3, 20}}), std::nullopt), 0u);
  // Sessionless sticky picks, and sessions under kLeastOutstandingTokens,
  // leave no pins.
  EXPECT_FALSE(router.pinned("").has_value());
  Router lot(RoutePolicy::kLeastOutstandingTokens);
  bool pinned_hit = true;
  EXPECT_EQ(lot.pick(loads({{0, 10}, {3, 20}}), "alice", &pinned_hit),
            0u);
  EXPECT_FALSE(pinned_hit);
  EXPECT_EQ(lot.pick(loads({{0, 50}, {3, 20}}), "alice", &pinned_hit),
            1u);
  EXPECT_FALSE(pinned_hit);
  EXPECT_FALSE(lot.pinned("alice").has_value());
}

// The pin map must not grow with every session ever seen: beyond
// kStickyMaxPins the least-recently-routed session is evicted (and simply
// re-pins by load if it ever returns).
TEST(Router, StickyPinsAreBoundedWithLruEviction) {
  Router router(RoutePolicy::kStickySession);
  const auto l = loads({{0, 0}, {0, 1}});
  router.pick(l, "first");
  router.pick(l, "second");
  for (std::size_t i = 2; i < kStickyMaxPins; ++i) {
    router.pick(l, "s" + std::to_string(i));
  }
  ASSERT_TRUE(router.pinned("first").has_value());   // map exactly full
  router.pick(l, "first");     // refresh: "second" is now the LRU
  router.pick(l, "overflow");  // one past capacity: evicts "second"
  EXPECT_TRUE(router.pinned("first").has_value());
  EXPECT_FALSE(router.pinned("second").has_value());
  EXPECT_TRUE(router.pinned("overflow").has_value());
}

TEST(Router, PolicyNames) {
  EXPECT_STREQ(route_policy_name(RoutePolicy::kLeastOutstandingTokens), "lot");
  EXPECT_STREQ(route_policy_name(RoutePolicy::kStickySession), "sticky");
}

}  // namespace
}  // namespace bt::serving
