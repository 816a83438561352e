// The shared-workspace contract: an Engine runs every round — one session,
// mixed sessions, no session — on its one grow-only Workspace, so once it
// has served the largest round geometry it never allocates again, however
// many sessions come and go. EngineStats::workspace_allocations is the
// observable.
#include <gtest/gtest.h>

#include <future>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "core/model.h"
#include "serving/engine.h"
#include "serving/service.h"
#include "tensor/tensor.h"

namespace bt::serving {
namespace {

core::BertConfig tiny_config() {
  core::BertConfig cfg;
  cfg.layers = 2;
  cfg.heads = 2;
  cfg.head_size = 16;
  return cfg;
}

std::shared_ptr<const core::BertModel> shared_model() {
  static std::shared_ptr<const core::BertModel> model = [] {
    Rng rng(913);
    return std::make_shared<const core::BertModel>(
        core::BertModel::random(tiny_config(), rng));
  }();
  return model;
}

Request make_request(std::int64_t hidden, int len,
                     std::optional<std::string> session, Rng& rng) {
  Request req;
  req.hidden = Tensor<fp16_t>::random_normal({len, hidden}, rng);
  req.session = std::move(session);
  return req;
}

TEST(SharedWorkspace, EngineRoundOfKnownGeometryAllocatesNothing) {
  EngineOptions opts;
  opts.threads = 2;
  Engine engine(shared_model(), opts);
  Rng rng(21);

  engine.submit(make_request(engine.hidden(), 10, "a", rng));
  const auto first = engine.run_batch();
  ASSERT_EQ(first.size(), 1u);
  ASSERT_TRUE(first[0].session.has_value());  // provenance echoes the session
  EXPECT_EQ(*first[0].session, "a");
  const long long warm = engine.stats().workspace_allocations;
  EXPECT_GT(warm, 0);

  // Same geometry under the same session, a new session and no session:
  // all three rounds reuse the buffers the first one sized.
  for (std::optional<std::string> session :
       {std::optional<std::string>("a"), std::optional<std::string>("b"),
        std::optional<std::string>()}) {
    engine.submit(make_request(engine.hidden(), 10, session, rng));
    const auto round = engine.run_batch();
    ASSERT_EQ(round.size(), 1u);
    EXPECT_EQ(round[0].session, session);
    EXPECT_EQ(engine.stats().workspace_allocations, warm);
  }
}

// Sticky-routed Service, 2 replicas, rounds of up to kCap requests. Every
// round below is made full on purpose, so it dispatches at once and the
// long batching window never expires: a "ballast" session pinned to one
// replica queues kCap - 1 requests of kMaxLen tokens there, which makes the
// other replica the least loaded, so every new session and sessionless
// request of the step lands on it; the ballast's last request then fills
// its own round.
constexpr int kCap = 4;
constexpr int kMaxLen = 24;  // ballast and warm-up length; others are shorter

class StickyService {
 public:
  StickyService() : service_(make_registry()) {
    hidden_ = service_.pool("m").hidden();
  }

  Service& service() { return service_; }

  // One step: the kCap `items` (session or none, length < kMaxLen) fill a
  // round on the replica `ballast` is NOT pinned to. Returns the responses,
  // items first, then the ballast's kCap.
  std::vector<Response> step(
      const std::string& ballast,
      const std::vector<std::pair<std::optional<std::string>, int>>& items) {
    std::vector<std::future<Response>> futures;
    for (int i = 0; i + 1 < kCap; ++i) {
      futures.push_back(submit(ballast, kMaxLen));
    }
    std::vector<std::future<Response>> item_futures;
    for (const auto& [session, len] : items) {
      item_futures.push_back(submit(session, len));
    }
    futures.push_back(submit(ballast, kMaxLen));
    std::vector<Response> out;
    for (auto& f : item_futures) out.push_back(f.get());
    for (auto& f : futures) out.push_back(f.get());
    return out;
  }

 private:
  static ModelRegistry make_registry() {
    EnginePoolOptions opts;
    opts.engine.engine.max_batch_requests = kCap;
    opts.engine.max_wait_seconds = 5.0;  // only ever cut short by full rounds
    opts.replicas = 2;
    opts.route = RoutePolicy::kStickySession;
    opts.threads_per_replica = 1;
    ModelRegistry registry;
    registry.add("m", shared_model(), opts);
    return registry;
  }

  std::future<Response> submit(std::optional<std::string> session, int len) {
    return service_.submit(
        make_request(hidden_, len, std::move(session), rng_));
  }

  Service service_;
  std::int64_t hidden_ = 0;
  Rng rng_{22};
};

void expect_one_round(const std::vector<Response>& rs, std::size_t begin,
                      int replica) {
  for (std::size_t i = begin; i < begin + kCap; ++i) {
    EXPECT_EQ(rs[i].replica, replica) << i;
    EXPECT_EQ(rs[i].round, rs[begin].round) << i;
  }
}

// After one warm-up round per replica at the largest geometry (kCap x
// kMaxLen), 32 new sessions run single-session, mixed and sessionless
// rounds. None of them may allocate: a session costs the replica no memory.
TEST(SharedWorkspace, StickyServiceNewSessionsNeverAllocateAfterWarmup) {
  StickyService fleet;
  Service& service = fleet.service();

  // Warm-up: "w0" pins replica 0 (ties go to the lowest index) and queues
  // kCap - 1 requests there; "w1" then pins the idle replica 1 and fills a
  // full round of its own. Both rounds are kCap x kMaxLen.
  const std::vector<Response> warm = fleet.step(
      "w0", std::vector<std::pair<std::optional<std::string>, int>>(
                kCap, {"w1", kMaxLen}));
  expect_one_round(warm, 0, 1);
  expect_one_round(warm, kCap, 0);
  const long long warm_allocs = service.stats().workspace_allocations;
  EXPECT_GT(warm_allocs, 0);

  int next = 0;
  const auto fresh = [&] { return "s" + std::to_string(next++); };
  for (int cycle = 0; cycle < 8; ++cycle) {
    const int target = cycle % 2;
    const std::string ballast = target == 0 ? "w1" : "w0";
    // Single-session round: one new session, kCap turns.
    const std::string solo = fresh();
    // Mixed round: three new sessions and one sessionless request.
    const std::string m1 = fresh(), m2 = fresh(), m3 = fresh();
    const std::vector<std::vector<std::pair<std::optional<std::string>, int>>>
        rounds = {
            {{solo, 9}, {solo, 20}, {solo, 13}, {solo, 5}},
            {{m1, 17}, {std::nullopt, 6}, {m2, 20}, {m3, 11}},
            {{std::nullopt, 20}, {std::nullopt, 7}, {std::nullopt, 15},
             {std::nullopt, 19}},
        };
    for (const auto& items : rounds) {
      const std::vector<Response> rs = fleet.step(ballast, items);
      expect_one_round(rs, 0, target);
      expect_one_round(rs, kCap, 1 - target);
      EXPECT_EQ(service.stats().workspace_allocations, warm_allocs)
          << "cycle " << cycle << " allocated";
    }
  }
  EXPECT_EQ(service.pool("m").pinned_replica("s0"), 0u);
  EXPECT_EQ(service.pool("m").pinned_replica("s4"), 1u);
}

}  // namespace
}  // namespace bt::serving
