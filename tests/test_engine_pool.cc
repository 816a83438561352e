// EnginePool: per-request bitwise equivalence with a single AsyncEngine for
// every batching policy under concurrent submitters, one shared
// ModelWeights/PackedPanels copy across replicas (packed exactly once),
// deterministic routing, pool-wide id contract, aggregated stats, and
// shutdown semantics.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <future>
#include <memory>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common/fault.h"
#include "core/model.h"
#include "serving/pool.h"
#include "tensor/tensor.h"

// mallinfo2 (glibc >= 2.33) sees the real heap; sanitizers replace the
// allocator, so the heap-growth regression test skips under them.
#if defined(__GLIBC__) && !defined(__SANITIZE_ADDRESS__) && \
    !defined(__SANITIZE_THREAD__)
#if __GLIBC_PREREQ(2, 33)
#include <malloc.h>
#define BT_HEAP_PROBE 1
#endif
#endif

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
    Rng rng(4242);
    return std::make_shared<const core::BertModel>(
        core::BertModel::random(tiny_config(), rng));
  }();
  return model;
}

struct PolicyCase {
  BatchPolicy policy;
  core::OptFlags flags;
  int group_size;
};

std::vector<PolicyCase> all_policies() {
  return {
      {BatchPolicy::kPadToMax, core::OptFlags::bias_gelu_fused(), 0},
      {BatchPolicy::kSortGroup, core::OptFlags::layernorm_fused(), 2},
      {BatchPolicy::kPacked, core::OptFlags::byte_transformer(), 0},
  };
}

EnginePoolOptions pool_options(const PolicyCase& pc, int replicas,
                               RoutePolicy route, int max_batch_requests,
                               double max_wait_seconds) {
  EnginePoolOptions opts;
  opts.engine.engine.policy = pc.policy;
  opts.engine.engine.flags = pc.flags;
  opts.engine.engine.group_size = pc.group_size > 0 ? pc.group_size : 4;
  opts.engine.engine.max_batch_requests = max_batch_requests;
  opts.engine.max_wait_seconds = max_wait_seconds;
  opts.replicas = replicas;
  opts.route = route;
  opts.threads_per_replica = 1;
  return opts;
}

void expect_bits_equal(const Tensor<fp16_t>& got, const Tensor<fp16_t>& want) {
  ASSERT_EQ(got.rank(), 2);
  ASSERT_EQ(got.dim(0), want.dim(0));
  ASSERT_EQ(got.dim(1), want.dim(1));
  for (std::int64_t s = 0; s < got.dim(0); ++s) {
    for (std::int64_t j = 0; j < got.dim(1); ++j) {
      ASSERT_EQ(got(s, j).bits(), want(s, j).bits())
          << "row " << s << " col " << j;
    }
  }
}

// ---- shared weights ---------------------------------------------------------

TEST(EnginePool, ReplicasShareOneWeightsAndPackedPanelsCopy) {
  EnginePoolOptions opts =
      pool_options(all_policies()[2], /*replicas=*/3,
                   RoutePolicy::kLeastOutstandingTokens, 8, 0.0);
  EnginePool pool(shared_model(), opts);
  ASSERT_EQ(pool.replicas(), 3u);

  const core::ModelWeights* canonical = pool.model().weights_ptr().get();
  const float* canonical_panel =
      canonical->layer(0).packed.qkv.panel(0, 0);
  ASSERT_TRUE(canonical->layer(0).packed.ready);
  for (std::size_t i = 0; i < pool.replicas(); ++i) {
    // Same ModelWeights object and the same physical PackedB storage: the
    // pool replicates schedulers and workspaces, never weights or panels.
    EXPECT_EQ(pool.replica(i).model().weights_ptr().get(), canonical);
    EXPECT_EQ(&pool.replica(i).model().weights(), canonical);
    EXPECT_EQ(pool.replica(i).model().weights().layer(0).packed.qkv.panel(0, 0),
              canonical_panel);
  }
  pool.stop();
}

TEST(EnginePool, SharedWeightsArePackedExactlyOnce) {
  Rng rng(77);
  auto weights = std::make_shared<core::ModelWeights>(
      core::ModelWeights::random(tiny_config(), rng));
  ASSERT_FALSE(weights->layers.front().packed.ready);

  core::BertModel first(weights);  // packs here
  ASSERT_TRUE(weights->layers.front().packed.ready);
  const float* panel_storage = weights->layers.front().packed.qkv.panel(0, 0);

  // A second model over the same weights must not re-pack: pack_panels
  // reports zero newly packed layers and the panel storage is untouched.
  EXPECT_EQ(weights->pack_panels(), 0u);
  core::BertModel second(weights);
  EXPECT_EQ(weights->layers.front().packed.qkv.panel(0, 0), panel_storage);
  EXPECT_EQ(first.weights_ptr().get(), second.weights_ptr().get());
}

// ---- bitwise equivalence ----------------------------------------------------

// The serving guarantee replication must not break: a request's output is a
// function of its content and the model only — not of the replica it landed
// on or the round composition there. Several submitter threads race into a
// 2-replica pool; every output must bit-match the same request served by a
// single AsyncEngine.
TEST(EnginePool, BitMatchesSingleAsyncEnginePerPolicyUnderConcurrentSubmitters) {
  constexpr int kThreads = 3;
  constexpr int kPerThread = 4;
  constexpr int kTotal = kThreads * kPerThread;
  const std::int64_t h = shared_model()->config().hidden();

  for (const PolicyCase& pc : all_policies()) {
    EnginePool pool(shared_model(),
                    pool_options(pc, /*replicas=*/2,
                                 RoutePolicy::kLeastOutstandingTokens,
                                 /*max_batch_requests=*/4,
                                 /*max_wait=*/0.0005));

    std::vector<Tensor<fp16_t>> inputs(kTotal);
    std::vector<std::future<Response>> futures(kTotal);
    std::vector<std::thread> submitters;
    for (int t = 0; t < kThreads; ++t) {
      submitters.emplace_back([&, t] {
        for (int j = 0; j < kPerThread; ++j) {
          const std::size_t slot =
              static_cast<std::size_t>(t * kPerThread + j);
          const int len = 2 + 3 * (static_cast<int>(slot) % 5);
          Rng rng(1000 + t * 100 + j);
          auto hidden = Tensor<fp16_t>::random_normal({len, h}, rng);
          inputs[slot] = hidden.clone();
          futures[slot] = pool.submit(Request{std::move(hidden)});
        }
      });
    }
    for (auto& s : submitters) s.join();

    // Reference: the identical request contents served by one AsyncEngine,
    // its futures indexed by slot.
    AsyncEngineOptions single = pool.options().engine;
    AsyncEngine reference(shared_model(), single);
    std::vector<std::future<Response>> want(kTotal);
    for (int slot = 0; slot < kTotal; ++slot) {
      want[static_cast<std::size_t>(slot)] =
          reference.submit(inputs[static_cast<std::size_t>(slot)].clone());
    }

    for (int slot = 0; slot < kTotal; ++slot) {
      Response got = futures[static_cast<std::size_t>(slot)].get();
      Response ref = want[static_cast<std::size_t>(slot)].get();
      expect_bits_equal(got.output, ref.output);
    }
    pool.stop();
    reference.stop();
    EXPECT_EQ(pool.stats().requests, kTotal);
    EXPECT_EQ(pool.pending(), 0u);
  }
}

// ---- routing ----------------------------------------------------------------

// Held-open windows keep every routed request outstanding, so the
// join-shortest-queue decisions are fully deterministic.
TEST(EnginePool, LeastOutstandingRoutingBalancesLoad) {
  const std::int64_t h = shared_model()->config().hidden();
  Rng rng(66);

  // Balances rows, not request counts.
  EnginePool pool(shared_model(),
                  pool_options(all_policies()[2], 2,
                               RoutePolicy::kLeastOutstandingTokens, 8,
                               /*max_wait=*/30.0));
  auto a = pool.submit(Tensor<fp16_t>::random_normal({5, h}, rng));  // 0 (tie)
  auto b = pool.submit(Tensor<fp16_t>::random_normal({3, h}, rng));  // 1 (0<5)
  auto c = pool.submit(Tensor<fp16_t>::random_normal({1, h}, rng));  // 1 (3<5)
  auto d = pool.submit(Tensor<fp16_t>::random_normal({2, h}, rng));  // 1 (4<5)
  auto e = pool.submit(Tensor<fp16_t>::random_normal({9, h}, rng));  // 0 (5<6)
  pool.stop();
  a.get(); b.get(); c.get(); d.get(); e.get();
  const auto rs = pool.replica_stats();
  EXPECT_EQ(rs[0].routed_requests, 2);
  EXPECT_EQ(rs[0].routed_tokens, 5 + 9);
  EXPECT_EQ(rs[1].routed_requests, 3);
  EXPECT_EQ(rs[1].routed_tokens, 3 + 1 + 2);
  EXPECT_EQ(rs[0].peak_outstanding, 2u);  // e saw a still outstanding
  EXPECT_EQ(rs[1].peak_outstanding, 3u);  // d saw b and c
  // Routed == served: each replica's engine accounting agrees.
  EXPECT_EQ(rs[0].engine.requests, 2);
  EXPECT_EQ(rs[1].engine.requests, 3);
  EXPECT_EQ(rs[0].engine.valid_tokens, 5 + 9);
  EXPECT_EQ(rs[1].engine.valid_tokens, 3 + 1 + 2);
}

// ---- pool-wide id contract --------------------------------------------------

// The pool assigns every id and hands it down, so ids are unique across
// replicas and follow submission order even though consecutive requests
// spread over all four replicas.
TEST(EnginePool, IdsAreUniqueAndFollowSubmissionOrderAcrossReplicas) {
  constexpr int kThreads = 4;
  constexpr int kPerThread = 16;
  constexpr int kTotal = kThreads * kPerThread;

  {  // One submitter: ids count up from 0 in submission order. Held-open
     // windows keep every request outstanding, so equal-length requests
     // cycle through the replicas: 0, 1, 2, 3, 0, 1, 2, 3.
    EnginePool pool(shared_model(),
                    pool_options(all_policies()[2], /*replicas=*/4,
                                 RoutePolicy::kLeastOutstandingTokens, 8,
                                 /*max_wait=*/30.0));
    const std::int64_t h = pool.hidden();

    // Malformed tensors throw the Engine contract's error and take no id.
    EXPECT_THROW(pool.submit(Tensor<fp16_t>::zeros({4})),
                 std::invalid_argument);

    Rng rng(8);
    std::vector<std::future<Response>> sequential;
    for (int i = 0; i < 8; ++i) {
      sequential.push_back(
          pool.submit(Tensor<fp16_t>::random_normal({2, h}, rng)));
    }
    pool.stop();  // drains the open windows
    for (int i = 0; i < 8; ++i) {
      const Response r = sequential[static_cast<std::size_t>(i)].get();
      EXPECT_EQ(r.id, i);
      EXPECT_EQ(r.replica, i % 4);
    }
  }

  // Concurrent submitters: every id is issued exactly once, and each
  // thread's ids increase in its own submission order.
  EnginePool pool(shared_model(),
                  pool_options(all_policies()[2], /*replicas=*/4,
                               RoutePolicy::kLeastOutstandingTokens, 8,
                               /*max_wait=*/0.0005));
  const std::int64_t h = pool.hidden();
  std::vector<std::vector<RequestId>> ids(kThreads);
  std::vector<std::thread> submitters;
  for (int t = 0; t < kThreads; ++t) {
    submitters.emplace_back([&, t] {
      Rng trng(100 + t);
      std::vector<std::future<Response>> futures;
      for (int j = 0; j < kPerThread; ++j) {
        futures.push_back(
            pool.submit(Tensor<fp16_t>::random_normal({1 + j % 3, h}, trng)));
      }
      for (auto& f : futures) ids[static_cast<std::size_t>(t)].push_back(f.get().id);
    });
  }
  for (auto& s : submitters) s.join();
  pool.stop();

  std::vector<RequestId> all;
  for (const auto& per_thread : ids) {
    EXPECT_TRUE(std::is_sorted(per_thread.begin(), per_thread.end()));
    all.insert(all.end(), per_thread.begin(), per_thread.end());
  }
  std::sort(all.begin(), all.end());
  ASSERT_EQ(all.size(), static_cast<std::size_t>(kTotal));
  for (int i = 0; i < kTotal; ++i) {
    EXPECT_EQ(all[static_cast<std::size_t>(i)], i);  // dense, no repeats
  }
}

// A long-running pool must hold its heap flat: once warm, no tier may keep
// per-request state after the request resolved. Four replicas sharing the
// traffic is the case where a per-replica record of issued ids would gain
// an entry for every request routed to another replica.
TEST(EnginePool, SteadyStateServingKeepsTheHeapFlat) {
#ifndef BT_HEAP_PROBE
  GTEST_SKIP() << "needs glibc's own allocator for mallinfo2";
#else
  EnginePool pool(shared_model(),
                  pool_options(all_policies()[2], /*replicas=*/4,
                               RoutePolicy::kLeastOutstandingTokens, 8,
                               /*max_wait=*/0.0));
  const std::int64_t h = pool.hidden();
  Rng rng(12);
  const Tensor<fp16_t> row = Tensor<fp16_t>::random_normal({1, h}, rng);
  const auto serve = [&](int n) {
    std::vector<std::future<Response>> inflight;
    inflight.reserve(64);
    for (int done = 0; done < n; done += 64) {
      for (int i = 0; i < 64; ++i) inflight.push_back(pool.submit(row.clone()));
      for (auto& f : inflight) f.get();
      inflight.clear();
    }
  };
  serve(2000);  // warm-up: workspaces, metrics, trace ring reach full size
  const std::size_t before = mallinfo2().uordblks;
  serve(8000);
  const std::size_t after = mallinfo2().uordblks;
  pool.stop();
  EXPECT_LT(after, before + 256 * 1024)
      << "heap grew " << (after - before) << " B over 8000 requests";
#endif
}

// ---- lifecycle --------------------------------------------------------------

TEST(EnginePool, StopDrainsEveryReplicaAndRejectsLateSubmits) {
  EnginePool pool(shared_model(),
                  pool_options(all_policies()[2], 3,
                               RoutePolicy::kLeastOutstandingTokens, 8,
                               /*max_wait=*/30.0));
  const std::int64_t h = pool.hidden();
  Rng rng(9);
  std::vector<std::future<Response>> futures;
  for (int i = 0; i < 9; ++i) {
    futures.push_back(
        pool.submit(Tensor<fp16_t>::random_normal({1 + i % 5, h}, rng)));
  }
  pool.stop();  // all three replica windows are still open: stop must drain
  pool.stop();  // idempotent
  EXPECT_TRUE(pool.stopped());
  for (auto& f : futures) {
    ASSERT_EQ(f.wait_for(std::chrono::seconds(0)), std::future_status::ready)
        << "stop() returned before a replica finished draining";
    f.get();
  }
  EXPECT_EQ(pool.pending(), 0u);
  EXPECT_EQ(pool.pending_tokens(), 0);
  EXPECT_EQ(pool.stats().requests, 9);

  EXPECT_THROW(pool.submit(Tensor<fp16_t>::random_normal({3, h}, rng)),
               std::runtime_error);
  EXPECT_FALSE(
      pool.try_submit(Request{Tensor<fp16_t>::random_normal({3, h}, rng)})
          .has_value());
}

TEST(EnginePool, TrySubmitDeclineLeavesNoTraceInRouting) {
  // One replica, one queue slot: occupy the scheduler with a long round and
  // fill the slot so the decline path is exercised deterministically.
  EnginePoolOptions opts =
      pool_options(all_policies()[2], 1, RoutePolicy::kLeastOutstandingTokens,
                   1, /*max_wait=*/0.0);
  opts.engine.max_queue = 1;
  EnginePool pool(shared_model(), opts);
  const std::int64_t h = pool.hidden();
  Rng rng(10);

  auto first = pool.submit(Tensor<fp16_t>::random_normal({512, h}, rng));
  auto second = pool.submit(Tensor<fp16_t>::random_normal({512, h}, rng));
  auto declined =
      pool.try_submit(Request{Tensor<fp16_t>::random_normal({4, h}, rng)});
  EXPECT_FALSE(declined.has_value());

  EXPECT_EQ(first.get().output.dim(0), 512);
  const RequestId second_id = second.get().id;
  // The retry gets a fresh id after every earlier one (the declined attempt
  // may have burned one).
  auto retry = pool.submit(Tensor<fp16_t>::random_normal({4, h}, rng));
  EXPECT_GT(retry.get().id, second_id);
  pool.stop();
  // Declined attempts left no trace in the routing accounting.
  const auto rs = pool.replica_stats();
  EXPECT_EQ(rs[0].routed_requests, 3);
}

// A blocking submit whose pick is full waits for room on that replica
// outside the routing lock: a try_submit routed to the other replica is
// served meanwhile, the waiter lands once the slot frees, and the routing
// accounting counts exactly what each replica served.
TEST(EnginePool, BlockedSubmitWaitsOutsideTheRoutingLock) {
  EnginePoolOptions opts =
      pool_options(all_policies()[2], /*replicas=*/2,
                   RoutePolicy::kStickySession, 8, /*max_wait=*/30.0);
  opts.engine.max_queue = 1;
  // Replica 0's first round stalls, so its one queue slot stays taken.
  fault::Injector inj(1);
  fault::PointConfig stall;
  stall.instance = 0;
  stall.fire_at = {0};
  stall.max_fires = 1;
  stall.param = 1000000;  // us
  inj.arm("serving.compute.delay", stall);
  fault::ScopedInjector scope(inj);
  EnginePool pool(shared_model(), opts);
  const std::int64_t h = pool.hidden();
  Rng rng(11);
  const auto pinned = [&](int rows) {
    Request req{Tensor<fp16_t>::random_normal({rows, h}, rng)};
    req.session = "s";
    return req;
  };

  auto computing = pool.submit(pinned(3));  // pins "s" to replica 0 (tie)
  while (inj.stats("serving.compute.delay").hits == 0) {
    std::this_thread::yield();
  }
  auto queued = pool.submit(pinned(4));  // fills replica 0's slot
  std::atomic<bool> landed{false};
  std::future<Response> waiter;
  std::thread blocked([&, req = pinned(5)]() mutable {
    waiter = pool.submit(std::move(req));  // pick full: waits for room
    landed = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(100));

  // Sessionless: least-loaded routing sends it to the idle replica 1.
  auto other =
      pool.try_submit(Request{Tensor<fp16_t>::random_normal({2, h}, rng)});
  ASSERT_TRUE(other.has_value());
  EXPECT_EQ(other->get().replica, 1);
  EXPECT_FALSE(landed.load()) << "landed while replica 0 was still full";
  EXPECT_NE(computing.wait_for(std::chrono::seconds(0)),
            std::future_status::ready);

  blocked.join();
  EXPECT_EQ(waiter.get().replica, 0);
  EXPECT_EQ(computing.get().replica, 0);
  EXPECT_EQ(queued.get().replica, 0);
  pool.stop();

  const auto rs = pool.replica_stats();
  EXPECT_EQ(rs[0].routed_requests, 3);
  EXPECT_EQ(rs[0].routed_tokens, 3 + 4 + 5);
  EXPECT_EQ(rs[1].routed_requests, 1);
  EXPECT_EQ(rs[1].routed_tokens, 2);
  for (const auto& r : rs) {
    EXPECT_EQ(r.routed_requests, r.engine.requests);
    EXPECT_EQ(r.routed_tokens, r.engine.valid_tokens);
  }
  // The waiter's decline before its wait charged nothing.
  EXPECT_EQ(pool.session_route_stats().session_requests, 3);
  EXPECT_EQ(pool.session_route_stats().sticky_hits, 2);
}

TEST(EnginePool, RejectsInconsistentOptions) {
  const PolicyCase pc = all_policies()[2];
  const RoutePolicy lot = RoutePolicy::kLeastOutstandingTokens;
  EnginePoolOptions opts = pool_options(pc, 0, lot, 8, 0.0);
  EXPECT_THROW(EnginePool(shared_model(), opts), std::invalid_argument);

  opts = pool_options(pc, 2, lot, 8, 0.0);
  opts.threads_per_replica = -1;
  EXPECT_THROW(EnginePool(shared_model(), opts), std::invalid_argument);

  EXPECT_THROW(EnginePool(std::shared_ptr<const core::BertModel>(),
                          pool_options(pc, 1, lot, 8, 0.0)),
               std::invalid_argument);

  // Replica-level validation surfaces through the pool constructor.
  opts = pool_options(pc, 2, lot, 0, 0.0);
  EXPECT_THROW(EnginePool(shared_model(), opts), std::invalid_argument);
}

}  // namespace
}  // namespace bt::serving
