// AsyncEngine: bitwise equivalence with the synchronous Engine per batching
// policy under concurrent submitters, shutdown-drain semantics, backpressure,
// and submission-contract errors.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <exception>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common/fault.h"
#include "core/model.h"
#include "serving/async_engine.h"
#include "serving/engine.h"
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

AsyncEngineOptions async_options(const PolicyCase& pc, int max_batch_requests,
                                 double max_wait_seconds) {
  AsyncEngineOptions opts;
  opts.engine.policy = pc.policy;
  opts.engine.flags = pc.flags;
  opts.engine.group_size = pc.group_size > 0 ? pc.group_size : 4;
  opts.engine.max_batch_requests = max_batch_requests;
  opts.engine.threads = 2;
  opts.max_wait_seconds = max_wait_seconds;
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

TEST(AsyncEngine, SingleRequestRoundTrips) {
  AsyncEngine engine(shared_model(),
                     async_options(all_policies()[2], 8, /*max_wait=*/0.0));
  const std::int64_t h = engine.hidden();
  Rng rng(9);
  auto fut = engine.submit(Tensor<fp16_t>::random_normal({7, h}, rng));
  Response r = fut.get();
  EXPECT_EQ(r.id, 0);
  EXPECT_EQ(r.output.dim(0), 7);
  EXPECT_EQ(r.output.dim(1), h);
  EXPECT_GE(r.queue_seconds, 0.0);
  EXPECT_GE(r.compute_seconds, 0.0);
  engine.stop();
  EXPECT_EQ(engine.pending(), 0u);
  EXPECT_EQ(engine.stats().requests, 1);
  EXPECT_TRUE(engine.stopped());
}

// The core equivalence property: with the round composition pinned (request
// cap == total requests, window held open until the cap fills), the async
// engine forms exactly the batch a synchronous Engine would see, so outputs
// bit-match — for every policy, with several submitter threads racing.
TEST(AsyncEngine, BitMatchesSyncEngineUnderConcurrentSubmitters) {
  constexpr int kThreads = 3;
  constexpr int kPerThread = 4;
  constexpr int kTotal = kThreads * kPerThread;
  const std::int64_t h = shared_model()->config().hidden();

  for (const PolicyCase& pc : all_policies()) {
    AsyncEngine engine(shared_model(),
                       async_options(pc, kTotal, /*max_wait=*/30.0));

    // Each thread submits deterministic tensors into its own slots; the
    // engine assigns ids in queue order, and the Response carries the id, so
    // the slot -> id mapping is recovered when the futures resolve.
    std::vector<Tensor<fp16_t>> inputs(kTotal);
    std::vector<std::future<Response>> futures(kTotal);
    std::vector<std::thread> submitters;
    for (int t = 0; t < kThreads; ++t) {
      submitters.emplace_back([&, t] {
        for (int j = 0; j < kPerThread; ++j) {
          const std::size_t slot = static_cast<std::size_t>(t * kPerThread + j);
          const int len = 2 + 3 * (static_cast<int>(slot) % 5);
          Rng rng(1000 + t * 100 + j);
          auto hidden = Tensor<fp16_t>::random_normal({len, h}, rng);
          inputs[slot] = hidden.clone();
          futures[slot] = engine.submit(Request{std::move(hidden)});
        }
      });
    }
    for (auto& s : submitters) s.join();

    // Resolve futures; each Response carries the engine-assigned id.
    std::map<RequestId, Response> responses;           // engine id -> response
    std::map<RequestId, Tensor<fp16_t>> inputs_by_id;  // engine id -> content
    for (int slot = 0; slot < kTotal; ++slot) {
      Response r = futures[static_cast<std::size_t>(slot)].get();
      inputs_by_id.emplace(r.id,
                           std::move(inputs[static_cast<std::size_t>(slot)]));
      responses.emplace(r.id, std::move(r));
    }
    engine.stop();
    ASSERT_EQ(responses.size(), static_cast<std::size_t>(kTotal));
    EXPECT_EQ(engine.stats().requests, kTotal);
    EXPECT_EQ(engine.stats().batches, 1);  // cap == total: one pinned round

    // Synchronous reference: same tensors in engine-id (i.e. queue) order.
    Engine sync(shared_model(), async_options(pc, kTotal, 0.0).engine);
    for (auto& [id, input] : inputs_by_id) {
      ASSERT_EQ(sync.submit(input.clone()), id);
    }
    const auto want = sync.drain();
    ASSERT_EQ(want.size(), static_cast<std::size_t>(kTotal));
    for (const Response& w : want) {
      expect_bits_equal(responses.at(w.id).output, w.output);
    }
  }
}

// Multi-round equivalence with a single submitter: cap 2 and a held-open
// window make the scheduler pop deterministic pairs in id order, matching
// the sync engine's run_batch admission round for round.
TEST(AsyncEngine, BitMatchesSyncEngineAcrossRounds) {
  constexpr int kTotal = 6;  // divisible by the cap: no trailing partial round
  const std::int64_t h = shared_model()->config().hidden();
  const std::vector<int> lens{12, 3, 8, 16, 5, 9};

  for (const PolicyCase& pc : all_policies()) {
    AsyncEngine engine(shared_model(),
                       async_options(pc, /*max_batch_requests=*/2,
                                     /*max_wait=*/30.0));
    std::vector<std::future<Response>> futures;
    for (int i = 0; i < kTotal; ++i) {
      Rng rng(2000 + i);
      futures.push_back(engine.submit(
          Tensor<fp16_t>::random_normal({lens[static_cast<std::size_t>(i)], h},
                                        rng)));
    }
    std::vector<Response> got;
    for (auto& f : futures) got.push_back(f.get());
    engine.stop();

    Engine sync(shared_model(), async_options(pc, 2, 0.0).engine);
    for (int i = 0; i < kTotal; ++i) {
      Rng rng(2000 + i);
      sync.submit(
          Tensor<fp16_t>::random_normal({lens[static_cast<std::size_t>(i)], h},
                                        rng));
    }
    const auto want = sync.drain();
    ASSERT_EQ(want.size(), got.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].id, want[i].id);
      expect_bits_equal(got[i].output, want[i].output);
    }
    EXPECT_EQ(engine.stats().batches, 3);  // 2 + 2 + 2
  }
}

// Shutdown while requests sit in the window: stop() must drain — every
// accepted future resolves exactly once, nothing lost, no duplicate ids.
TEST(AsyncEngine, StopWhilePendingDrainsWithoutLossOrDuplication) {
  constexpr int kTotal = 16;
  auto opts = async_options(all_policies()[2], /*max_batch_requests=*/32,
                            /*max_wait=*/30.0);  // window far exceeds the test
  AsyncEngine engine(shared_model(), opts);
  const std::int64_t h = engine.hidden();

  std::vector<std::future<Response>> futures;
  Rng rng(31);
  for (int i = 0; i < kTotal; ++i) {
    futures.push_back(
        engine.submit(Tensor<fp16_t>::random_normal({1 + i % 7, h}, rng)));
  }
  engine.stop();  // requests are still inside the batching window

  std::vector<RequestId> ids;
  for (int i = 0; i < kTotal; ++i) {
    Response r = futures[static_cast<std::size_t>(i)].get();
    EXPECT_EQ(r.output.dim(0), 1 + i % 7);
    ids.push_back(r.id);
  }
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  EXPECT_EQ(ids.size(), static_cast<std::size_t>(kTotal));
  EXPECT_EQ(engine.pending(), 0u);
  EXPECT_EQ(engine.stats().requests, kTotal);
}

TEST(AsyncEngine, SubmitAfterStopThrowsAndTrySubmitDeclines) {
  AsyncEngine engine(shared_model(), async_options(all_policies()[2], 8, 0.0));
  const std::int64_t h = engine.hidden();
  engine.stop();
  Rng rng(5);
  EXPECT_THROW(engine.submit(Tensor<fp16_t>::random_normal({3, h}, rng)),
               std::runtime_error);
  EXPECT_FALSE(
      engine.try_submit(Request{Tensor<fp16_t>::random_normal({3, h}, rng)})
          .has_value());
}

TEST(AsyncEngine, TrySubmitAppliesBackpressureWhenQueueIsFull) {
  auto opts = async_options(all_policies()[2], /*max_batch_requests=*/1,
                            /*max_wait=*/0.0);
  opts.max_queue = 1;
  AsyncEngine engine(shared_model(), opts);
  const std::int64_t h = engine.hidden();
  Rng rng(6);

  // The first heavy request is popped and computes for many milliseconds;
  // the second then occupies the single queue slot, so backpressure is
  // observable while the scheduler is busy.
  auto first = engine.submit(Tensor<fp16_t>::random_normal({512, h}, rng));
  auto second = engine.submit(Tensor<fp16_t>::random_normal({512, h}, rng));
  auto declined =
      engine.try_submit(Request{Tensor<fp16_t>::random_normal({4, h}, rng)});
  EXPECT_FALSE(declined.has_value());
  // Programming errors are never masked as backpressure: a malformed
  // request throws even while the queue is full.
  EXPECT_THROW(engine.try_submit(Request{Tensor<fp16_t>::zeros({4})}),
               std::invalid_argument);

  EXPECT_EQ(first.get().output.dim(0), 512);
  EXPECT_EQ(second.get().output.dim(0), 512);
  engine.stop();
}

// A token-cap-saturated round can never grow, so it must dispatch without
// waiting out the batching window — a lone oversized request would
// otherwise always pay the full max_wait as latency.
TEST(AsyncEngine, TokenSaturatedRoundDispatchesBeforeWindowCloses) {
  auto opts = async_options(all_policies()[2], /*max_batch_requests=*/8,
                            /*max_wait=*/30.0);
  opts.engine.max_batch_tokens = 8;
  AsyncEngine engine(shared_model(), opts);
  const std::int64_t h = engine.hidden();
  Rng rng(14);
  auto fut = engine.submit(Tensor<fp16_t>::random_normal({16, h}, rng));
  // Must resolve in well under the 30 s window.
  ASSERT_EQ(fut.wait_for(std::chrono::seconds(10)), std::future_status::ready);
  EXPECT_EQ(fut.get().output.dim(0), 16);
  engine.stop();
}

TEST(AsyncEngine, RejectsMalformedRequests) {
  AsyncEngine engine(shared_model(),
                     async_options(all_policies()[2], 8, /*max_wait=*/30.0));
  const std::int64_t h = engine.hidden();
  Rng rng(7);

  EXPECT_THROW(engine.submit(Tensor<fp16_t>::zeros({4})),
               std::invalid_argument);  // rank 1
  EXPECT_THROW(engine.submit(Tensor<fp16_t>::zeros({0, h})),
               std::invalid_argument);  // zero rows
  EXPECT_THROW(engine.submit(Tensor<fp16_t>::zeros({4, h + 1})),
               std::invalid_argument);  // wrong hidden

  // try_submit shares the contract: programming errors throw rather than
  // masquerading as backpressure.
  EXPECT_THROW(engine.try_submit(Request{Tensor<fp16_t>::zeros({4, h + 1})}),
               std::invalid_argument);

  // None of the rejected submissions consumed an id.
  auto ok = engine.submit(Tensor<fp16_t>::random_normal({3, h}, rng));
  engine.stop();
  EXPECT_EQ(ok.get().id, 0);
}

TEST(AsyncEngine, RejectsInconsistentOptions) {
  auto opts = async_options(all_policies()[2], 8, 0.0);
  opts.max_queue = 0;
  EXPECT_THROW(AsyncEngine(shared_model(), opts), std::invalid_argument);

  opts = async_options(all_policies()[2], 8, -0.5);
  EXPECT_THROW(AsyncEngine(shared_model(), opts), std::invalid_argument);

  // Inner-engine validation surfaces through the async constructor too.
  opts = async_options(all_policies()[2], 0, 0.0);
  EXPECT_THROW(AsyncEngine(shared_model(), opts), std::invalid_argument);
  opts = async_options({BatchPolicy::kPacked, core::OptFlags::bias_gelu_fused(), 0},
                       8, 0.0);
  EXPECT_THROW(AsyncEngine(shared_model(), opts), std::invalid_argument);
}

// ---- deadline-aware admission ----------------------------------------------

// EDF ordering, observed through Response::round: a long deadline-less
// blocker keeps the scheduler busy while three deadline requests queue up in
// reverse-deadline order; with a request cap of 1, each subsequent round
// serves exactly the earliest remaining deadline.
TEST(AsyncEngine, DeadlineRequestsPopEarliestDeadlineFirst) {
  auto opts = async_options(all_policies()[2], /*max_batch_requests=*/1,
                            /*max_wait=*/0.0);
  AsyncEngine engine(shared_model(), opts);
  const std::int64_t h = engine.hidden();
  Rng rng(21);

  // The blocker dispatches first (round 0) and computes for tens of
  // milliseconds. The sleep yields the core to the scheduler thread so the
  // pop provably happened (on a single-core host the scheduler may not run
  // between consecutive submits at all); the three microsecond-scale
  // submits below then queue while the blocker computes.
  auto blocker = engine.submit(Tensor<fp16_t>::random_normal({1024, h}, rng));
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  auto late = engine.submit(Request{Tensor<fp16_t>::random_normal({3, h}, rng),
                                    deadline_in(100.0)});
  auto mid = engine.submit(Request{Tensor<fp16_t>::random_normal({4, h}, rng),
                                   deadline_in(50.0)});
  auto soon = engine.submit(Request{Tensor<fp16_t>::random_normal({5, h}, rng),
                                    deadline_in(10.0)});

  EXPECT_EQ(blocker.get().round, 0);
  EXPECT_EQ(soon.get().round, 1);  // earliest deadline, submitted last
  EXPECT_EQ(mid.get().round, 2);
  EXPECT_EQ(late.get().round, 3);
  engine.stop();
}

// The FIFO bit-preservation half of the deadline contract: the identical
// scenario without deadlines dispatches strictly in submission order.
TEST(AsyncEngine, NoDeadlinesPreservesFifoDispatch) {
  auto opts = async_options(all_policies()[2], /*max_batch_requests=*/1,
                            /*max_wait=*/0.0);
  AsyncEngine engine(shared_model(), opts);
  const std::int64_t h = engine.hidden();
  Rng rng(22);

  auto blocker = engine.submit(Tensor<fp16_t>::random_normal({1024, h}, rng));
  auto first = engine.submit(Tensor<fp16_t>::random_normal({3, h}, rng));
  auto second = engine.submit(Tensor<fp16_t>::random_normal({4, h}, rng));
  auto third = engine.submit(Tensor<fp16_t>::random_normal({5, h}, rng));

  EXPECT_EQ(blocker.get().round, 0);
  EXPECT_EQ(first.get().round, 1);
  EXPECT_EQ(second.get().round, 2);
  EXPECT_EQ(third.get().round, 3);
  engine.stop();
}

// A queued deadline closes the batching window early: a lone request whose
// SLO comes due in 50 ms must not sit out a 30 s window.
TEST(AsyncEngine, NearDeadlineClosesBatchingWindowEarly) {
  auto opts = async_options(all_policies()[2], /*max_batch_requests=*/8,
                            /*max_wait=*/30.0);
  AsyncEngine engine(shared_model(), opts);
  const std::int64_t h = engine.hidden();
  Rng rng(23);
  auto fut = engine.submit(Request{Tensor<fp16_t>::random_normal({6, h}, rng),
                                   deadline_in(0.05)});
  ASSERT_EQ(fut.wait_for(std::chrono::seconds(10)), std::future_status::ready);
  EXPECT_EQ(fut.get().output.dim(0), 6);
  engine.stop();
}

// ---- deadline shedding ------------------------------------------------------

// A request whose deadline passed before its round starts computing is shed:
// its future fails with the distinct DeadlineExceeded error, no compute is
// spent on it, and the shed / met / missed split is observable in stats().
TEST(AsyncEngine, ShedsRequestsWhoseDeadlinePassedBeforeCompute) {
  auto opts = async_options(all_policies()[2], /*max_batch_requests=*/8,
                            /*max_wait=*/0.0);
  AsyncEngine engine(shared_model(), opts);
  const std::int64_t h = engine.hidden();
  Rng rng(31);

  // Expired on arrival.
  auto dead = engine.submit(Request{
      Tensor<fp16_t>::random_normal({5, h}, rng), deadline_in(-0.001)});
  EXPECT_THROW(dead.get(), DeadlineExceeded);

  // Plenty of slack: computes and resolves inside its deadline.
  auto alive = engine.submit(Request{
      Tensor<fp16_t>::random_normal({5, h}, rng), deadline_in(600.0)});
  EXPECT_EQ(alive.get().output.dim(0), 5);
  engine.stop();

  const EngineStats st = engine.stats();
  EXPECT_EQ(st.deadline_shed, 1);
  EXPECT_EQ(st.deadline_met, 1);
  EXPECT_EQ(st.deadline_missed, 0);
  // The shed request never reached the inner engine: no compute, no request
  // accounting beyond the shed counter.
  EXPECT_EQ(st.requests, 1);

  // Several requests shed in one round: each future carries its own
  // DeadlineExceeded, never one exception object shared across callers.
  // A scripted stall holds the scheduler inside a compute round while the
  // expired requests queue, so the next round sheds them together.
  fault::Injector inj(1);
  fault::PointConfig stall;
  stall.fire_at = {0};
  stall.max_fires = 1;
  stall.param = 100000;  // us
  inj.arm("serving.compute.delay", stall);
  fault::ScopedInjector scope(inj);
  AsyncEngine held(shared_model(), opts);
  auto blocker = held.submit(Tensor<fp16_t>::random_normal({5, h}, rng));
  while (inj.stats("serving.compute.delay").hits == 0) {
    std::this_thread::yield();
  }
  constexpr int kShed = 4;
  std::vector<std::future<Response>> expired;
  for (int i = 0; i < kShed; ++i) {
    expired.push_back(held.submit(Request{
        Tensor<fp16_t>::random_normal({5, h}, rng), deadline_in(-0.001)}));
  }
  // exception_ptrs compare equal exactly when they hold the same object.
  std::vector<std::exception_ptr> caught;
  for (auto& f : expired) {
    try {
      f.get();
      ADD_FAILURE() << "an expired request computed";
    } catch (const DeadlineExceeded& e) {
      EXPECT_EQ(e.code(), ErrorCode::kDeadlineExceeded);
      caught.push_back(std::current_exception());
    }
  }
  EXPECT_EQ(blocker.get().output.dim(0), 5);
  held.stop();
  EXPECT_EQ(held.stats().deadline_shed, kShed);
  ASSERT_EQ(caught.size(), static_cast<std::size_t>(kShed));
  for (std::size_t i = 0; i < caught.size(); ++i) {
    for (std::size_t j = i + 1; j < caught.size(); ++j) {
      EXPECT_NE(caught[i], caught[j]) << "futures " << i << " and " << j
                                      << " share one exception object";
    }
  }
}

// deadline_missed: the deadline passes while the request computes. Self-
// calibrating — grow the sequence until one forward takes >= 40 ms on this
// host/build, then give an identical request a quarter of that as slack:
// far above the idle engine's wake-up latency (so the round starts before
// the deadline and the request is not shed) and far below its own compute
// time (so it cannot resolve in time).
TEST(AsyncEngine, DeadlinePassingDuringComputeCountsAsMissed) {
  auto opts = async_options(all_policies()[2], /*max_batch_requests=*/1,
                            /*max_wait=*/0.0);
  AsyncEngine engine(shared_model(), opts);
  const std::int64_t h = engine.hidden();
  Rng rng(32);

  int len = 1024;
  double compute = 0;
  for (;; len *= 2) {
    auto r =
        engine.submit(Tensor<fp16_t>::random_normal({len, h}, rng)).get();
    compute = r.compute_seconds;
    if (compute >= 0.04 || len >= 8192) break;
  }
  ASSERT_GE(compute, 0.04) << "calibration could not reach 40 ms at len "
                           << len;

  auto fut = engine.submit(Request{
      Tensor<fp16_t>::random_normal({len, h}, rng),
      deadline_in(compute * 0.25)});
  EXPECT_EQ(fut.get().output.dim(0), len);  // computed and delivered, late
  engine.stop();
  const EngineStats st = engine.stats();
  EXPECT_EQ(st.deadline_missed, 1);
  EXPECT_EQ(st.deadline_met, 0);
  EXPECT_EQ(st.deadline_shed, 0);
}

TEST(AsyncEngine, PendingTokensTracksOutstandingRows) {
  auto opts = async_options(all_policies()[2], /*max_batch_requests=*/8,
                            /*max_wait=*/30.0);
  AsyncEngine engine(shared_model(), opts);
  const std::int64_t h = engine.hidden();
  Rng rng(24);
  EXPECT_EQ(engine.pending_tokens(), 0);
  auto a = engine.submit(Tensor<fp16_t>::random_normal({7, h}, rng));
  auto b = engine.submit(Tensor<fp16_t>::random_normal({9, h}, rng));
  // Both sit inside the held-open window: queued or in flight, they count.
  EXPECT_EQ(engine.pending_tokens(), 16);
  EXPECT_EQ(engine.pending(), 2u);
  engine.stop();
  a.get();
  b.get();
  EXPECT_EQ(engine.pending_tokens(), 0);
}

// ---- stop()-drain fulfillment order -----------------------------------------

// Regression: the shutdown drain must resolve every accepted promise in
// dispatch order, with a submitter racing the drain. Request cap 1 gives
// each request its own round, so Response::round exposes the dispatch order;
// with no deadlines that order must equal id (submission) order, and stop()
// must not return before every accepted future is ready — a dropped promise
// would surface as a never-ready future or std::future_error.
TEST(AsyncEngine, StopDrainResolvesInDispatchOrderWithMidDrainSubmitter) {
  auto opts = async_options(all_policies()[2], /*max_batch_requests=*/1,
                            /*max_wait=*/30.0);
  AsyncEngine engine(shared_model(), opts);
  const std::int64_t h = engine.hidden();

  std::vector<std::future<Response>> futures;
  Rng rng(25);
  for (int i = 0; i < 6; ++i) {
    futures.push_back(
        engine.submit(Tensor<fp16_t>::random_normal({64, h}, rng)));
  }

  // The mid-drain submitter keeps feeding requests until it observes the
  // stopped engine; each accepted future must still resolve with a value.
  std::mutex extra_mutex;
  std::vector<std::future<Response>> extra;
  std::thread submitter([&] {
    Rng thread_rng(26);
    try {
      for (;;) {
        auto fut =
            engine.submit(Tensor<fp16_t>::random_normal({8, h}, thread_rng));
        std::lock_guard lock(extra_mutex);
        extra.push_back(std::move(fut));
      }
    } catch (const std::runtime_error&) {
      // Engine stopped — expected.
    }
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  engine.stop();
  submitter.join();

  {
    std::lock_guard lock(extra_mutex);
    for (auto& f : extra) futures.push_back(std::move(f));
  }
  // stop() drained: every accepted future is already resolved...
  for (auto& f : futures) {
    ASSERT_EQ(f.wait_for(std::chrono::seconds(0)), std::future_status::ready)
        << "stop() returned with an unresolved promise";
  }
  // ...with a value (never a dropped/broken promise), and dispatch (round)
  // order equals submission (id) order under FIFO.
  std::vector<Response> responses;
  for (auto& f : futures) responses.push_back(f.get());
  std::sort(responses.begin(), responses.end(),
            [](const Response& a, const Response& b) { return a.id < b.id; });
  for (std::size_t i = 0; i < responses.size(); ++i) {
    EXPECT_EQ(responses[i].id, static_cast<RequestId>(i));  // ids dense
    EXPECT_EQ(responses[i].round, static_cast<long long>(i));
  }
  EXPECT_EQ(engine.pending(), 0u);
  EXPECT_EQ(engine.stats().requests,
            static_cast<long long>(responses.size()));
}

// Soak: several submitters race a tiny batching window and a small queue, so
// rounds, blocking submits, and compute overlap continuously. Every future
// must resolve with the right geometry and a unique id.
TEST(AsyncEngine, ConcurrentSubmittersUnderTinyWindowAllComplete) {
  constexpr int kThreads = 4;
  constexpr int kPerThread = 12;
  auto opts = async_options(all_policies()[2], /*max_batch_requests=*/3,
                            /*max_wait=*/0.0005);
  opts.max_queue = 4;  // force blocking submits
  AsyncEngine engine(shared_model(), opts);
  const std::int64_t h = engine.hidden();

  std::vector<std::vector<std::future<Response>>> futures(kThreads);
  std::vector<std::vector<int>> lens(kThreads);
  std::vector<std::thread> submitters;
  for (int t = 0; t < kThreads; ++t) {
    submitters.emplace_back([&, t] {
      Rng rng(9000 + t);
      for (int j = 0; j < kPerThread; ++j) {
        const int len = 1 + (t + 3 * j) % 11;
        lens[static_cast<std::size_t>(t)].push_back(len);
        futures[static_cast<std::size_t>(t)].push_back(
            engine.submit(Tensor<fp16_t>::random_normal({len, h}, rng)));
      }
    });
  }
  for (auto& s : submitters) s.join();

  std::vector<RequestId> ids;
  for (int t = 0; t < kThreads; ++t) {
    for (int j = 0; j < kPerThread; ++j) {
      Response r = futures[static_cast<std::size_t>(t)]
                       [static_cast<std::size_t>(j)].get();
      EXPECT_EQ(r.output.dim(0),
                lens[static_cast<std::size_t>(t)][static_cast<std::size_t>(j)]);
      EXPECT_EQ(r.output.dim(1), h);
      ids.push_back(r.id);
    }
  }
  engine.stop();
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  EXPECT_EQ(ids.size(), static_cast<std::size_t>(kThreads * kPerThread));
  EXPECT_EQ(engine.stats().requests, kThreads * kPerThread);
  EXPECT_EQ(engine.pending(), 0u);
}

}  // namespace
}  // namespace bt::serving
