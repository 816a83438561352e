// Asynchronous pipelined serving executor — the request-level API for
// online traffic.
//
// The synchronous Engine serializes batch formation, host-side
// gather/scatter, and model compute on the calling thread; under irregular
// arrivals that leaves the device idle between rounds. AsyncEngine puts a
// background scheduler thread in front of the same Engine: callers submit
// from any number of threads and get a std::future<Response> back, while the
// scheduler forms batches under the configured BatchPolicy and runs compute
// — so round k's forward overlaps the arrival and admission of round k+1
// (the TurboTransformers-style serving loop the roadmap calls for). Its
// queue is the one place an accepted request waits: the scheduler pops a
// round from it and hands that round to the inner Engine whole, as one
// Engine round.
//
//   serving::AsyncEngine engine(model, opts);
//   auto fut = engine.submit(std::move(hidden));   // any thread
//   serving::Response r = fut.get();               // resolves on completion
//   engine.stop();                                 // drains, then joins
//
// Threading model
//   * submit()/try_submit() are thread-safe; ids are assigned in submission
//     order under the queue lock.
//   * One scheduler thread owns the inner Engine exclusively; every request
//     resolves by its Reply, run on that thread (below).
//
// Batching window
//   A round dispatches as soon as the queue can fill it (request cap
//   max_batch_requests, token cap max_batch_tokens), or when the oldest
//   queued request has waited max_wait_seconds, whichever comes first —
//   the usual latency/throughput knob for dynamic batching.
//
// Deadline-aware admission and shedding
//   While no queued request carries a Request::deadline, admission is
//   strict FIFO (bitwise-identical to the pre-deadline engine). As soon as
//   any queued request has one, rounds pop earliest-deadline-first
//   (deadline-less requests order last, FIFO among themselves; queue
//   position breaks ties), and the batching window closes early — one
//   window of slack before the earliest queued deadline — so a near-SLO
//   request is bumped into the next round ahead of fresher arrivals with
//   time left to compute instead of waiting out the window.
//   A request whose deadline has already passed when its round starts
//   computing is shed: its future fails with serving::DeadlineExceeded
//   and no compute is spent on it. stats() carries the accounting —
//   deadline_shed, plus deadline_met / deadline_missed for requests whose
//   response resolved before / after its deadline.
//
// Backpressure
//   The submission queue is bounded (max_queue). Every submit path is one
//   non-blocking enqueue: try_submit() returns std::nullopt when it
//   declines, and submit() waits until space frees up, then enqueues again.
//
// Shutdown
//   stop() (idempotent, also run by the destructor) wakes the scheduler,
//   drains every already-accepted request, and joins the thread. The drain
//   resolves requests strictly in dispatch order (the order requests are
//   popped into rounds; Response::round exposes it) and never drops one —
//   a future obtained from submit()/try_submit() always resolves with a
//   value or an exception, never std::future_error(broken_promise).
//   Submissions after stop() throw (submit) or return std::nullopt
//   (try_submit).
#pragma once

#include <chrono>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <future>
#include <memory>
#include <optional>
#include <thread>
#include <vector>

#include "common/annotations.h"
#include "common/mutex.h"
#include "serving/engine.h"

namespace bt::serving {

// How an accepted request resolves — the serving tiers' one resolution
// path. Run exactly once, on the resolving thread (a replica's scheduler,
// under its AsyncEngine::mutex_), with the Response when `error` is null,
// else with the typed serving error (error.h) and an empty Response. A
// Reply must not throw, block, or call back into the serving tiers.
using Reply =
    std::function<void(Response&& response, std::exception_ptr error)>;

// The future-returning submit paths of every tier: a Reply that fulfils a
// promise, and that promise's future.
struct FutureReply {
  Reply reply;
  std::future<Response> future;
};
FutureReply future_reply();

struct AsyncEngineOptions {
  EngineOptions engine;            // policy, caps, flags of the inner Engine
  std::size_t max_queue = 1024;    // bounded submission queue (backpressure)
  double max_wait_seconds = 0.002; // batching window from the oldest request;
                                   // 0 dispatches as soon as work exists
  // Replica index within an EnginePool, stamped into Response::replica. Set
  // by the owning EnginePool; -1 marks a standalone engine.
  int replica_index = -1;
};

// Failure accounting one replica exposes to its pool's circuit breaker
// (pool.h). `completed`/`failed` count futures resolved with a Response /
// with a round failure (InternalError or an escaped engine error); shed
// requests count as neither — a deadline miss says the request was late,
// not that the replica is broken. `consecutive_failures` is the breaker's
// trip signal: failures since the last success.
struct ReplicaHealth {
  long long completed = 0;
  long long failed = 0;
  long long consecutive_failures = 0;
};

class AsyncEngine {
 public:
  // Validates opts.engine exactly like Engine (std::invalid_argument on
  // inconsistent options) plus max_queue >= 1 and max_wait_seconds >= 0,
  // then starts the scheduler thread.
  AsyncEngine(std::shared_ptr<const core::BertModel> model,
              AsyncEngineOptions opts);
  AsyncEngine(core::BertModel model, AsyncEngineOptions opts);
  ~AsyncEngine();  // stop()

  AsyncEngine(const AsyncEngine&) = delete;
  AsyncEngine& operator=(const AsyncEngine&) = delete;

  // Enqueues a request and returns the future its Response resolves on.
  // Blocks while the queue is full. Throws std::invalid_argument on a
  // malformed tensor (same contract as Engine::submit), std::runtime_error
  // after stop().
  std::future<Response> submit(Request req) BT_EXCLUDES(mutex_);
  std::future<Response> submit(Tensor<fp16_t> hidden) BT_EXCLUDES(mutex_);

  // Non-blocking variant: std::nullopt when the queue is full or the engine
  // is stopped (backpressure signal); malformed requests still throw.
  std::optional<std::future<Response>> try_submit(Request req)
      BT_EXCLUDES(mutex_);

  // Drains accepted requests, resolves their futures, joins the scheduler.
  // Idempotent; safe to call concurrently with submitters (their blocked
  // submit() calls wake and throw).
  void stop() BT_EXCLUDES(mutex_, join_mutex_);

  bool stopped() const BT_EXCLUDES(mutex_);

  // Requests accepted but not yet responded to (queued + in flight).
  std::size_t pending() const BT_EXCLUDES(mutex_);

  // Valid tokens (rows) of those pending requests — the load metric the
  // EnginePool's least-outstanding-tokens router balances on.
  long long pending_tokens() const BT_EXCLUDES(mutex_);

  // Snapshot of the inner engine's cumulative accounting as of the last
  // completed round.
  EngineStats stats() const BT_EXCLUDES(mutex_);

  // Success/failure counters for replica health tracking (EnginePool's
  // circuit breaker polls this at routing time).
  ReplicaHealth health() const BT_EXCLUDES(mutex_);

  const core::BertModel& model() const { return engine_.model(); }
  const AsyncEngineOptions& options() const { return opts_; }
  int hidden() const { return engine_.hidden(); }

 private:
  friend class EnginePool;  // hands down the id it assigned

  using Clock = std::chrono::steady_clock;

  // The one enqueue behind every submit path, never blocking: when the
  // engine runs and the queue has room it moves `req` and `reply` into the
  // queue and returns true, else it returns false and leaves both as they
  // were. `id` is the owning tier's id, or std::nullopt to take the next
  // value of next_id_ under the lock. The caller has validated `req`.
  // `reply` runs exactly once if this returns true, never otherwise.
  bool submit(Request& req, Reply& reply, std::optional<RequestId> id)
      BT_EXCLUDES(mutex_);
  // Blocks until the queue has room or the engine stops; false once
  // stopped. A blocking submit is this wait, then the enqueue again.
  bool wait_for_space() BT_EXCLUDES(mutex_);

  struct Queued {
    Engine::Pending request;  // id, rows, session, arrival
    Reply reply;
    std::optional<Deadline> deadline;
  };

  // Queue indices in admission order: identity (FIFO) while no queued
  // request has a deadline, else earliest-deadline-first with queue
  // position as the stable tie-break (deadline-less requests last).
  std::vector<std::size_t> admission_order_locked() const BT_REQUIRES(mutex_);
  Deadline earliest_deadline_locked() const  // requires deadline_count_ > 0
      BT_REQUIRES(mutex_);
  bool round_available_locked() const BT_REQUIRES(mutex_);
  void scheduler_loop() BT_EXCLUDES(mutex_);

  AsyncEngineOptions opts_;
  Engine engine_;  // owned by the scheduler thread once it starts

  mutable Mutex mutex_;
  CondVar cv_work_;   // scheduler: work arrived / stop
  CondVar cv_space_;  // submitters: queue has room / stop
  std::deque<Queued> queue_ BT_GUARDED_BY(mutex_);
  // Queued requests carrying a deadline.
  std::size_t deadline_count_ BT_GUARDED_BY(mutex_) = 0;
  // Valid tokens sitting in queue_.
  long long queued_tokens_ BT_GUARDED_BY(mutex_) = 0;
  // Popped, replies not yet run — and their valid tokens.
  std::size_t in_flight_ BT_GUARDED_BY(mutex_) = 0;
  long long in_flight_tokens_ BT_GUARDED_BY(mutex_) = 0;
  RequestId next_id_ BT_GUARDED_BY(mutex_) = 0;
  // Snapshot of engine_.stats(), taken per round and per shed. The
  // scheduler counts the deadline fields straight into engine_'s stats.
  EngineStats stats_ BT_GUARDED_BY(mutex_);
  ReplicaHealth health_ BT_GUARDED_BY(mutex_);
  bool stop_ BT_GUARDED_BY(mutex_) = false;

  // Serializes the joinable-check/join in stop(). Never held together with
  // mutex_ (stop() drops mutex_ before joining — the scheduler needs it to
  // drain).
  Mutex join_mutex_;
  std::thread scheduler_;  // started last, joined by stop()
};

}  // namespace bt::serving
