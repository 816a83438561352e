#include "serving/async_engine.h"

#include <algorithm>
#include <numeric>
#include <stdexcept>
#include <string>
#include <utility>

#include "common/fault.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace bt::serving {

namespace {

// Hot-path metrics, resolved once (docs/OBSERVABILITY.md catalogs them).
// Every replica in the process shares these: they are fleet-level rates
// and distributions; per-replica splits live in the stats structs.
struct Instruments {
  obs::Counter& submitted;
  obs::Counter& failed;
  obs::Gauge& queue_depth;
  obs::Gauge& in_flight;
  obs::LatencyHistogram& queue_seconds;
  obs::LatencyHistogram& e2e_seconds;
  obs::LatencyHistogram& compute_seconds;
  obs::LatencyHistogram& batch_occupancy;
};

Instruments& instruments() {
  auto& reg = obs::MetricRegistry::global();
  static Instruments ins{
      reg.counter("serving.requests.submitted"),
      reg.counter("serving.requests.failed"),
      reg.gauge("serving.queue.depth"),
      reg.gauge("serving.inflight"),
      reg.histogram("serving.latency.queue_seconds"),
      reg.histogram("serving.latency.e2e_seconds"),
      reg.histogram("serving.latency.compute_seconds"),
      reg.histogram("serving.round.batch_requests"),
  };
  return ins;
}

// Per-error-code counters for the failures a replica resolves; the default
// arm absorbs anything untyped (it is wrapped as kInternal before reaching
// the caller anyway). Unknown models never reach a replica: Service counts
// them. Declines resolve nothing: they return false, and the wire counts
// its backpressure replies.
obs::Counter& failure_counter(ErrorCode code) {
  auto& reg = obs::MetricRegistry::global();
  static obs::Counter& deadline_exceeded =
      reg.counter("serving.errors.deadline_exceeded");
  static obs::Counter& shutdown = reg.counter("serving.errors.shutdown");
  static obs::Counter& internal = reg.counter("serving.errors.internal");
  switch (code) {
    case ErrorCode::kDeadlineExceeded:
      return deadline_exceeded;
    case ErrorCode::kShutdown:
      return shutdown;
    default:
      return internal;
  }
}

// Runs every request's reply with its own exception object. A future
// caller inspects its error on its own thread while the scheduler drops its
// references; libsupc++'s exception refcount is invisible to
// ThreadSanitizer, so one object shared by many futures reads as a data
// race on its vptr.
template <typename Requests>
void fail_each(Requests& requests, ErrorCode code, const std::string& message) {
  for (auto& q : requests) {
    q.reply(Response{}, make_serving_error(code, message));
  }
}

}  // namespace

FutureReply future_reply() {
  auto promise = std::make_shared<std::promise<Response>>();
  FutureReply out{nullptr, promise->get_future()};
  out.reply = [promise = std::move(promise)](Response&& response,
                                             std::exception_ptr error) {
    if (error) {
      promise->set_exception(std::move(error));
    } else {
      promise->set_value(std::move(response));
    }
  };
  return out;
}

AsyncEngine::AsyncEngine(std::shared_ptr<const core::BertModel> model,
                         AsyncEngineOptions opts)
    : opts_(std::move(opts)),
      engine_(std::move(model), opts_.engine) {
  if (opts_.max_queue < 1) {
    throw std::invalid_argument("AsyncEngineOptions: max_queue must be >= 1");
  }
  if (!(opts_.max_wait_seconds >= 0.0)) {
    throw std::invalid_argument(
        "AsyncEngineOptions: max_wait_seconds must be >= 0");
  }
  scheduler_ = std::thread([this] { scheduler_loop(); });
}

AsyncEngine::AsyncEngine(core::BertModel model, AsyncEngineOptions opts)
    : AsyncEngine(std::make_shared<const core::BertModel>(std::move(model)),
                  opts) {}

AsyncEngine::~AsyncEngine() { stop(); }

// Both public paths validate first: the throw must reach the submitting
// thread, not the scheduler — and before the backpressure wait or decline,
// so a malformed request neither blocks behind a full queue nor looks like
// transient backpressure.
std::future<Response> AsyncEngine::submit(Request req) {
  validate_request_shape("AsyncEngine::submit", req.hidden, hidden());
  FutureReply r = future_reply();
  while (!submit(req, r.reply, std::nullopt)) {
    if (!wait_for_space()) {
      throw ShutdownError("AsyncEngine::submit: engine is stopped");
    }
  }
  return std::move(r.future);
}

std::future<Response> AsyncEngine::submit(Tensor<fp16_t> hidden) {
  return submit(Request{std::move(hidden)});
}

std::optional<std::future<Response>> AsyncEngine::try_submit(Request req) {
  validate_request_shape("AsyncEngine::try_submit", req.hidden, hidden());
  FutureReply r = future_reply();
  if (!submit(req, r.reply, std::nullopt)) return std::nullopt;
  return std::move(r.future);
}

bool AsyncEngine::submit(Request& req, Reply& reply,
                         std::optional<RequestId> id) {
  MutexLock lock(mutex_);
  if (stop_ || queue_.size() >= opts_.max_queue) return false;
  Queued q;
  q.request.id = id.has_value() ? *id : next_id_++;
  q.request.hidden = std::move(req.hidden);
  q.request.session = std::move(req.session);
  q.request.arrival = Clock::now();
  q.reply = std::move(reply);
  q.deadline = req.deadline;
  queued_tokens_ += q.request.hidden.dim(0);
  if (q.deadline.has_value()) ++deadline_count_;
  queue_.push_back(std::move(q));
  Instruments& ins = instruments();
  ins.submitted.inc();
  ins.queue_depth.add(1);
  cv_work_.notify_one();
  return true;
}

bool AsyncEngine::wait_for_space() {
  MutexLock lock(mutex_);
  while (!stop_ && queue_.size() >= opts_.max_queue) cv_space_.wait(mutex_);
  return !stop_;
}

void AsyncEngine::stop() {
  {
    MutexLock lock(mutex_);
    stop_ = true;
  }
  cv_work_.notify_all();
  cv_space_.notify_all();
  // Concurrent stop() calls both reach here; the join mutex makes the
  // joinable-check-then-join atomic (the loser sees joinable() == false and
  // returns once the winner's join completed, i.e. after the drain).
  MutexLock jlock(join_mutex_);
  if (scheduler_.joinable()) scheduler_.join();
}

bool AsyncEngine::stopped() const {
  MutexLock lock(mutex_);
  return stop_;
}

std::size_t AsyncEngine::pending() const {
  MutexLock lock(mutex_);
  return queue_.size() + in_flight_;
}

long long AsyncEngine::pending_tokens() const {
  MutexLock lock(mutex_);
  return queued_tokens_ + in_flight_tokens_;
}

EngineStats AsyncEngine::stats() const {
  MutexLock lock(mutex_);
  return stats_;
}

ReplicaHealth AsyncEngine::health() const {
  MutexLock lock(mutex_);
  return health_;
}

std::vector<std::size_t> AsyncEngine::admission_order_locked() const {
  std::vector<std::size_t> order(queue_.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  if (deadline_count_ > 0) {
    // Earliest-deadline-first; stable_sort keeps queue position as the tie
    // break, so deadline-less requests stay FIFO among themselves (ordered
    // last via the max() sentinel).
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) {
                       return queue_[a].deadline.value_or(Deadline::max()) <
                              queue_[b].deadline.value_or(Deadline::max());
                     });
  }
  return order;
}

Deadline AsyncEngine::earliest_deadline_locked() const {
  Deadline earliest = Deadline::max();
  for (const Queued& q : queue_) {
    if (q.deadline.has_value() && *q.deadline < earliest) {
      earliest = *q.deadline;
    }
  }
  return earliest;
}

// A round is "full" when waiting longer cannot improve the batch: the
// request cap is reached, admission stopped short of the whole queue, the
// admitted prefix already carries max_batch_tokens (no later arrival of any
// length could join — e.g. a lone oversized request should not sit out the
// window), or the bounded queue itself is full (blocked submitters cannot
// add work until the round dispatches). Admission walks the deadline-aware
// order, so the predicate agrees with the round the pop actually forms.
bool AsyncEngine::round_available_locked() const {
  const std::vector<std::size_t> order = admission_order_locked();
  long long admitted_tokens = 0;
  const std::size_t count = admit_count(
      queue_.size(), opts_.engine.max_batch_requests,
      opts_.engine.max_batch_tokens,
      [&](std::size_t i) { return queue_[order[i]].request.hidden.dim(0); },
      &admitted_tokens);
  return count ==
             static_cast<std::size_t>(opts_.engine.max_batch_requests) ||
         count < queue_.size() ||
         (opts_.engine.max_batch_tokens > 0 &&
          admitted_tokens >= opts_.engine.max_batch_tokens) ||
         queue_.size() >= opts_.max_queue;
}

void AsyncEngine::scheduler_loop() {
  MutexLock lock(mutex_);
  for (;;) {
    while (!stop_ && queue_.empty()) cv_work_.wait(mutex_);
    if (queue_.empty()) {
      if (stop_) break;
      continue;
    }

    // Batching window: hold the round open until it is full, the window
    // since the oldest arrival closes, a queued SLO deadline comes due, or
    // shutdown starts the drain. Recomputed per wakeup — new arrivals can
    // move both the oldest-arrival anchor and the earliest deadline.
    if (!stop_ && opts_.max_wait_seconds > 0.0) {
      while (!stop_ && !queue_.empty() && !round_available_locked()) {
        const auto window = std::chrono::duration_cast<Clock::duration>(
            std::chrono::duration<double>(opts_.max_wait_seconds));
        Clock::time_point close = queue_.front().request.arrival + window;
        if (deadline_count_ > 0) {
          // Dispatch with at least the batching window of slack before the
          // earliest queued deadline: closing exactly at the deadline would
          // pop the round already late and shed a request an idle engine
          // had time to compute.
          close = std::min(close, earliest_deadline_locked() - window);
        }
        if (Clock::now() >= close) break;
        cv_work_.wait_until(mutex_, close);
      }
      if (queue_.empty()) continue;  // unreachable today; defensive
    }

    // The batching window for this round is closed from here on (whether it
    // expired, filled, or was never opened) — the first trace stage the
    // scheduler stamps. The lock is held from this stamp through the pop,
    // so no request can be admitted after "window close" yet trace an
    // earlier submit ordering.
    const auto t_window_close = Clock::now();

    // Pop the admitted requests in admission (FIFO or earliest-deadline-
    // first) order; submitters may refill the queue while the round
    // computes.
    const std::vector<std::size_t> order = admission_order_locked();
    std::size_t count = admit_count(
        queue_.size(), opts_.engine.max_batch_requests,
        opts_.engine.max_batch_tokens,
        [&](std::size_t i) { return queue_[order[i]].request.hidden.dim(0); });
    std::vector<Queued> round;
    round.reserve(count);
    if (deadline_count_ == 0) {
      // FIFO fast path: the admitted set is the queue front.
      for (std::size_t i = 0; i < count; ++i) {
        round.push_back(std::move(queue_.front()));
        queue_.pop_front();
      }
    } else {
      std::vector<char> taken(queue_.size(), 0);
      for (std::size_t i = 0; i < count; ++i) {
        taken[order[i]] = 1;
        round.push_back(std::move(queue_[order[i]]));
      }
      std::deque<Queued> rest;
      for (std::size_t i = 0; i < queue_.size(); ++i) {
        if (!taken[i]) rest.push_back(std::move(queue_[i]));
      }
      queue_.swap(rest);
    }
    long long round_tokens = 0;  // hiddens are moved out during compute
    for (const Queued& q : round) {
      round_tokens += q.request.hidden.dim(0);
      if (q.deadline.has_value()) --deadline_count_;
    }
    queued_tokens_ -= round_tokens;
    in_flight_tokens_ += round_tokens;
    in_flight_ += count;
    const auto t_admit = Clock::now();
    Instruments& ins = instruments();
    ins.queue_depth.add(-static_cast<double>(count));
    ins.in_flight.add(static_cast<double>(count));
    const auto round_start = Clock::now();
    lock.unlock();
    cv_space_.notify_all();

    // Shed before compute: a deadline that has already passed cannot be
    // met, so spending batch capacity on it would only delay live requests.
    // Deadline-less traffic never enters `shed`, preserving the bitwise
    // FIFO guarantee.
    std::vector<Queued> live;
    std::vector<Queued> shed;
    live.reserve(round.size());
    for (Queued& q : round) {
      if (q.deadline.has_value() && *q.deadline < round_start) {
        shed.push_back(std::move(q));
      } else {
        live.push_back(std::move(q));
      }
    }
    if (!shed.empty()) {
      // Fail the shed requests now, before the live round computes: the
      // decision is already final, and an SLO-aware caller (retry, hedging)
      // should not learn about it a full round late.
      long long shed_tokens = 0;
      for (const Queued& q : shed) shed_tokens += q.request.hidden.dim(0);
      lock.lock();
      count -= shed.size();
      round_tokens -= shed_tokens;
      in_flight_ -= shed.size();
      in_flight_tokens_ -= shed_tokens;
      // The inner engine is idle here (this thread owns it), so its stats
      // are a consistent snapshot to publish with the shed counted.
      engine_.stats_.deadline_shed += static_cast<long long>(shed.size());
      stats_ = engine_.stats();
      fail_each(shed, ErrorCode::kDeadlineExceeded,
                "AsyncEngine: request deadline passed before compute (shed)");
      lock.unlock();
      ins.in_flight.add(-static_cast<double>(shed.size()));
      failure_counter(ErrorCode::kDeadlineExceeded)
          .inc(static_cast<long long>(shed.size()));
    }

    // Compute outside the lock: the inner Engine is only ever touched here,
    // and runs the live round as one round of its own.
    std::vector<Engine::Pending> work;
    work.reserve(live.size());
    long long live_tokens = 0;
    for (Queued& q : live) {
      live_tokens += q.request.hidden.dim(0);
      work.push_back(std::move(q.request));
    }
    const auto t_compute_start = Clock::now();
    std::vector<Response> responses;
    std::exception_ptr error;
    try {
      // Injected replica faults for resilience tests (docs/ROBUSTNESS.md):
      // a stall and/or a thrown failure, scoped to this replica index. Both
      // land inside this try — the same catch that handles a real engine
      // failure handles them, so nothing escapes the scheduler thread.
      // Guarded on live work so an empty round (everything shed, spurious
      // wakeup) cannot consume a scripted fire budget without failing
      // anything — hit #k deterministically means "the k-th round that
      // actually computes".
      if (!live.empty()) {
        BT_FAULT_DELAY("serving.compute.delay", opts_.replica_index);
        BT_FAULT_THROW("serving.compute.fail", opts_.replica_index);
      }
      responses = engine_.run_round(work);
    } catch (...) {
      error = std::current_exception();
    }
    const auto t_compute_end = Clock::now();

    // Accounting and replies happen together under the lock, so pending()
    // never counts a request that already resolved (and never reports zero
    // while one is still unresolved).
    lock.lock();
    in_flight_ -= count;  // the live share; shed accounting settled above
    in_flight_tokens_ -= round_tokens;
    if (error) {
      // Keep typed serving errors (their code is the contract); wrap
      // anything untyped — an engine exception, an injected fault — as
      // InternalError so the failure carries kInternal end-to-end: the
      // wire frames it, and a retrying client can tell "this request
      // broke" (retryable) from "the server is going away" (not). The
      // round left the queue when it was popped, so a failure leaves
      // nothing behind for the next round.
      std::string detail;
      const ErrorCode code = error_code_of(error, ErrorCode::kInternal, &detail);
      const std::string message =
          code == ErrorCode::kInternal ? "AsyncEngine: round failed: " + detail
                                       : detail;
      health_.failed += static_cast<long long>(live.size());
      health_.consecutive_failures += static_cast<long long>(live.size());
      ins.failed.inc(static_cast<long long>(live.size()));
      failure_counter(code).inc(static_cast<long long>(live.size()));
      fail_each(live, code, message);
    } else {
      // run_round returns responses in round (dispatch) order, so replies
      // run in dispatch order — the resolution-order contract stop()'s
      // drain relies on.
      if (!live.empty()) {
        health_.completed += static_cast<long long>(live.size());
        health_.consecutive_failures = 0;
      }
      const auto resolved_at = Clock::now();
      const long long round_processed =
          engine_.stats().processed_tokens - stats_.processed_tokens;
      std::vector<obs::TraceRecord> traced;
      const bool tracing = obs::enabled() && !live.empty();
      if (tracing) traced.reserve(live.size());
      for (std::size_t i = 0; i < live.size(); ++i) {
        responses[i].replica = opts_.replica_index;
        if (live[i].deadline.has_value()) {
          (resolved_at <= *live[i].deadline)
              ? ++engine_.stats_.deadline_met
              : ++engine_.stats_.deadline_missed;
        }
        ins.queue_seconds.record_seconds(responses[i].queue_seconds);
        ins.e2e_seconds.record_seconds(
            std::chrono::duration<double>(resolved_at - work[i].arrival)
                .count());
        if (tracing) {
          obs::TraceRecord rec;
          rec.request_id = responses[i].id;
          rec.model = responses[i].model;
          if (responses[i].session.has_value()) {
            rec.session = *responses[i].session;
          }
          rec.replica = opts_.replica_index;
          rec.round = responses[i].round;
          rec.batch_requests = static_cast<int>(live.size());
          rec.valid_tokens = work[i].hidden.dim(0);
          rec.round_valid_tokens = live_tokens;
          rec.round_processed_tokens = round_processed;
          rec.t_submit = obs::trace_seconds(work[i].arrival);
          rec.t_window_close = obs::trace_seconds(t_window_close);
          rec.t_admit = obs::trace_seconds(t_admit);
          rec.t_dispatch = obs::trace_seconds(round_start);
          rec.t_compute_start = obs::trace_seconds(t_compute_start);
          rec.t_compute_end = obs::trace_seconds(t_compute_end);
          rec.t_replied = obs::trace_seconds(resolved_at);
          traced.push_back(std::move(rec));
        }
        live[i].reply(std::move(responses[i]), nullptr);
      }
      if (!live.empty()) {
        ins.compute_seconds.record_seconds(
            std::chrono::duration<double>(t_compute_end - t_compute_start)
                .count());
        ins.batch_occupancy.record(live.size());
      }
      // Ring insertion after the replies run: callers are not kept waiting
      // behind the trace mutex.
      obs::TraceRing& ring = obs::TraceRing::global();
      for (obs::TraceRecord& rec : traced) ring.record(std::move(rec));
    }
    ins.in_flight.add(-static_cast<double>(count));
    stats_ = engine_.stats();  // the round, its deadline counts included
  }

  // Only reachable with stop_ set and the queue observed empty, so every
  // accepted request has been replied to. Belt-and-braces: if a future code
  // path ever let the scheduler exit with queued requests, dropping their
  // replies would surface as std::future_error(broken_promise) at random
  // callers — fail each one loudly instead.
  if (!queue_.empty()) {
    Instruments& ins = instruments();
    ins.queue_depth.add(-static_cast<double>(queue_.size()));
    ins.failed.inc(static_cast<long long>(queue_.size()));
    failure_counter(ErrorCode::kShutdown)
        .inc(static_cast<long long>(queue_.size()));
    fail_each(queue_, ErrorCode::kShutdown,
              "AsyncEngine: scheduler exited with undispatched requests");
    queue_.clear();
    queued_tokens_ = 0;
    deadline_count_ = 0;
  }
}

}  // namespace bt::serving
