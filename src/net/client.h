// Blocking loopback client for the net::Server wire protocol.
//
// One Client owns one TCP connection. submit_serving() encodes a submit
// frame, writes it on the caller's thread, and returns a future; a receiver
// thread blocks on recv(), decodes response frames, and resolves each
// future by correlation id — so any number of requests can be in flight
// on one connection and responses resolve in whatever order the server
// finishes them (the serving tier's out-of-order completion is visible
// end-to-end).
//
// The future is the one the in-process tiers return: a kOk frame resolves
// to a serving::Response carrying the output and its provenance (model,
// replica, session); any other code rejects the future with the SAME typed
// exception Service::submit would have delivered
// (serving::make_serving_error), so code written against Service futures
// (replay_trace, the simulator, the load generator) runs unchanged over
// sockets. The stable code is serving::error_code_of(exception) and the
// server's diagnostic is what().
//
// Retries (off by default; docs/ROBUSTNESS.md is the normative spec):
// with RetryPolicy::max_attempts > 1 the client re-sends requests that
// came back kBackpressure or kInternal after a deterministic exponential
// backoff (retry_backoff_ms), and transparently reconnects when the
// connection drops — pending requests are re-sent on the new connection.
// Every attempt uses a fresh correlation id and a deadline reduced by the
// time already spent, and no retry is ever scheduled past the request's
// deadline: the future a caller holds resolves exactly once either way.
// kShutdown and the other codes are never retried — the server said this
// request can not succeed here.
//
// Thread-safety: submit_serving() may be called from any number
// of threads (writes are serialized internally). close() unblocks the
// receiver; futures still pending when the connection permanently dies
// are rejected with serving::ShutdownError.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <future>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/annotations.h"
#include "common/mutex.h"
#include "net/protocol.h"
#include "obs/fields.h"
#include "serving/engine.h"

namespace bt::net {

// One request through the client, in caller-owned storage. deadline_ms is
// relative to *server* receipt (the wire contract), 0 = no deadline.
struct WireRequest {
  std::string model;    // empty = the service's default model
  std::string session;  // empty = sessionless
  std::uint32_t deadline_ms = 0;
  Tensor<fp16_t> hidden;  // [rows, cols] fp16 token matrix
};

// The server's telemetry snapshot (a decoded kStatsResponse), copied out
// of the wire buffer into owning strings: the metric registry as one JSON
// object and — when requested — the sampled trace ring as JSONL.
struct WireStats {
  std::string metrics_json;
  std::string traces_jsonl;
};

// When and how the client retries. max_attempts counts sends of one
// request (1 = retries off entirely). With retries on, kBackpressure and
// kInternal replies are re-sent and a lost connection is reconnected; the
// backoff before attempt k+1 is
//
//   min(initial * 2^(k-1), max) * (1 + jitter * u)
//
// with u a deterministic hash of (seed, the request's first correlation
// id, k) in [-1, 1) — so a fixed seed replays the exact same schedule,
// which is what lets the chaos tests assert bitwise-identical outcomes.
struct RetryPolicy {
  int max_attempts = 1;            // total sends per request; 1 = off
  double initial_backoff_ms = 5.0;
  double max_backoff_ms = 200.0;
  double jitter = 0.25;            // +/- fraction of the backoff
  std::uint64_t seed = 1;
};

// The deterministic backoff (milliseconds) before send attempt
// `attempt`+1, where `attempt` >= 1 is how many sends have happened and
// `correlation` is the request's first correlation id. Pure function —
// exposed so tests can assert the schedule the client will use.
double retry_backoff_ms(const RetryPolicy& policy, std::uint64_t correlation,
                        int attempt);

// Response frames above kDefaultMaxFrameBytes are a protocol error.
struct ClientOptions {
  RetryPolicy retry;
  // IPv4 dotted-quad of the server (bt_stats --bind).
  std::string host = "127.0.0.1";
};

// Cumulative retry accounting of one client (monotonic); a process with
// several clients sums them with obs::merge_fields.
struct ClientStats {
  long long retries = 0;     // frames re-sent (error replies + reconnects)
  long long reconnects = 0;  // successful reconnections

  static constexpr std::tuple kFields{
      obs::Field{"retries", &ClientStats::retries},
      obs::Field{"reconnects", &ClientStats::reconnects},
  };
};

class Client {
 public:
  // Connects to opts.host:port (blocking) and starts the receiver thread
  // (plus a retry timer thread when retry.max_attempts > 1). Throws
  // std::runtime_error when the connection is refused.
  explicit Client(std::uint16_t port, ClientOptions opts = {});
  ~Client();  // close()

  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  // Sends `req`. Throws serving::ShutdownError when the connection is
  // permanently down.
  std::future<serving::Response> submit_serving(WireRequest req);

  // Pulls the server's telemetry snapshot (a kStatsRequest frame). Stats
  // pulls are diagnostics, not work: they are never retried and do not
  // survive a reconnect — the future rejects with serving::ShutdownError
  // when the connection drops (or close() lands) before the reply.
  std::future<WireStats> fetch_stats(bool include_traces = false);

  // Half-closes the connection (the server sees EOF after draining),
  // rejects every still-pending future with serving::ShutdownError, and
  // joins the worker threads. Idempotent.
  void close();

  // False once the connection is permanently down — closed by the caller,
  // or retries exhausted / disabled after a connection loss.
  bool connected() const { return !closed_.load(); }

  // Snapshot of this client's retry counters; no side effects.
  ClientStats stats() const;

 private:
  using Clock = std::chrono::steady_clock;

  // A pending request and the promise it resolves. The request itself
  // rides along so a retry can re-encode it; attempts/first_sent/
  // first_correlation enforce the attempt and deadline budgets across
  // retries.
  //
  // Ownership rule (what makes resolution exactly-once under faults):
  // while an attempt is in flight the op lives in pending_ keyed by that
  // attempt's correlation id; whoever erases it — the receiver matching a
  // response, the reconnect sweep, a fail_pending — owns resolving or
  // re-sending it, and nobody else may touch it.
  struct PendingOp {
    std::promise<serving::Response> promise;
    WireRequest request;
    int attempts = 0;  // sends so far (start_request increments)
    std::uint64_t first_correlation = 0;
    Clock::time_point first_sent{};
  };
  struct RetryEntry {
    Clock::time_point due;
    PendingOp op;
  };
  enum class ConnEnd { kLost, kProtocol, kClosed };

  // Assigns a fresh correlation, encodes (deadline reduced by time already
  // spent), registers the op, writes the frame. A failed write leaves the
  // op registered — the receiver's connection-loss path owns it then.
  void start_request(PendingOp op) BT_EXCLUDES(pending_mutex_, write_mutex_);
  bool write_frame(Buffer& wire) BT_EXCLUDES(write_mutex_);
  void receive_loop() BT_EXCLUDES(pending_mutex_, write_mutex_, retry_mutex_);
  ConnEnd run_connection(std::string* why) BT_EXCLUDES(pending_mutex_);
  // Reconnects with backoff (within the attempt budget), sweeps every
  // pending op onto the new connection, re-sends the ones whose budgets
  // allow it. False when reconnection failed (the client is then dead).
  bool reconnect_and_resend()
      BT_EXCLUDES(pending_mutex_, write_mutex_, retry_mutex_);
  void schedule_retry(PendingOp op, double backoff_ms)
      BT_EXCLUDES(retry_mutex_);
  void retry_loop() BT_EXCLUDES(retry_mutex_);
  // Budget-checked re-send: fails the op instead when the client is dead,
  // the attempt budget is spent, or the deadline has passed.
  void resend(PendingOp op, const char* budget_why)
      BT_EXCLUDES(pending_mutex_, write_mutex_);
  static void fail_op(PendingOp op, serving::ErrorCode code,
                      const std::string& why);
  void fail_pending(const std::string& why) BT_EXCLUDES(pending_mutex_);
  // Receiver-side permanent teardown: marks the client dead, stops the
  // retry worker, fails everything pending.
  void shutdown_from_receiver(const std::string& why)
      BT_EXCLUDES(pending_mutex_, retry_mutex_);

  std::uint16_t port_ = 0;
  ClientOptions opts_;
  // The socket. Swapped by the receiver thread on reconnect (under
  // write_mutex_, so no send is mid-flight across a swap); -1 while down.
  std::atomic<int> fd_{-1};
  std::atomic<bool> closed_{false};        // permanently down
  std::atomic<bool> close_called_{false};  // close() idempotency
  std::thread receiver_;
  std::thread retry_worker_;  // only started when retries are on
  std::atomic<std::uint64_t> next_correlation_{1};
  std::atomic<long long> retries_{0};
  std::atomic<long long> reconnects_{0};

  // Lock order: write_mutex_ before pending_mutex_ (nested only by the
  // reconnect sweep); retry_mutex_ is a leaf.
  Mutex write_mutex_;  // serializes frame writes and fd swaps
  Mutex pending_mutex_;
  std::unordered_map<std::uint64_t, PendingOp> pending_
      BT_GUARDED_BY(pending_mutex_);
  // Stats pulls awaiting their kStatsResponse, keyed by correlation. Kept
  // apart from pending_: they never retry, never re-send on reconnect, and
  // resolve to a different type.
  std::unordered_map<std::uint64_t, std::promise<WireStats>> pending_stats_
      BT_GUARDED_BY(pending_mutex_);

  Mutex retry_mutex_;
  CondVar retry_cv_;  // retry worker timer + reconnect backoff sleeps
  // Min-heap by due time (std::push_heap/pop_heap with a > comparator).
  std::vector<RetryEntry> retry_heap_ BT_GUARDED_BY(retry_mutex_);
  bool retry_stop_ BT_GUARDED_BY(retry_mutex_) = false;

  Decoder decoder_;  // receiver-thread only; reset per reconnect
};

}  // namespace bt::net
