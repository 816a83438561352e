// Event-loop TCP front-end over serving::Service — sockets in, responses
// out.
//
// Until this layer, "serving" ended at a C++ future: every tier below
// (Engine -> AsyncEngine -> EnginePool -> Service) is an in-process API.
// Server makes connections the unit of load: a poll(2)-driven event loop
// accepts loopback TCP connections, speaks the length-prefixed protocol of
// net/protocol.h, and fronts one serving::Service.
//
//   serving::Service service(std::move(registry));
//   net::Server server(service);            // port 0 = kernel-assigned
//   server.start();
//   ... clients connect to 127.0.0.1:server.port() ...
//   server.stop();                          // then service.stop()
//
// Architecture (one thread per server, N connections each O(buffers)):
//
//   event-loop thread — the only thread that touches sockets. Non-blocking
//     accept/read/write via poll(). Each connection owns a frame Decoder
//     (recv() lands directly in its Buffer via reserve/commit) and a write
//     Buffer (the per-connection response queue). A decoded submit frame
//     becomes a serving::Request — token bytes memcpy'd straight from the
//     wire buffer into the Request tensor — and enters the service through
//     try_submit(), the non-blocking path: a full replica queue comes back
//     as an immediate kBackpressure response frame, so the accept loop
//     NEVER blocks behind the compute tier, no matter how overloaded the
//     fleet is. Malformed or oversized frames kill their connection (the
//     stream is unframeable), never the loop.
//
//   completions — pushed, never polled. Each accepted request carries a
//     serving::Reply that runs on the thread resolving it (a replica's
//     scheduler; the loop itself for an unknown model). It maps a failure
//     to its stable ErrorCode there — typed serving errors keep theirs,
//     anything else is kInternal — queues {connection, correlation, code,
//     Response} on a small completion sink and wakes the loop through a
//     self-pipe. The loop frames each completion onto its connection's
//     write queue (dropped and counted if the connection is gone) and
//     flushes as POLLOUT allows. poll() waits without a timeout unless an
//     idle timeout is set, then until the next quiet connection expires.
//
// Deadlines: a submit frame's deadline_ms starts counting at server
// receipt (serving::deadline_in), so the in-process shedding machinery —
// EDF admission, early window close, pre-compute shed — works unchanged
// for wire traffic; a shed request surfaces as a kDeadlineExceeded frame.
//
// Connection defenses (all off by default; docs/ROBUSTNESS.md): an idle
// timeout reaps connections with nothing in flight that have not sent a
// byte in idle_timeout_seconds; a write-queue byte cap disconnects a slow
// peer whose unread responses would otherwise grow server memory without
// bound; a per-connection in-flight cap answers the frame that would
// exceed it with kBackpressure instead of queueing it. Each defense kills
// (or declines on) exactly one connection — the loop and every other
// connection are untouched.
//
// Shutdown: stop() closes the completion sink (which wakes the loop), joins
// the loop, and closes the listener and every connection. Requests still
// in flight resolve later in the service; their replies hold the sink, not
// the server, so they run safely after stop() or ~Server and are dropped,
// because the peers they belong to are disconnected anyway. For a graceful
// drain, stop the clients first (or let them collect their responses),
// then the server, then the service.
#pragma once

#include <cstdint>
#include <memory>

#include "common/annotations.h"
#include "common/mutex.h"
#include "net/protocol.h"
#include "obs/fields.h"
#include "serving/service.h"

namespace bt::net {

// Fixed limits, not options: a listen backlog of 64, at most 256 open
// connections, and frames capped at kDefaultMaxFrameBytes.
struct ServerOptions {
  std::uint16_t port = 0;    // 0 = kernel-assigned; see Server::port()
  // IPv4 dotted-quad the listen socket binds to. The loopback default keeps
  // a bare Server private to the machine; "0.0.0.0" serves every interface
  // (the simulator/bt_stats --bind flag). Rejected at start() when it does
  // not parse.
  std::string bind_addr = "127.0.0.1";
  // Close a connection with nothing in flight and nothing queued that has
  // not sent a byte for this long (0 = never); the loop wakes for the
  // earliest expiry, to the millisecond.
  double idle_timeout_seconds = 0;
  // Slow-peer defense: when a connection's queued response bytes still
  // exceed this after a flush attempt — the kernel refused the bytes, so
  // the peer is not draining — disconnect it (0 = unbounded). Sized in
  // multiples of the largest expected response frame.
  std::size_t max_write_queue_bytes = 0;
  // Per-connection concurrency cap: a submit frame that would put more
  // than this many correlations in flight on one connection is answered
  // with kBackpressure instead of queued (0 = unbounded).
  std::size_t max_inflight_per_connection = 0;
};

// Cumulative wire-level accounting (monotonic except active_connections).
struct ServerStats {
  long long accepted_connections = 0;
  long long active_connections = 0;
  long long frames_received = 0;        // well-formed submit frames
  long long responses_sent = 0;         // kOk frames queued
  long long error_frames_sent = 0;      // all non-kOk frames queued
  long long backpressure_replies = 0;   // kBackpressure subset of the above
  long long protocol_errors = 0;        // connections killed by bad framing
  long long dropped_completions = 0;    // response arrived after its
                                        // connection closed
  long long idle_disconnects = 0;       // reaped by idle_timeout_seconds
  long long slow_peer_disconnects = 0;  // write queue over its byte cap
  long long inflight_capped = 0;        // kBackpressure subset: frames
                                        // declined by the in-flight cap
  long long stats_requests = 0;         // well-formed kStatsRequest frames

  // Published as "net.server.<name>" by every stats pull (obs/fields.h).
  static constexpr std::tuple kFields{
      obs::Field{"accepted_connections", &ServerStats::accepted_connections},
      obs::Field{"active_connections", &ServerStats::active_connections},
      obs::Field{"frames_received", &ServerStats::frames_received},
      obs::Field{"responses_sent", &ServerStats::responses_sent},
      obs::Field{"error_frames_sent", &ServerStats::error_frames_sent},
      obs::Field{"backpressure_replies", &ServerStats::backpressure_replies},
      obs::Field{"protocol_errors", &ServerStats::protocol_errors},
      obs::Field{"dropped_completions", &ServerStats::dropped_completions},
      obs::Field{"idle_disconnects", &ServerStats::idle_disconnects},
      obs::Field{"slow_peer_disconnects",
                 &ServerStats::slow_peer_disconnects},
      obs::Field{"inflight_capped", &ServerStats::inflight_capped},
      obs::Field{"stats_requests", &ServerStats::stats_requests},
  };
};

class Server {
 public:
  // The service must outlive the server (construct service first, stop the
  // server first).
  explicit Server(serving::Service& service, ServerOptions opts = {});
  ~Server();  // stop()

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  // Binds bind_addr:port, starts listening, and spawns the event-loop
  // thread. Throws std::runtime_error when the socket setup fails (port in
  // use, fd exhaustion). Not restartable after stop().
  void start() BT_EXCLUDES(lifecycle_mutex_);

  // Closes the listener and every connection, joins the loop thread.
  // Idempotent, safe from any thread.
  void stop() BT_EXCLUDES(lifecycle_mutex_);

  bool running() const BT_EXCLUDES(lifecycle_mutex_);

  // The bound port — the kernel's pick when options().port was 0. Valid
  // after start().
  std::uint16_t port() const BT_EXCLUDES(lifecycle_mutex_);

  // Snapshot of the wire-level counters; no side effects. The registry's
  // "net.server.*" gauges are published from the same struct by the stats
  // pull handler (docs/OBSERVABILITY.md rule 3).
  ServerStats stats() const BT_EXCLUDES(lifecycle_mutex_);
  const ServerOptions& options() const { return opts_; }

 private:
  struct Impl;  // sockets, poll loop, completion sink (server.cc)
  serving::Service& service_;
  ServerOptions opts_;
  // The Impl pointer is lifecycle-guarded; the loop thread holds a raw
  // Impl* captured at start(), whose internals carry their own contracts
  // (loop-thread capability, stats mutex — server.cc). Replies never hold
  // the Impl, only its shared completion sink.
  std::unique_ptr<Impl> impl_ BT_GUARDED_BY(lifecycle_mutex_);
  mutable Mutex lifecycle_mutex_;  // start/stop serialization
};

}  // namespace bt::net
