#include "net/server.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <climits>
#include <cmath>
#include <cstring>
#include <deque>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/annotations.h"
#include "common/fault.h"
#include "common/mutex.h"
#include "common/thread_checker.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace bt::net {

namespace {

constexpr std::size_t kRecvChunk = 16384;
constexpr int kListenBacklog = 64;
// Past this many open connections the listener leaves the poll set and
// new peers wait in the kernel backlog.
constexpr std::size_t kMaxConnections = 256;

[[noreturn]] void throw_errno(const char* what) {
  throw std::runtime_error(std::string("net::Server: ") + what + ": " +
                           std::strerror(errno));
}

// Every error frame queued on the wire, by stable code — the wire-level
// twin of the scheduler's serving.errors.* family (a backpressure decline
// or duplicate correlation never reaches an AsyncEngine, so only this
// layer can count it).
obs::Counter& wire_error_counter(serving::ErrorCode code) {
  using serving::ErrorCode;
  auto& reg = obs::MetricRegistry::global();
  static obs::Counter& unknown_model =
      reg.counter("net.server.errors.unknown_model");
  static obs::Counter& duplicate_id =
      reg.counter("net.server.errors.duplicate_id");
  static obs::Counter& backpressure =
      reg.counter("net.server.errors.backpressure");
  static obs::Counter& deadline =
      reg.counter("net.server.errors.deadline_exceeded");
  static obs::Counter& shutdown = reg.counter("net.server.errors.shutdown");
  static obs::Counter& internal = reg.counter("net.server.errors.internal");
  switch (code) {
    case ErrorCode::kUnknownModel:
      return unknown_model;
    case ErrorCode::kDuplicateId:
      return duplicate_id;
    case ErrorCode::kBackpressure:
      return backpressure;
    case ErrorCode::kDeadlineExceeded:
      return deadline;
    case ErrorCode::kShutdown:
      return shutdown;
    default:
      return internal;
  }
}

// One resolved request on its way to the event loop.
struct Completion {
  std::uint64_t conn_id = 0;
  std::uint64_t correlation = 0;
  serving::ErrorCode error = serving::ErrorCode::kOk;
  std::string message;         // error detail when error != kOk
  serving::Response response;  // when error == kOk
};

// The hand-off from the threads that resolve requests to the event loop.
// Replies hold it by shared_ptr, never the Server's Impl: one can run after
// stop() or ~Server (the service outlives the server), and then finds the
// sink closed. Its mutex is a leaf, taken under AsyncEngine::mutex_.
class CompletionSink {
 public:
  explicit CompletionSink(int wake_fd) : wake_fd_(wake_fd) {}
  ~CompletionSink() { close(); }
  CompletionSink(const CompletionSink&) = delete;
  CompletionSink& operator=(const CompletionSink&) = delete;

  // The body of every server reply, on the resolving thread: the error is
  // read by the thread that made it. Never throws, takes no other lock.
  void push(std::uint64_t conn_id, std::uint64_t correlation,
            serving::Response&& response, std::exception_ptr error) noexcept
      BT_EXCLUDES(mutex_) {
    Completion c;
    c.conn_id = conn_id;
    c.correlation = correlation;
    if (error) {
      // Typed serving errors keep their stable code on the wire; anything
      // else is kInternal — this request broke, the server still serves.
      c.error = serving::error_code_of(error, serving::ErrorCode::kInternal,
                                       &c.message);
    } else {
      c.response = std::move(response);
    }
    MutexLock lock(mutex_);
    if (wake_fd_ < 0) return;  // server stopped: nobody to answer
    queue_.push_back(std::move(c));
    // One wake byte per empty -> non-empty edge: the loop drains the pipe
    // before it takes the queue, so later pushes ride the same wake.
    if (queue_.size() == 1) {
      const char byte = 'w';
      // EAGAIN means a wake byte is already pending — exactly as good.
      [[maybe_unused]] ssize_t n = ::write(wake_fd_, &byte, 1);
    }
  }

  std::deque<Completion> take() BT_EXCLUDES(mutex_) {
    MutexLock lock(mutex_);
    return std::exchange(queue_, {});
  }

  // Closing the write end wakes the loop for good (POLLHUP); what is queued
  // and every later push is dropped.
  void close() BT_EXCLUDES(mutex_) {
    MutexLock lock(mutex_);
    if (wake_fd_ >= 0) ::close(wake_fd_);
    wake_fd_ = -1;
    queue_.clear();
  }

 private:
  Mutex mutex_;
  std::deque<Completion> queue_ BT_GUARDED_BY(mutex_);
  int wake_fd_ BT_GUARDED_BY(mutex_);  // pipe write end; -1 once closed
};

}  // namespace

struct Server::Impl {
  explicit Impl(serving::Service& service, const ServerOptions& opts)
      : service(service), opts(opts) {}

  serving::Service& service;
  ServerOptions opts;

  int listen_fd = -1;
  int wake_read_fd = -1;
  std::shared_ptr<CompletionSink> sink;  // owns the wake pipe's write end
  std::uint16_t bound_port = 0;
  bool started = false;
  bool stopped = false;
  std::atomic<bool> stop_flag{false};
  std::thread loop_worker;

  // ---- per-connection state (event-loop thread only) ----------------------
  //
  // "Only the event-loop thread touches sockets" is a capability, not a
  // lock: loop() attaches loop_thread on entry, every loop-only method is
  // BT_REQUIRES(loop_thread), and the connection map is BT_GUARDED_BY it —
  // so a refactor that calls any of this from another thread fails the
  // clang -Wthread-safety build, and debug builds assert the thread id.
  LoopThreadChecker loop_thread;

  struct Connection {
    int fd = -1;
    std::uint64_t id = 0;
    Decoder decoder;
    Buffer out;  // per-connection write queue of encoded response frames
    // Correlations awaiting a response; bounds duplicate detection to what
    // the protocol can actually disambiguate (a correlation is reusable
    // the moment its response frame is queued).
    std::unordered_set<std::uint64_t> inflight;
    bool read_closed = false;  // peer half-closed; flush, then drop
    // Slow-peer verdict: the write queue crossed its byte cap. The
    // connection is closed on the next loop pass — kept a flag (not an
    // immediate close) because the verdict can land mid-iteration while
    // the loop still holds references into the connection map.
    bool doomed = false;
    std::chrono::steady_clock::time_point last_read =
        std::chrono::steady_clock::now();

    Connection(int fd, std::uint64_t id) : fd(fd), id(id) {}
  };
  std::unordered_map<std::uint64_t, Connection> conns
      BT_GUARDED_BY(loop_thread);
  std::uint64_t next_conn_id BT_GUARDED_BY(loop_thread) = 1;

  mutable Mutex stats_mutex;
  ServerStats stats BT_GUARDED_BY(stats_mutex);

  // ---- socket setup -------------------------------------------------------

  void open_sockets() {
    listen_fd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC,
                         0);
    if (listen_fd < 0) throw_errno("socket");
    const int one = 1;
    ::setsockopt(listen_fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    if (::inet_pton(AF_INET, opts.bind_addr.c_str(), &addr.sin_addr) != 1) {
      throw std::invalid_argument("net::Server: bind_addr \"" +
                                  opts.bind_addr +
                                  "\" is not an IPv4 dotted-quad address");
    }
    addr.sin_port = htons(opts.port);
    if (::bind(listen_fd, reinterpret_cast<const sockaddr*>(&addr),
               sizeof addr) != 0) {
      throw_errno("bind");
    }
    if (::listen(listen_fd, kListenBacklog) != 0) throw_errno("listen");
    socklen_t len = sizeof addr;
    if (::getsockname(listen_fd, reinterpret_cast<sockaddr*>(&addr), &len) !=
        0) {
      throw_errno("getsockname");
    }
    bound_port = ntohs(addr.sin_port);

    int pipe_fds[2];
    if (::pipe2(pipe_fds, O_NONBLOCK | O_CLOEXEC) != 0) throw_errno("pipe2");
    wake_read_fd = pipe_fds[0];
    sink = std::make_shared<CompletionSink>(pipe_fds[1]);
  }

  // ---- event loop ---------------------------------------------------------

  void loop() BT_EXCLUDES(stats_mutex) {
    // This thread IS the loop-thread capability: every loop-only method
    // below becomes callable, and only from here.
    loop_thread.attach();
    std::vector<pollfd> fds;
    std::vector<std::uint64_t> fd_conn;  // conn id per pollfd slot (>= 2)
    int timeout_ms = -1;  // no connection yet, so none can idle out
    while (!stop_flag.load(std::memory_order_relaxed)) {
      fds.clear();
      fd_conn.clear();
      // Slot 0: listener — left out of the set at the connection cap, so a
      // flood parks in the backlog instead of busy-waking the loop.
      const bool accepting = conns.size() < kMaxConnections;
      fds.push_back({accepting ? listen_fd : -1, POLLIN, 0});
      fds.push_back({wake_read_fd, POLLIN, 0});
      for (auto& [id, conn] : conns) {
        short events = 0;
        if (!conn.read_closed) events |= POLLIN;
        if (!conn.out.empty()) events |= POLLOUT;
        fds.push_back({conn.fd, events, 0});
        fd_conn.push_back(id);
      }

      const int n = ::poll(fds.data(), fds.size(), timeout_ms);
      if (stop_flag.load(std::memory_order_relaxed)) break;
      // EINTR reports no events (every revents 0): carry on as on a timeout.
      if (n < 0 && errno != EINTR) break;  // unrecoverable: tear down

      if (fds[1].revents & POLLIN) {
        drain_wake_pipe();
        process_completions();
      }
      if (fds[0].revents & POLLIN) accept_new();

      std::vector<std::uint64_t> dead;
      for (std::size_t i = 2; i < fds.size(); ++i) {
        const auto it = conns.find(fd_conn[i - 2]);
        if (it == conns.end()) continue;  // closed by a completion flush
        Connection& conn = it->second;
        const short re = fds[i].revents;
        if (re == 0) continue;
        bool alive = true;
        if (re & (POLLERR | POLLNVAL)) {
          alive = false;
        } else {
          // Read before honouring POLLHUP: a peer that wrote then closed
          // still has frames in the kernel buffer.
          if (re & (POLLIN | POLLHUP)) alive = handle_readable(conn);
          if (alive && (re & POLLOUT)) alive = flush_writes(conn);
        }
        if (alive && conn.doomed) alive = false;  // slow peer: disconnect
        if (alive && conn.read_closed && conn.inflight.empty() &&
            conn.out.empty()) {
          alive = false;  // drained a half-closed connection: done
        }
        if (!alive) dead.push_back(conn.id);
      }
      for (std::uint64_t id : dead) close_conn(id);
      timeout_ms = reap_idle();
    }

    for (auto& [id, conn] : conns) ::close(conn.fd);
    {
      MutexLock lock(stats_mutex);
      stats.active_connections = 0;
    }
    conns.clear();
  }

  // Closes connections idle past opts.idle_timeout_seconds and returns how
  // long poll() may wait for the next one to expire. Only fully quiet ones
  // qualify: in-flight work or queued responses mean the peer is waiting on
  // us, not the reverse. Socket events, completions and stop() all
  // interrupt poll(), so with no quiet connection it waits forever (-1).
  int reap_idle() BT_REQUIRES(loop_thread) {
    if (!(opts.idle_timeout_seconds > 0)) return -1;
    const auto now = std::chrono::steady_clock::now();
    const std::chrono::duration<double> limit(opts.idle_timeout_seconds);
    double next = -1;  // seconds until the next quiet connection expires
    std::vector<std::uint64_t> idle;
    for (const auto& [id, conn] : conns) {
      if (!conn.inflight.empty() || !conn.out.empty()) continue;
      const double left =
          std::chrono::duration<double>(limit - (now - conn.last_read))
              .count();
      if (left <= 0) {
        idle.push_back(id);
      } else if (next < 0 || left < next) {
        next = left;
      }
    }
    const int timeout_ms =
        next < 0 ? -1
                 : static_cast<int>(std::min(std::ceil(next * 1e3),
                                             static_cast<double>(INT_MAX)));
    if (!idle.empty()) {
      MutexLock lock(stats_mutex);
      stats.idle_disconnects += static_cast<long long>(idle.size());
    }
    for (std::uint64_t id : idle) close_conn(id);
    return timeout_ms;
  }

  void drain_wake_pipe() BT_REQUIRES(loop_thread) {
    char sink[64];
    while (::read(wake_read_fd, sink, sizeof sink) > 0) {
    }
  }

  void accept_new() BT_REQUIRES(loop_thread) {
    while (conns.size() < kMaxConnections) {
      const int fd =
          ::accept4(listen_fd, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
      if (fd < 0) {
        if (errno == EINTR) continue;
        break;  // EAGAIN: backlog drained
      }
      const int one = 1;
      // Response frames are small and latency-bound; never Nagle them.
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
      const std::uint64_t id = next_conn_id++;
      conns.emplace(id, Connection(fd, id));
      MutexLock lock(stats_mutex);
      ++stats.accepted_connections;
      stats.active_connections = static_cast<long long>(conns.size());
    }
  }

  void close_conn(std::uint64_t id) BT_REQUIRES(loop_thread) {
    const auto it = conns.find(id);
    if (it == conns.end()) return;
    ::close(it->second.fd);
    conns.erase(it);
    // Replies still in flight for this connection find it gone; their
    // completions are dropped (and counted) when they surface.
    MutexLock lock(stats_mutex);
    stats.active_connections = static_cast<long long>(conns.size());
  }

  // Returns false when the connection must be closed.
  bool handle_readable(Connection& conn) BT_REQUIRES(loop_thread) {
    if (conn.doomed) return false;
    // Injected receive faults (docs/ROBUSTNESS.md): a reset kills this
    // connection exactly like ECONNRESET; a short read clamps one recv to
    // a single byte, exercising partial-frame reassembly in the decoder.
    if (BT_FAULT_POINT("net.server.read.reset")) return false;
    for (;;) {
      std::size_t want = kRecvChunk;
      if (BT_FAULT_POINT("net.server.read.short")) want = 1;
      std::byte* dst = conn.decoder.buffer().reserve(want);
      const ssize_t n = ::recv(conn.fd, dst, want, 0);
      if (n > 0) {
        conn.decoder.buffer().commit(static_cast<std::size_t>(n));
        conn.last_read = std::chrono::steady_clock::now();
        continue;
      }
      if (n == 0) {
        conn.read_closed = true;
        break;
      }
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      if (errno == EINTR) continue;
      return false;  // ECONNRESET and friends
    }

    Frame frame;
    for (;;) {
      const DecodeStatus status = conn.decoder.next(&frame);
      if (status == DecodeStatus::kNeedMore) return true;
      if (status == DecodeStatus::kError ||
          (frame.type != FrameType::kSubmit &&
           frame.type != FrameType::kStatsRequest)) {
        // Unframeable bytes — or a response frame, which only servers
        // send. Either way the stream is garbage: drop the connection,
        // keep the loop.
        MutexLock lock(stats_mutex);
        ++stats.protocol_errors;
        return false;
      }
      if (frame.type == FrameType::kStatsRequest) {
        // A write failure here is a dead socket, not a protocol error.
        if (!handle_stats(conn, frame.stats_request)) return false;
        continue;
      }
      if (!handle_submit(conn, frame.submit)) {
        MutexLock lock(stats_mutex);
        ++stats.protocol_errors;
        return false;
      }
    }
  }

  // Serializes the process-wide telemetry snapshot back to the peer. The
  // heavy lifting (registry JSON, trace JSONL) runs on the loop thread —
  // acceptable because stats pulls are rare (a CLI or a per-second poller)
  // and the blobs are KBs, not frames' worth of fp16. Returns false when
  // the connection must be closed (send failure).
  bool handle_stats(Connection& conn, const StatsRequestFrame& f)
      BT_REQUIRES(loop_thread) {
    // Publish the struct-tracked snapshots (service fleet + this server's
    // wire counters) so the serialized registry reflects this instant, then
    // snapshot everything in one pass.
    service.publish_stats();
    {
      MutexLock lock(stats_mutex);
      ++stats.stats_requests;
      obs::publish_fields(obs::MetricRegistry::global(), "net.server", stats);
    }
    StatsResponseFrame reply;
    reply.correlation = f.correlation;
    const std::string metrics = obs::MetricRegistry::global().to_json();
    std::string traces;
    if (f.include_traces != 0) traces = obs::TraceRing::global().to_jsonl();
    // Clamp rather than kill: a trace ring that would push the frame over
    // the peer's size limit is dropped (the metrics JSON — a few KB — is
    // the part a monitoring client cannot do without).
    const std::size_t fixed = 2 /*version+type*/ + 8 + 4 + 4;
    if (fixed + metrics.size() + traces.size() > kDefaultMaxFrameBytes) {
      traces.clear();
    }
    reply.metrics_json = metrics;
    reply.traces_jsonl = traces;
    encode_stats_response(conn.out, reply);
    enforce_write_cap(conn);
    if (conn.doomed) return false;
    // Flush eagerly, like a completion: a stats poller should not wait a
    // poll() round for POLLOUT.
    return flush_writes(conn);
  }

  // Returns false on a protocol violation (caller closes the connection).
  bool handle_submit(Connection& conn, const SubmitFrame& f)
      BT_REQUIRES(loop_thread) {
    {
      MutexLock lock(stats_mutex);
      ++stats.frames_received;
    }
    // A token matrix with no rows (or no columns) can never be a valid
    // request; the width check against the resolved model's hidden size
    // happens inside the service, where the model is known.
    if (f.rows < 1 || f.cols < 1) return false;
    if (conn.inflight.count(f.correlation) != 0) {
      // The one source of kDuplicateId (in-process ids are assigned, so
      // they cannot collide); the connection survives — the frame itself
      // was well-formed.
      queue_error(conn, f.correlation, serving::ErrorCode::kDuplicateId,
                  "correlation id already in flight on this connection");
      return true;
    }
    if (opts.max_inflight_per_connection > 0 &&
        conn.inflight.size() >= opts.max_inflight_per_connection) {
      // Same decline a full replica queue produces: the client's retry
      // machinery already speaks kBackpressure.
      queue_error(conn, f.correlation, serving::ErrorCode::kBackpressure,
                  "per-connection in-flight limit reached; retry");
      MutexLock lock(stats_mutex);
      ++stats.backpressure_replies;
      ++stats.inflight_capped;
      return true;
    }

    serving::Request req;
    req.hidden = Tensor<fp16_t>(
        {static_cast<std::int64_t>(f.rows), static_cast<std::int64_t>(f.cols)});
    // The one copy between socket and compute: wire token bytes land
    // directly in the Request tensor's storage.
    std::memcpy(req.hidden.data(), f.tokens, f.token_bytes());
    if (!f.model.empty()) req.model = std::string(f.model);
    if (!f.session.empty()) req.session = std::string(f.session);
    if (f.deadline_ms > 0) {
      req.deadline = serving::deadline_in(f.deadline_ms * 1e-3);
    }

    // The reply runs on the resolving thread and holds the sink, never
    // this Impl: it can fire after the server is gone.
    serving::Reply reply = [sink = sink, conn_id = conn.id,
                            correlation = f.correlation](
                               serving::Response&& response,
                               std::exception_ptr error) {
      sink->push(conn_id, correlation, std::move(response), std::move(error));
    };
    bool accepted = false;
    try {
      // The non-blocking path, always: the event loop must stay responsive
      // under any fleet load. (An unknown model runs the reply at once, on
      // this thread, and is framed like any other completion.)
      accepted = service.try_submit(std::move(req), std::move(reply));
    } catch (const std::exception&) {
      // invalid_argument here means the frame lied about its token matrix
      // (wrong width for the resolved model): a client bug, handled like
      // any other malformed traffic.
      return false;
    }
    if (!accepted) {
      const bool shutdown = service.stopped();
      queue_error(conn, f.correlation,
                  shutdown ? serving::ErrorCode::kShutdown
                           : serving::ErrorCode::kBackpressure,
                  shutdown ? "service is stopped"
                           : "replica queue full; retry");
      if (!shutdown) {
        MutexLock lock(stats_mutex);
        ++stats.backpressure_replies;
      }
      return true;
    }
    // The completion cannot overtake this insert: only this thread takes
    // it from the sink.
    conn.inflight.insert(f.correlation);
    return true;
  }

  void queue_error(Connection& conn, std::uint64_t correlation,
                   serving::ErrorCode code, std::string_view message)
      BT_REQUIRES(loop_thread) {
    ResponseFrame f;
    f.correlation = correlation;
    f.error = code;
    f.message = message;
    encode_response(conn.out, f);
    enforce_write_cap(conn);
    wire_error_counter(code).inc();
    MutexLock lock(stats_mutex);
    ++stats.error_frames_sent;
  }

  // Applied after every frame is queued: a peer that is not draining its
  // responses gets disconnected instead of growing server memory without
  // bound. The verdict only counts bytes the kernel refuses to accept —
  // one flush attempt runs first, so a healthy peer whose single response
  // momentarily exceeds the cap is never punished for the loop's own
  // queue-then-flush ordering.
  void enforce_write_cap(Connection& conn) BT_REQUIRES(loop_thread) {
    if (opts.max_write_queue_bytes == 0 || conn.doomed) return;
    if (conn.out.size() <= opts.max_write_queue_bytes) return;
    if (!flush_writes(conn)) {
      conn.doomed = true;  // already dead, not slow; closed next pass
      return;
    }
    if (conn.out.size() <= opts.max_write_queue_bytes) return;
    conn.doomed = true;
    MutexLock lock(stats_mutex);
    ++stats.slow_peer_disconnects;
  }

  void process_completions() BT_REQUIRES(loop_thread) {
    std::deque<Completion> batch = sink->take();
    std::vector<std::uint64_t> dead;
    for (Completion& c : batch) {
      const auto it = conns.find(c.conn_id);
      if (it == conns.end()) {
        MutexLock lock(stats_mutex);
        ++stats.dropped_completions;
        continue;
      }
      Connection& conn = it->second;
      conn.inflight.erase(c.correlation);
      if (c.error == serving::ErrorCode::kOk) {
        const serving::Response& r = c.response;
        ResponseFrame f;
        f.correlation = c.correlation;
        f.error = serving::ErrorCode::kOk;
        f.replica = r.replica;
        f.model = r.model;
        if (r.session.has_value()) f.session = *r.session;
        f.rows = static_cast<std::uint32_t>(r.output.dim(0));
        f.cols = static_cast<std::uint32_t>(r.output.dim(1));
        f.tokens = reinterpret_cast<const std::byte*>(r.output.data());
        encode_response(conn.out, f);
        enforce_write_cap(conn);
        {
          MutexLock lock(stats_mutex);
          ++stats.responses_sent;
        }
      } else {
        queue_error(conn, c.correlation, c.error, c.message);
      }
      // Flush eagerly: waiting for POLLOUT would add a poll() round to
      // every response. A doomed (slow-peer) connection is not worth
      // flushing — it goes straight to the dead list.
      if (conn.doomed || !flush_writes(conn) ||
          (conn.read_closed && conn.inflight.empty() && conn.out.empty())) {
        dead.push_back(conn.id);
      }
    }
    for (std::uint64_t id : dead) close_conn(id);
  }

  // Returns false when the connection must be closed.
  bool flush_writes(Connection& conn) BT_REQUIRES(loop_thread) {
    // Injected send faults (docs/ROBUSTNESS.md): a reset kills the
    // connection like EPIPE; a stall pretends the kernel buffer is full
    // (bytes stay queued — how slow peers present); a short write clamps
    // one send to a single byte.
    if (BT_FAULT_POINT("net.server.write.reset")) return false;
    while (!conn.out.empty()) {
      if (BT_FAULT_POINT("net.server.write.stall")) return true;
      std::size_t len = conn.out.size();
      if (BT_FAULT_POINT("net.server.write.short")) len = 1;
      const ssize_t n = ::send(conn.fd, conn.out.data(), len, MSG_NOSIGNAL);
      if (n > 0) {
        conn.out.consume(static_cast<std::size_t>(n));
        continue;
      }
      if (errno == EAGAIN || errno == EWOULDBLOCK) return true;
      if (errno == EINTR) continue;
      return false;  // EPIPE, ECONNRESET
    }
    return true;
  }
};

Server::Server(serving::Service& service, ServerOptions opts)
    : service_(service), opts_(opts) {
  if (!(opts_.idle_timeout_seconds >= 0)) {
    throw std::invalid_argument(
        "ServerOptions: idle_timeout_seconds must be >= 0");
  }
}

Server::~Server() { stop(); }

void Server::start() {
  MutexLock lock(lifecycle_mutex_);
  if (impl_ != nullptr) {
    throw std::runtime_error("net::Server: start() called twice");
  }
  auto impl = std::make_unique<Impl>(service_, opts_);
  impl->open_sockets();
  impl->started = true;
  impl->loop_worker = std::thread([i = impl.get()] { i->loop(); });
  impl_ = std::move(impl);
}

void Server::stop() {
  MutexLock lock(lifecycle_mutex_);
  if (impl_ == nullptr || impl_->stopped) return;
  impl_->stop_flag.store(true);
  // Wakes the loop; replies still in flight keep the sink and find it
  // closed.
  impl_->sink->close();
  if (impl_->loop_worker.joinable()) impl_->loop_worker.join();
  ::close(impl_->listen_fd);
  ::close(impl_->wake_read_fd);
  impl_->stopped = true;
}

bool Server::running() const {
  MutexLock lock(lifecycle_mutex_);
  return impl_ != nullptr && impl_->started && !impl_->stopped;
}

std::uint16_t Server::port() const {
  MutexLock lock(lifecycle_mutex_);
  if (impl_ == nullptr) {
    throw std::runtime_error("net::Server: port() before start()");
  }
  return impl_->bound_port;
}

ServerStats Server::stats() const {
  MutexLock lock(lifecycle_mutex_);
  if (impl_ == nullptr) return {};
  MutexLock slock(impl_->stats_mutex);
  return impl_->stats;
}

}  // namespace bt::net
