#include "net/client.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <stdexcept>
#include <utility>
#include <vector>

#include "common/fault.h"

namespace bt::net {

namespace {

// Same mix as common/rng.h and common/fault.cc — kept local so the backoff
// schedule is a pure function of (seed, correlation, attempt) with no
// dependency on any stateful generator.
std::uint64_t split_mix(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

double unit_uniform(std::uint64_t h) {
  return static_cast<double>(h >> 11) * (1.0 / 9007199254740992.0);
}

double ms_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

// Blocking connect to host:port, EINTR-safe, non-throwing (-1 on failure;
// a host that does not parse as IPv4 fails with EINVAL).
int connect_host(const std::string& host, std::uint16_t port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    errno = EINVAL;
    return -1;
  }
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return -1;
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  addr.sin_port = htons(port);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) ==
      0) {
    return fd;
  }
  if (errno == EINTR) {
    // POSIX: an interrupted connect may still complete asynchronously.
    // Re-calling connect here is undefined; wait for writability and read
    // SO_ERROR for the real outcome.
    pollfd pfd{fd, POLLOUT, 0};
    int r;
    do {
      r = ::poll(&pfd, 1, -1);
    } while (r < 0 && errno == EINTR);
    int err = 0;
    socklen_t len = sizeof err;
    if (r > 0 &&
        ::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &len) == 0 && err == 0) {
      return fd;
    }
  }
  const int saved = errno;
  ::close(fd);
  errno = saved;
  return -1;
}

}  // namespace

double retry_backoff_ms(const RetryPolicy& policy, std::uint64_t correlation,
                        int attempt) {
  if (attempt < 1) attempt = 1;
  double backoff = policy.initial_backoff_ms;
  for (int k = 1; k < attempt && backoff < policy.max_backoff_ms; ++k) {
    backoff *= policy.backoff_multiplier;
  }
  backoff = std::min(backoff, policy.max_backoff_ms);
  if (policy.jitter > 0.0) {
    const std::uint64_t h = split_mix(
        policy.seed ^ split_mix(correlation) ^
        (static_cast<std::uint64_t>(attempt) * 0x2545F4914F6CDD1DULL));
    const double u = unit_uniform(h) * 2.0 - 1.0;  // [-1, 1)
    backoff *= 1.0 + policy.jitter * u;
  }
  return backoff < 0.0 ? 0.0 : backoff;
}

Client::Client(std::uint16_t port, ClientOptions opts)
    : port_(port), opts_(opts), decoder_(opts.max_frame_bytes) {
  if (opts_.retry.max_attempts < 1) {
    throw std::invalid_argument("RetryPolicy: max_attempts must be >= 1");
  }
  const int fd = connect_host(opts_.host, port);
  if (fd < 0) {
    throw std::runtime_error("net::Client: connect to " + opts_.host + ": " +
                             std::string(std::strerror(errno)));
  }
  fd_.store(fd);
  receiver_ = std::thread([this] { receive_loop(); });
  if (opts_.retry.max_attempts > 1) {
    retry_worker_ = std::thread([this] { retry_loop(); });
  }
}

Client::Client(std::uint16_t port, std::size_t max_frame_bytes)
    : Client(port, ClientOptions{max_frame_bytes, {}}) {}

Client::~Client() { close(); }

std::future<WireResponse> Client::submit(WireRequest req) {
  if (closed_.load()) {
    throw serving::ShutdownError("net::Client: submit on a closed connection");
  }
  PendingOp op;
  op.as_serving = false;
  op.request = std::move(req);
  auto fut = op.wire.get_future();
  start_request(std::move(op));
  return fut;
}

std::future<serving::Response> Client::submit_serving(WireRequest req) {
  if (closed_.load()) {
    throw serving::ShutdownError("net::Client: submit on a closed connection");
  }
  PendingOp op;
  op.as_serving = true;
  op.request = std::move(req);
  auto fut = op.serving.get_future();
  start_request(std::move(op));
  return fut;
}

std::future<WireStats> Client::fetch_stats(bool include_traces) {
  if (closed_.load()) {
    throw serving::ShutdownError(
        "net::Client: fetch_stats on a closed connection");
  }
  const std::uint64_t correlation = next_correlation_.fetch_add(1);
  std::promise<WireStats> prom;
  auto fut = prom.get_future();
  StatsRequestFrame f;
  f.correlation = correlation;
  f.include_traces = include_traces ? 1 : 0;
  Buffer wire;
  encode_stats_request(wire, f);
  // Register before writing, like start_request: the reply can land on the
  // receiver thread before this send returns. A failed write leaves the
  // promise registered — the connection-loss sweep rejects it.
  {
    MutexLock lock(pending_mutex_);
    pending_stats_.emplace(correlation, std::move(prom));
  }
  write_frame(wire);
  return fut;
}

ClientStats Client::stats() const {
  return {retries_.load(), reconnects_.load()};
}

void Client::start_request(PendingOp op) {
  const auto now = Clock::now();
  const std::uint64_t correlation = next_correlation_.fetch_add(1);
  if (op.attempts == 0) {
    op.first_sent = now;
    op.first_correlation = correlation;
  }
  op.attempts += 1;

  SubmitFrame f;
  f.correlation = correlation;
  f.deadline_ms = op.request.deadline_ms;
  if (f.deadline_ms > 0 && op.attempts > 1) {
    // Re-sent frames carry what is left of the original budget, so the
    // server's shedding machinery sees the caller's true deadline, not a
    // fresh one per attempt. Callers pre-check expiry; 1 ms is the floor
    // for rounding.
    const double remaining = static_cast<double>(op.request.deadline_ms) -
                             ms_since(op.first_sent);
    f.deadline_ms =
        remaining >= 1.0 ? static_cast<std::uint32_t>(remaining) : 1;
  }
  f.model = op.request.model;
  f.session = op.request.session;
  f.rows = static_cast<std::uint32_t>(op.request.hidden.dim(0));
  f.cols = static_cast<std::uint32_t>(op.request.hidden.dim(1));
  f.tokens = reinterpret_cast<const std::byte*>(op.request.hidden.data());
  Buffer wire;
  encode_submit(wire, f);

  // Register before writing: the response can arrive on the receiver
  // thread before the sender returns. A failed write leaves the op
  // registered — the connection is down, and the receiver's loss path
  // (reconnect sweep or fail_pending) owns resolving it.
  {
    MutexLock lock(pending_mutex_);
    pending_.emplace(correlation, std::move(op));
  }
  write_frame(wire);
}

bool Client::write_frame(Buffer& wire) {
  MutexLock lock(write_mutex_);
  const int fd = fd_.load();
  if (fd < 0) return false;  // between connections; the sweep re-sends
  // Injected send faults (docs/ROBUSTNESS.md): conn.reset tears the
  // connection down mid-request exactly like a peer RST; write.short
  // clamps one send to a single byte, splitting the frame across the
  // server's reads.
  if (BT_FAULT_POINT("net.client.conn.reset")) {
    ::shutdown(fd, SHUT_RDWR);
    return false;
  }
  while (!wire.empty()) {
    std::size_t len = wire.size();
    if (BT_FAULT_POINT("net.client.write.short")) len = 1;
    const ssize_t n = ::send(fd, wire.data(), len, MSG_NOSIGNAL);
    if (n > 0) {
      wire.consume(static_cast<std::size_t>(n));
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    // Dead connection. Shut it down so the receiver blocked in recv()
    // notices now, not at its next timeout.
    ::shutdown(fd, SHUT_RDWR);
    return false;
  }
  return true;
}

Client::ConnEnd Client::run_connection(std::string* why) {
  std::vector<std::byte> chunk(16384);
  Frame frame;
  const int fd = fd_.load();
  for (;;) {
    // Drain every complete frame before blocking in recv again.
    for (;;) {
      const DecodeStatus status = decoder_.next(&frame);
      if (status == DecodeStatus::kNeedMore) break;
      if (status == DecodeStatus::kError ||
          (frame.type != FrameType::kResponse &&
           frame.type != FrameType::kStatsResponse)) {
        *why = "net::Client: protocol error from server: " +
               (decoder_.failed() ? decoder_.error()
                                  : std::string("unexpected frame"));
        return ConnEnd::kProtocol;
      }
      if (frame.type == FrameType::kStatsResponse) {
        const StatsResponseFrame& sf = frame.stats_response;
        std::promise<WireStats> prom;
        bool found_stats = false;
        {
          MutexLock lock(pending_mutex_);
          auto it = pending_stats_.find(sf.correlation);
          if (it != pending_stats_.end()) {
            prom = std::move(it->second);
            pending_stats_.erase(it);
            found_stats = true;
          }
        }
        // Unsolicited correlation: drop, like an unsolicited response.
        if (!found_stats) continue;
        WireStats ws;
        ws.metrics_json = std::string(sf.metrics_json);
        ws.traces_jsonl = std::string(sf.traces_jsonl);
        prom.set_value(std::move(ws));
        continue;
      }
      const ResponseFrame& rf = frame.response;
      PendingOp op;
      bool found = false;
      {
        MutexLock lock(pending_mutex_);
        auto it = pending_.find(rf.correlation);
        if (it != pending_.end()) {
          op = std::move(it->second);
          pending_.erase(it);
          found = true;
        }
      }
      // Unsolicited correlation: either garbage or the answer to an
      // attempt a reconnect sweep already superseded. Drop it — the op
      // (if any) resolves through its newer correlation.
      if (!found) continue;

      if (rf.error != serving::ErrorCode::kOk) {
        const RetryPolicy& p = opts_.retry;
        const bool retryable =
            (rf.error == serving::ErrorCode::kBackpressure &&
             p.retry_backpressure) ||
            (rf.error == serving::ErrorCode::kInternal && p.retry_internal);
        if (retryable && op.attempts < p.max_attempts && !closed_.load()) {
          const double backoff =
              retry_backoff_ms(p, op.first_correlation, op.attempts);
          bool budget_ok = true;
          if (op.request.deadline_ms > 0) {
            // Never schedule a retry the deadline cannot survive; deliver
            // the reply we have instead.
            budget_ok = ms_since(op.first_sent) + backoff <
                        static_cast<double>(op.request.deadline_ms);
          }
          if (budget_ok) {
            schedule_retry(std::move(op), backoff);
            continue;
          }
        }
      }

      if (op.as_serving) {
        if (rf.error == serving::ErrorCode::kOk) {
          serving::Response resp;
          resp.error = serving::ErrorCode::kOk;
          resp.model = std::string(rf.model);
          resp.replica = rf.replica;
          if (!rf.session.empty()) resp.session = std::string(rf.session);
          resp.output = Tensor<fp16_t>({static_cast<std::int64_t>(rf.rows),
                                        static_cast<std::int64_t>(rf.cols)});
          std::memcpy(resp.output.data(), rf.tokens, rf.token_bytes());
          op.serving.set_value(std::move(resp));
        } else {
          op.serving.set_exception(serving::make_serving_error(
              rf.error, std::string(rf.message)));
        }
      } else {
        WireResponse resp;
        resp.correlation = rf.correlation;
        resp.error = rf.error;
        resp.message = std::string(rf.message);
        resp.model = std::string(rf.model);
        resp.session = std::string(rf.session);
        resp.replica = rf.replica;
        if (rf.rows > 0) {
          resp.output = Tensor<fp16_t>({static_cast<std::int64_t>(rf.rows),
                                        static_cast<std::int64_t>(rf.cols)});
          std::memcpy(resp.output.data(), rf.tokens, rf.token_bytes());
        }
        op.wire.set_value(std::move(resp));
      }
    }

    const ssize_t n = ::recv(fd, chunk.data(), chunk.size(), 0);
    if (n > 0) {
      decoder_.feed(chunk.data(), static_cast<std::size_t>(n));
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    *why = "net::Client: connection closed";
    return closed_.load() ? ConnEnd::kClosed : ConnEnd::kLost;
  }
}

void Client::receive_loop() {
  for (;;) {
    std::string why;
    const ConnEnd end = run_connection(&why);
    if (end == ConnEnd::kClosed || closed_.load()) {
      return;  // user close() owns the teardown and the final sweep
    }
    const RetryPolicy& p = opts_.retry;
    if (end == ConnEnd::kProtocol || !p.reconnect || p.max_attempts <= 1) {
      // A garbage stream is a server bug a new connection won't fix;
      // without reconnect a lost connection is terminal, like before.
      shutdown_from_receiver(why);
      return;
    }
    if (!reconnect_and_resend()) {
      shutdown_from_receiver("net::Client: reconnect failed");
      return;
    }
  }
}

bool Client::reconnect_and_resend() {
  const RetryPolicy& p = opts_.retry;
  int new_fd = -1;
  for (int attempt = 1; attempt <= p.max_attempts; ++attempt) {
    if (closed_.load()) return false;
    new_fd = connect_host(opts_.host, port_);
    if (new_fd >= 0) break;
    if (attempt == p.max_attempts) return false;
    // Backoff between connection attempts, interruptible by close()
    // (correlation 0: the schedule belongs to the connection, not to any
    // one request).
    MutexLock lock(retry_mutex_);
    if (retry_stop_) return false;
    retry_cv_.wait_for(retry_mutex_,
                       std::chrono::duration<double, std::milli>(
                           retry_backoff_ms(p, 0, attempt)));
    if (retry_stop_) return false;
  }
  if (new_fd < 0) return false;

  // Install the new socket and sweep every pending op in one critical
  // section: with write_mutex_ held no send is mid-flight, so an op is
  // either swept here (and re-sent below under a fresh correlation) or
  // registered after the swap and written to the new connection — never
  // stranded on the old one.
  std::vector<PendingOp> swept;
  std::vector<std::promise<WireStats>> swept_stats;
  {
    MutexLock wlock(write_mutex_);
    if (closed_.load()) {
      ::close(new_fd);
      return false;
    }
    const int old = fd_.exchange(new_fd);
    if (old >= 0) ::close(old);
    MutexLock plock(pending_mutex_);
    swept.reserve(pending_.size());
    for (auto& [correlation, op] : pending_) swept.push_back(std::move(op));
    pending_.clear();
    // Stats pulls never re-send: a snapshot requested of the old
    // connection's server moment is stale by the time a reconnect lands.
    swept_stats.reserve(pending_stats_.size());
    for (auto& [correlation, prom] : pending_stats_) {
      swept_stats.push_back(std::move(prom));
    }
    pending_stats_.clear();
  }
  // Mid-frame bytes from the old connection die with it.
  decoder_ = Decoder(opts_.max_frame_bytes);
  reconnects_.fetch_add(1);
  for (auto& prom : swept_stats) {
    prom.set_exception(serving::make_serving_error(
        serving::ErrorCode::kShutdown,
        "net::Client: connection lost before the stats reply"));
  }
  for (auto& op : swept) {
    resend(std::move(op), "connection lost and retry budget exhausted");
  }
  return true;
}

void Client::resend(PendingOp op, const char* budget_why) {
  const RetryPolicy& p = opts_.retry;
  if (closed_.load()) {
    fail_op(std::move(op), serving::ErrorCode::kShutdown,
            "net::Client: connection closed");
    return;
  }
  if (op.attempts >= p.max_attempts) {
    fail_op(std::move(op), serving::ErrorCode::kShutdown,
            std::string("net::Client: ") + budget_why);
    return;
  }
  if (op.request.deadline_ms > 0 &&
      ms_since(op.first_sent) >=
          static_cast<double>(op.request.deadline_ms)) {
    fail_op(std::move(op), serving::ErrorCode::kDeadlineExceeded,
            "net::Client: deadline passed before retry");
    return;
  }
  retries_.fetch_add(1);
  start_request(std::move(op));
}

void Client::schedule_retry(PendingOp op, double backoff_ms) {
  const auto due =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double, std::milli>(backoff_ms));
  const auto later_due = [](const RetryEntry& a, const RetryEntry& b) {
    return a.due > b.due;
  };
  bool accepted = false;
  {
    MutexLock lock(retry_mutex_);
    if (!retry_stop_) {
      retry_heap_.push_back(RetryEntry{due, std::move(op)});
      std::push_heap(retry_heap_.begin(), retry_heap_.end(), later_due);
      accepted = true;
    }
  }
  if (accepted) {
    retry_cv_.notify_all();
    return;
  }
  fail_op(std::move(op), serving::ErrorCode::kShutdown,
          "net::Client: connection closed");
}

void Client::retry_loop() {
  const auto later_due = [](const RetryEntry& a, const RetryEntry& b) {
    return a.due > b.due;
  };
  for (;;) {
    PendingOp op;
    bool have = false;
    std::vector<RetryEntry> drained;
    {
      MutexLock lock(retry_mutex_);
      for (;;) {
        if (retry_stop_) {
          drained.swap(retry_heap_);
          break;
        }
        if (retry_heap_.empty()) {
          retry_cv_.wait(retry_mutex_);
          continue;
        }
        const auto now = Clock::now();
        if (retry_heap_.front().due > now) {
          retry_cv_.wait_for(retry_mutex_, retry_heap_.front().due - now);
          continue;
        }
        std::pop_heap(retry_heap_.begin(), retry_heap_.end(), later_due);
        op = std::move(retry_heap_.back().op);
        retry_heap_.pop_back();
        have = true;
        break;
      }
    }
    if (!have) {
      for (auto& entry : drained) {
        fail_op(std::move(entry.op), serving::ErrorCode::kShutdown,
                "net::Client: connection closed");
      }
      return;
    }
    resend(std::move(op), "retry budget exhausted");
  }
}

void Client::fail_op(PendingOp op, serving::ErrorCode code,
                     const std::string& why) {
  if (op.as_serving) {
    op.serving.set_exception(serving::make_serving_error(code, why));
  } else {
    WireResponse resp;
    resp.correlation = op.first_correlation;
    resp.error = code;
    resp.message = why;
    op.wire.set_value(std::move(resp));
  }
}

void Client::fail_pending(const std::string& why) {
  std::unordered_map<std::uint64_t, PendingOp> orphans;
  std::unordered_map<std::uint64_t, std::promise<WireStats>> stat_orphans;
  {
    MutexLock lock(pending_mutex_);
    orphans.swap(pending_);
    stat_orphans.swap(pending_stats_);
  }
  for (auto& [correlation, op] : orphans) {
    fail_op(std::move(op), serving::ErrorCode::kShutdown, why);
  }
  for (auto& [correlation, prom] : stat_orphans) {
    prom.set_exception(
        serving::make_serving_error(serving::ErrorCode::kShutdown, why));
  }
}

void Client::shutdown_from_receiver(const std::string& why) {
  closed_.store(true);  // new submits throw from here on
  {
    MutexLock lock(retry_mutex_);
    retry_stop_ = true;
  }
  retry_cv_.notify_all();  // the retry worker drains and fails its heap
  fail_pending(why);
}

void Client::close() {
  if (close_called_.exchange(true)) return;
  closed_.store(true);
  {
    MutexLock lock(retry_mutex_);
    retry_stop_ = true;
  }
  retry_cv_.notify_all();
  {
    // Under write_mutex_ so a racing reconnect swap cannot hide the live
    // fd from this shutdown (the swap re-checks closed_ under the same
    // lock and aborts).
    MutexLock lock(write_mutex_);
    const int fd = fd_.load();
    if (fd >= 0) ::shutdown(fd, SHUT_RDWR);
  }
  if (receiver_.joinable()) receiver_.join();
  if (retry_worker_.joinable()) retry_worker_.join();
  // Stragglers: ops registered in the window between a permanent
  // teardown's sweep and its closed_ flag being observed by a submitter.
  fail_pending("net::Client: connection closed");
  const int fd = fd_.exchange(-1);
  if (fd >= 0) ::close(fd);
}

}  // namespace bt::net
