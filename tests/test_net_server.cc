// net::Server loopback integration: wire round trips are bitwise-identical
// to in-process Service::submit under concurrent client connections;
// backpressure, deadline shedding, unknown models, duplicate correlations,
// and service shutdown all surface as their stable ErrorCode frames; a
// malformed stream kills exactly its own connection, never the event loop;
// and a reply that resolves after its connection or the whole server is
// gone is dropped safely.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstring>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/fault.h"
#include "core/model.h"
#include "net/client.h"
#include "net/server.h"
#include "serving/service.h"
#include "tensor/tensor.h"
#include "test_utils.h"

namespace bt::net {
namespace {

core::BertConfig tiny_config() {
  core::BertConfig cfg;
  cfg.layers = 2;
  cfg.heads = 2;
  cfg.head_size = 16;
  return cfg;
}

std::shared_ptr<const core::BertModel> tiny_model() {
  static std::shared_ptr<const core::BertModel> model = [] {
    Rng rng(4242);
    return std::make_shared<const core::BertModel>(
        core::BertModel::random(tiny_config(), rng));
  }();
  return model;
}

serving::EnginePoolOptions pool_options(int max_batch_requests = 4,
                                        std::size_t max_queue = 1024,
                                        double max_wait_seconds = 0.001) {
  serving::EnginePoolOptions opts;
  opts.engine.engine.policy = serving::BatchPolicy::kPacked;
  opts.engine.engine.max_batch_requests = max_batch_requests;
  opts.engine.max_queue = max_queue;
  opts.engine.max_wait_seconds = max_wait_seconds;
  opts.replicas = 1;
  opts.threads_per_replica = 1;
  return opts;
}

serving::Service make_service(serving::EnginePoolOptions opts = pool_options()) {
  serving::ModelRegistry registry;
  registry.add("tiny", tiny_model(), opts);
  return serving::Service(std::move(registry));
}

Tensor<fp16_t> make_hidden(int rows, int salt) {
  const int hidden = tiny_config().hidden();
  Tensor<fp16_t> t({rows, hidden});
  for (int s = 0; s < rows; ++s) {
    for (int j = 0; j < hidden; ++j) {
      t(s, j) = fp16_t(0.01f * j + 0.001f * ((salt + s) % 13));
    }
  }
  return t;
}

void expect_bits_equal(const Tensor<fp16_t>& got, const Tensor<fp16_t>& want) {
  ASSERT_EQ(got.dim(0), want.dim(0));
  ASSERT_EQ(got.dim(1), want.dim(1));
  ASSERT_EQ(std::memcmp(got.data(), want.data(),
                        static_cast<std::size_t>(got.dim(0)) *
                            static_cast<std::size_t>(got.dim(1)) * 2),
            0);
}

// A raw loopback socket for the tests that must speak bytes the Client
// would never produce (duplicate correlations, garbage streams).
struct RawConn {
  int fd = -1;
  explicit RawConn(std::uint16_t port) {
    fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) return;
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) !=
        0) {
      ::close(fd);
      fd = -1;  // tests ASSERT_GE(raw.fd, 0) before using it
    }
  }
  ~RawConn() {
    if (fd >= 0) ::close(fd);
  }
  void send_all(const void* data, std::size_t n) {
    const char* p = static_cast<const char*>(data);
    while (n > 0) {
      const ssize_t w = ::send(fd, p, n, MSG_NOSIGNAL);
      ASSERT_GT(w, 0);
      p += w;
      n -= static_cast<std::size_t>(w);
    }
  }
  void send_submit(const Tensor<fp16_t>& hidden, std::uint64_t correlation) {
    SubmitFrame f;
    f.correlation = correlation;
    f.rows = static_cast<std::uint32_t>(hidden.dim(0));
    f.cols = static_cast<std::uint32_t>(hidden.dim(1));
    f.tokens = reinterpret_cast<const std::byte*>(hidden.data());
    Buffer wire;
    encode_submit(wire, f);
    send_all(wire.data(), wire.size());
  }
  // Blocks until one response frame decodes (or the peer closes, which
  // fails the test).
  void read_response(Decoder& dec, ResponseFrame* out) {
    Frame frame;
    char chunk[4096];
    for (;;) {
      const DecodeStatus status = dec.next(&frame);
      if (status == DecodeStatus::kFrame) {
        ASSERT_EQ(frame.type, FrameType::kResponse);
        *out = frame.response;
        return;
      }
      ASSERT_EQ(status, DecodeStatus::kNeedMore);
      const ssize_t n = ::recv(fd, chunk, sizeof chunk, 0);
      ASSERT_GT(n, 0) << "server closed the connection mid-read";
      dec.feed(chunk, static_cast<std::size_t>(n));
    }
  }
};

TEST(NetServer, StartStopAndPortAssignment) {
  auto service = make_service();
  Server server(service);
  EXPECT_FALSE(server.running());
  server.start();
  EXPECT_TRUE(server.running());
  EXPECT_GT(server.port(), 0);
  server.stop();
  server.stop();  // idempotent
  EXPECT_FALSE(server.running());
  service.stop();
}

TEST(NetServer, LoopbackBitwiseMatchesInProcess) {
  // The acceptance bar: the same trace through real sockets, on >= 4
  // concurrent connections, must produce bitwise-identical outputs to
  // direct Service::submit.
  constexpr int kConns = 4;
  constexpr int kPerConn = 6;
  auto wire_service = make_service();
  auto direct_service = make_service();
  Server server(wire_service);
  server.start();

  struct Slot {
    Tensor<fp16_t> input;
    std::string session;
    serving::Response wire;
    serving::Response direct;
  };
  std::vector<Slot> slots(kConns * kPerConn);
  for (int i = 0; i < kConns * kPerConn; ++i) {
    slots[static_cast<std::size_t>(i)].input = make_hidden(3 + i % 9, i);
    if (i % 3 == 0) {
      slots[static_cast<std::size_t>(i)].session = "s" + std::to_string(i % 5);
    }
  }

  std::vector<std::thread> threads;
  for (int c = 0; c < kConns; ++c) {
    threads.emplace_back([&, c] {
      Client client(server.port());
      std::vector<std::future<serving::Response>> futs;
      for (int k = 0; k < kPerConn; ++k) {
        Slot& slot = slots[static_cast<std::size_t>(c * kPerConn + k)];
        WireRequest req;
        req.session = slot.session;
        req.hidden = slot.input.clone();  // slot.input feeds the direct run
        futs.push_back(client.submit_serving(std::move(req)));
      }
      for (int k = 0; k < kPerConn; ++k) {
        slots[static_cast<std::size_t>(c * kPerConn + k)].wire =
            futs[static_cast<std::size_t>(k)].get();
      }
    });
  }
  for (auto& t : threads) t.join();
  server.stop();
  wire_service.stop();

  std::vector<std::future<serving::Response>> direct_futs;
  for (auto& slot : slots) {
    serving::Request req;
    req.hidden = slot.input.clone();
    if (!slot.session.empty()) req.session = slot.session;
    direct_futs.push_back(direct_service.submit(std::move(req)));
  }
  for (std::size_t i = 0; i < slots.size(); ++i) {
    slots[i].direct = direct_futs[i].get();
  }
  direct_service.stop();

  for (const auto& slot : slots) {
    SCOPED_TRACE(slot.session);
    expect_bits_equal(slot.wire.output, slot.direct.output);
    EXPECT_EQ(slot.wire.model, "tiny");
    // Session provenance survives the wire round trip.
    if (!slot.session.empty()) {
      ASSERT_TRUE(slot.wire.session.has_value());
      EXPECT_EQ(*slot.wire.session, slot.session);
    }
  }

  const ServerStats st = server.stats();
  EXPECT_EQ(st.accepted_connections, kConns);
  EXPECT_EQ(st.frames_received, kConns * kPerConn);
  EXPECT_EQ(st.responses_sent, kConns * kPerConn);
  EXPECT_EQ(st.error_frames_sent, 0);
  EXPECT_EQ(st.protocol_errors, 0);
}

TEST(NetServer, UnknownModelIsAFrameNotAClosedConnection) {
  auto service = make_service();
  Server server(service);
  server.start();
  Client client(server.port());

  WireRequest bad;
  bad.model = "no-such-model";
  bad.hidden = make_hidden(2, 0);
  std::string message;
  EXPECT_EQ(
      test::resolved_code(client.submit_serving(std::move(bad)), &message),
      serving::ErrorCode::kUnknownModel);
  EXPECT_FALSE(message.empty());

  // The connection survived: a valid request on it still round-trips.
  WireRequest good;
  good.hidden = make_hidden(2, 1);
  const serving::Response ok = client.submit_serving(std::move(good)).get();
  EXPECT_EQ(ok.model, "tiny");

  client.close();
  server.stop();
  service.stop();
}

TEST(NetServer, BackpressureSurfacesAsFrames) {
  // Queue capacity 1, one request per round: a burst must split into some
  // kOk and some immediate kBackpressure frames — and the event loop never
  // blocks to make room.
  auto service = make_service(pool_options(/*max_batch_requests=*/1,
                                           /*max_queue=*/1));
  Server server(service);
  server.start();
  Client client(server.port());

  std::vector<std::future<serving::Response>> futs;
  for (int i = 0; i < 32; ++i) {
    WireRequest req;
    req.hidden = make_hidden(128, i);
    futs.push_back(client.submit_serving(std::move(req)));
  }
  int ok = 0, backpressure = 0;
  for (auto& f : futs) {
    const serving::ErrorCode code = test::resolved_code(f);
    if (code == serving::ErrorCode::kOk) ++ok;
    if (code == serving::ErrorCode::kBackpressure) ++backpressure;
  }
  EXPECT_GE(ok, 1);
  EXPECT_GE(backpressure, 1);
  EXPECT_EQ(ok + backpressure, 32);
  EXPECT_GE(server.stats().backpressure_replies, 1);

  client.close();
  server.stop();
  service.stop();
}

TEST(NetServer, DeadlineTravelsTheWire) {
  // Park the single replica on one long request, then send 1 ms wire
  // deadlines while it is mid-compute: no scheduling round can start
  // inside their window (EDF would otherwise serve them first), so they
  // must come back as kDeadlineExceeded frames — produced by the same
  // shedding machinery the in-process tier uses. A scripted stall holds
  // the blocker's round until every tight deadline has passed.
  fault::Injector inj(1);
  fault::PointConfig stall;
  stall.fire_at = {0};
  stall.max_fires = 1;
  stall.param = 100000;  // us
  inj.arm("serving.compute.delay", stall);
  fault::ScopedInjector scope(inj);

  auto service = make_service(pool_options(/*max_batch_requests=*/1));
  Server server(service);
  server.start();
  Client client(server.port());

  WireRequest big;
  big.hidden = make_hidden(2048, 0);
  auto blocker = client.submit_serving(std::move(big));
  while (inj.stats("serving.compute.delay").hits == 0) {
    std::this_thread::yield();
  }

  std::vector<std::future<serving::Response>> tight;
  for (int i = 0; i < 4; ++i) {
    WireRequest req;
    req.deadline_ms = 1;
    req.hidden = make_hidden(8, 100 + i);
    tight.push_back(client.submit_serving(std::move(req)));
  }
  EXPECT_NO_THROW(blocker.get());
  int shed = 0;
  for (auto& f : tight) {
    std::string message;
    if (test::resolved_code(f, &message) ==
        serving::ErrorCode::kDeadlineExceeded) {
      ++shed;
      EXPECT_FALSE(message.empty());
    }
  }
  EXPECT_EQ(shed, 4);

  client.close();
  server.stop();
  service.stop();
}

TEST(NetServer, DuplicateCorrelationGetsItsOwnError) {
  auto service = make_service();
  Server server(service);
  server.start();
  RawConn raw(server.port());
  ASSERT_GE(raw.fd, 0);

  // Two frames, same correlation, one send: the event loop decodes them
  // back-to-back, so the second deterministically finds the first still in
  // flight.
  const Tensor<fp16_t> hidden = make_hidden(64, 3);
  SubmitFrame f;
  f.correlation = 99;
  f.rows = static_cast<std::uint32_t>(hidden.dim(0));
  f.cols = static_cast<std::uint32_t>(hidden.dim(1));
  f.tokens = reinterpret_cast<const std::byte*>(hidden.data());
  Buffer wire;
  encode_submit(wire, f);
  encode_submit(wire, f);
  raw.send_all(wire.data(), wire.size());

  Decoder dec;
  ResponseFrame r1, r2;
  raw.read_response(dec, &r1);
  if (::testing::Test::HasFatalFailure()) return;
  raw.read_response(dec, &r2);
  if (::testing::Test::HasFatalFailure()) return;
  EXPECT_EQ(r1.correlation, 99u);
  EXPECT_EQ(r2.correlation, 99u);
  // The duplicate is rejected immediately; the original still completes.
  EXPECT_EQ(r1.error, serving::ErrorCode::kDuplicateId);
  EXPECT_EQ(r2.error, serving::ErrorCode::kOk);

  server.stop();
  service.stop();
}

TEST(NetServer, MalformedStreamKillsOnlyItsConnection) {
  auto service = make_service();
  Server server(service);
  server.start();

  {
    RawConn raw(server.port());
    ASSERT_GE(raw.fd, 0);
    // An impossible length prefix: the server must close this connection.
    const std::uint8_t garbage[] = {0xff, 0xff, 0xff, 0xff, 0xde, 0xad};
    raw.send_all(garbage, sizeof garbage);
    if (::testing::Test::HasFatalFailure()) return;
    char sink[64];
    EXPECT_EQ(::recv(raw.fd, sink, sizeof sink, 0), 0);  // clean EOF
  }

  // The loop survived: a well-behaved client connects and serves.
  Client client(server.port());
  WireRequest req;
  req.hidden = make_hidden(2, 0);
  EXPECT_NO_THROW(client.submit_serving(std::move(req)).get());
  EXPECT_GE(server.stats().protocol_errors, 1);

  client.close();
  server.stop();
  service.stop();
}

TEST(NetServer, WrongTokenWidthIsAProtocolViolation) {
  // cols must equal the resolved model's hidden width; the ErrorCode
  // vocabulary deliberately has no "bad request" code (docs/WIRE.md), so a
  // lying token matrix closes the connection like any malformed traffic.
  auto service = make_service();
  Server server(service);
  server.start();
  Client client(server.port());

  WireRequest req;
  req.hidden = Tensor<fp16_t>({2, tiny_config().hidden() / 2});
  // The client observes the close as a failed pending op, not a server
  // frame: kShutdown with the connection-closed diagnostic.
  EXPECT_EQ(test::resolved_code(client.submit_serving(std::move(req))),
            serving::ErrorCode::kShutdown);
  EXPECT_GE(server.stats().protocol_errors, 1);

  client.close();
  server.stop();
  service.stop();
}

TEST(NetServer, StoppedServiceAnswersShutdown) {
  auto service = make_service();
  Server server(service);
  server.start();
  service.stop();  // compute tier gone; the socket tier must say so

  Client client(server.port());
  WireRequest req;
  req.hidden = make_hidden(2, 0);
  EXPECT_EQ(test::resolved_code(client.submit_serving(std::move(req))),
            serving::ErrorCode::kShutdown);

  client.close();
  server.stop();
}

// Arms a one-shot stall of the first computing round, long enough for a
// test to act on the server while that round's request is mid-compute.
void arm_compute_stall(fault::Injector& inj) {
  fault::PointConfig stall;
  stall.fire_at = {0};
  stall.max_fires = 1;
  stall.param = 300000;  // us
  inj.arm("serving.compute.delay", stall);
}

void wait_until_computing(const fault::Injector& inj) {
  while (inj.stats("serving.compute.delay").hits == 0) {
    std::this_thread::yield();
  }
}

// Polls `done` every millisecond for up to 10 s; false if it never held.
template <typename Pred>
bool eventually(Pred done) {
  const auto give_up =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (!done()) {
    if (std::chrono::steady_clock::now() > give_up) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

TEST(NetServer, ReplyOutlivesTheServer) {
  // A request's reply holds the server's completion sink, never the server:
  // stop and destroy the Server while the request computes, then let the
  // round finish. The reply runs into the closed sink (ASan and TSan keep
  // this honest), and the service drains as usual.
  fault::Injector inj(1);
  arm_compute_stall(inj);
  fault::ScopedInjector scope(inj);

  auto service = make_service(pool_options(/*max_batch_requests=*/1));
  {
    Server server(service);
    server.start();
    RawConn raw(server.port());
    ASSERT_GE(raw.fd, 0);
    raw.send_submit(make_hidden(16, 0), 1);
    if (::testing::Test::HasFatalFailure()) return;
    wait_until_computing(inj);
    server.stop();
  }
  EXPECT_EQ(service.pending(), 1u);  // the reply has not run yet
  service.stop();                    // the stall runs out; the reply runs
  EXPECT_EQ(service.pending(), 0u);
  EXPECT_EQ(service.stats().requests, 1);
}

TEST(NetServer, ClosedConnectionDropsItsCompletion) {
  // A client that resets its connection while its request computes: the
  // completion finds the connection gone, is dropped and counted, and the
  // server keeps answering everyone else. The close is abortive (RST) —
  // after a plain FIN the server keeps the half-closed connection open to
  // deliver the reply.
  fault::Injector inj(1);
  arm_compute_stall(inj);
  fault::ScopedInjector scope(inj);

  auto service = make_service(pool_options(/*max_batch_requests=*/1));
  Server server(service);
  server.start();
  {
    RawConn raw(server.port());
    ASSERT_GE(raw.fd, 0);
    raw.send_submit(make_hidden(16, 0), 1);
    if (::testing::Test::HasFatalFailure()) return;
    wait_until_computing(inj);
    const linger reset{1, 0};
    ASSERT_EQ(::setsockopt(raw.fd, SOL_SOCKET, SO_LINGER, &reset,
                           sizeof reset),
              0);
  }
  ASSERT_TRUE(eventually([&] {
    return server.stats().active_connections == 0;
  }));
  EXPECT_EQ(service.pending(), 1u);  // closed while still computing
  ASSERT_TRUE(eventually([&] {
    return server.stats().dropped_completions > 0;
  }));

  Client client(server.port());
  WireRequest req;
  req.hidden = make_hidden(2, 1);
  EXPECT_NO_THROW(client.submit_serving(std::move(req)).get());
  const ServerStats st = server.stats();
  EXPECT_EQ(st.dropped_completions, 1);
  EXPECT_EQ(st.responses_sent, 1);

  client.close();
  server.stop();
  service.stop();
}

}  // namespace
}  // namespace bt::net
