// Fault-tolerance under injected chaos: the soak drives real wire traffic
// through a seeded fault schedule — short reads/writes, a client
// connection reset, a replica whose compute fails repeatedly — and
// asserts the resilience machinery makes failure invisible: every request
// resolves exactly once with output bitwise-identical to a fault-free
// run, the failing replica is quarantined and later readmitted through a
// half-open probe. The unit tests pin down each mechanism alone: the
// deterministic retry backoff schedule, the breaker state machine,
// sticky-pin migration, idle reaping, the slow-peer write cap, and the
// per-connection in-flight cap.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
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
#include "serving/error.h"
#include "serving/pool.h"
#include "serving/router.h"
#include "serving/service.h"
#include "tensor/tensor.h"
#include "test_utils.h"

namespace bt {
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

serving::EnginePoolOptions pool_options(int replicas) {
  serving::EnginePoolOptions opts;
  opts.engine.engine.policy = serving::BatchPolicy::kPacked;
  opts.engine.engine.max_batch_requests = 4;
  opts.engine.max_wait_seconds = 0.0005;
  opts.replicas = replicas;
  opts.threads_per_replica = 1;
  return opts;
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

// ---- retry backoff schedule -------------------------------------------------

TEST(Chaos, RetryBackoffIsDeterministicAndBounded) {
  net::RetryPolicy p;
  p.initial_backoff_ms = 5.0;
  p.max_backoff_ms = 40.0;
  p.jitter = 0.25;
  p.seed = 9;

  for (int attempt = 1; attempt <= 6; ++attempt) {
    const double b = net::retry_backoff_ms(p, 123, attempt);
    // Pure function: the schedule the client will use is assertable.
    EXPECT_EQ(b, net::retry_backoff_ms(p, 123, attempt));
    // Exponential base, capped, jittered by at most +/- 25%.
    const double base =
        std::min(5.0 * std::pow(2.0, attempt - 1), p.max_backoff_ms);
    EXPECT_GE(b, base * (1.0 - p.jitter));
    EXPECT_LE(b, base * (1.0 + p.jitter));
  }

  // Jitter decorrelates across requests and seeds (else synchronized
  // retries re-stampede the server).
  EXPECT_NE(net::retry_backoff_ms(p, 123, 2), net::retry_backoff_ms(p, 124, 2));
  net::RetryPolicy q = p;
  q.seed = 10;
  EXPECT_NE(net::retry_backoff_ms(p, 123, 2), net::retry_backoff_ms(q, 123, 2));

  // Zero jitter collapses to the exact exponential.
  p.jitter = 0.0;
  EXPECT_EQ(net::retry_backoff_ms(p, 123, 1), 5.0);
  EXPECT_EQ(net::retry_backoff_ms(p, 123, 2), 10.0);
  EXPECT_EQ(net::retry_backoff_ms(p, 123, 3), 20.0);
  EXPECT_EQ(net::retry_backoff_ms(p, 123, 4), 40.0);
  EXPECT_EQ(net::retry_backoff_ms(p, 123, 5), 40.0);  // capped
}

// ---- circuit breaker --------------------------------------------------------

TEST(Chaos, BreakerQuarantinesProbesAndReadmits) {
  // Script: replica 0's next 3 compute rounds fail, then it recovers.
  fault::Injector inj(1);
  fault::PointConfig cfg;
  cfg.probability = 1.0;
  cfg.instance = 0;
  cfg.max_fires = 3;
  inj.arm("serving.compute.fail", cfg);
  fault::ScopedInjector scope(inj);

  serving::EnginePoolOptions opts = pool_options(/*replicas=*/2);
  opts.breaker.failure_threshold = 3;
  opts.breaker.quarantine_seconds = 0.05;
  serving::EnginePool pool(tiny_model(), opts);

  // Sequential submits tie-break to replica 0: three failing rounds in a
  // row, each surfacing as the retryable kInternal.
  for (int i = 0; i < 3; ++i) {
    auto f = pool.submit(make_hidden(2, i));
    EXPECT_THROW(f.get(), serving::InternalError);
  }
  const serving::ReplicaHealth sick = pool.replica_health(0);
  EXPECT_EQ(sick.failed, 3);
  EXPECT_EQ(sick.consecutive_failures, 3);

  // The next route trips the breaker and lands on the healthy replica.
  EXPECT_EQ(pool.submit(make_hidden(2, 7)).get().replica, 1);
  serving::EnginePool::BreakerStats bs = pool.breaker_stats();
  EXPECT_EQ(bs.quarantines, 1);
  EXPECT_EQ(bs.readmissions, 0);

  // Past the cooldown the breaker goes half-open; the next submit is the
  // probe, it succeeds (the fault budget is spent), and the replica is
  // readmitted.
  std::this_thread::sleep_for(std::chrono::milliseconds(80));
  EXPECT_EQ(pool.submit(make_hidden(2, 8)).get().replica, 0);
  bs = pool.breaker_stats();
  EXPECT_EQ(bs.quarantines, 1);
  EXPECT_GE(bs.probes, 1);
  EXPECT_EQ(bs.readmissions, 1);

  // Readmitted replica serves again, and success cleared the streak.
  EXPECT_EQ(pool.submit(make_hidden(2, 9)).get().replica, 0);
  EXPECT_EQ(pool.replica_health(0).consecutive_failures, 0);
  pool.stop();
}

TEST(Chaos, BreakerReQuarantinesWhenTheProbeFails) {
  // Unbounded failure: the probe fails too, so the replica goes straight
  // back to quarantine and traffic keeps flowing to the healthy one.
  fault::Injector inj(1);
  fault::PointConfig cfg;
  cfg.probability = 1.0;
  cfg.instance = 0;
  inj.arm("serving.compute.fail", cfg);
  fault::ScopedInjector scope(inj);

  serving::EnginePoolOptions opts = pool_options(/*replicas=*/2);
  opts.breaker.failure_threshold = 2;
  opts.breaker.quarantine_seconds = 0.05;
  serving::EnginePool pool(tiny_model(), opts);

  for (int i = 0; i < 2; ++i) {
    EXPECT_THROW(pool.submit(make_hidden(2, i)).get(),
                 serving::InternalError);
  }
  // Routed around the quarantine.
  EXPECT_EQ(pool.submit(make_hidden(2, 3)).get().replica, 1);
  ASSERT_EQ(pool.breaker_stats().quarantines, 1);

  std::this_thread::sleep_for(std::chrono::milliseconds(80));
  EXPECT_THROW(pool.submit(make_hidden(2, 4)).get(),
               serving::InternalError);  // the half-open probe fails
  const serving::EnginePool::BreakerStats bs = pool.breaker_stats();
  EXPECT_GE(bs.probes, 1);
  EXPECT_EQ(bs.readmissions, 0);
  EXPECT_GE(bs.quarantines, 2);  // re-quarantined

  // Healthy replica still serves while replica 0 sits in quarantine.
  EXPECT_EQ(pool.submit(make_hidden(2, 5)).get().replica, 1);
  pool.stop();
}

// ---- sticky-pin migration ---------------------------------------------------

TEST(Chaos, StickyPinMigratesOffUnavailableReplica) {
  serving::Router router(serving::RoutePolicy::kStickySession);
  std::vector<serving::ReplicaLoad> loads(3);
  bool pinned = false;

  // Session pins by load to replica 0; the follow-up is a pin hit.
  EXPECT_EQ(router.pick(loads, "s", &pinned), 0u);
  EXPECT_FALSE(pinned);
  EXPECT_EQ(router.pick(loads, "s", &pinned), 0u);
  EXPECT_TRUE(pinned);

  // Replica 0 quarantined: the pin is dropped and the session re-pins by
  // load among the available replicas (replica 2 is the least loaded).
  loads[0].available = false;
  loads[1].outstanding_tokens = 5;
  EXPECT_EQ(router.pick(loads, "s", &pinned), 2u);
  EXPECT_FALSE(pinned);  // a migration is a fresh pin, not a hit

  // The new pin sticks — including after replica 0 is readmitted (no
  // flap-back; the session's prefix-cache state now builds on replica 2).
  EXPECT_EQ(router.pick(loads, "s", &pinned), 2u);
  EXPECT_TRUE(pinned);
  loads[0].available = true;
  EXPECT_EQ(router.pick(loads, "s", &pinned), 2u);
  EXPECT_TRUE(pinned);
  EXPECT_EQ(router.pinned("s"), std::optional<std::size_t>(2));
}

// ---- server connection defenses ---------------------------------------------

serving::Service make_service(serving::EnginePoolOptions opts) {
  serving::ModelRegistry registry;
  registry.add("tiny", tiny_model(), opts);
  return serving::Service(std::move(registry));
}

// A connection that never sends anything — idle-timeout prey.
struct QuietConn {
  int fd = -1;
  explicit QuietConn(std::uint16_t port) {
    fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) return;
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) !=
        0) {
      ::close(fd);
      fd = -1;
    }
  }
  ~QuietConn() {
    if (fd >= 0) ::close(fd);
  }
};

TEST(Chaos, IdleConnectionsAreReaped) {
  auto service = make_service(pool_options(1));
  net::ServerOptions sopts;
  // The working client below is quiet from its connect to its first frame
  // (under TSan on a loaded 4-vCPU host: 5 ms median, 37 ms worst of 500);
  // the timeout sits far above that, so only the quiet connection is reaped.
  sopts.idle_timeout_seconds = 0.5;
  net::Server server(service, sopts);
  server.start();

  QuietConn quiet(server.port());
  ASSERT_GE(quiet.fd, 0);
  // The server closes the quiet connection once it has been silent past
  // the timeout: the blocking recv observes a clean EOF.
  char sink[16];
  EXPECT_EQ(::recv(quiet.fd, sink, sizeof sink, 0), 0);
  EXPECT_GE(server.stats().idle_disconnects, 1);

  // The loop is fine — a working client still round-trips (and is not
  // reaped while its request is in flight). The request is built before
  // connecting, so the connection's quiet window holds only the connect.
  net::WireRequest req;
  req.hidden = make_hidden(2, 0);
  net::Client client(server.port());
  EXPECT_NO_THROW(client.submit_serving(std::move(req)).get());

  client.close();
  server.stop();
  service.stop();
}

TEST(Chaos, SlowPeerIsDisconnectedWithoutHarmingOthers) {
  auto service = make_service(pool_options(1));
  net::ServerOptions sopts;
  sopts.max_write_queue_bytes = 64;  // far below one response frame
  net::Server server(service, sopts);
  server.start();

  {
    // A peer that never drains: every flush stalls as if the kernel
    // buffer were full, so the queued response trips the byte cap.
    fault::Injector inj(1);
    fault::PointConfig stall;
    stall.probability = 1.0;
    inj.arm("net.server.write.stall", stall);
    fault::ScopedInjector scope(inj);

    net::Client slow(server.port());
    net::WireRequest req;
    req.hidden = make_hidden(4, 0);
    // The server disconnects the slow peer; the client observes the close
    // as a failed pending op.
    EXPECT_EQ(test::resolved_code(slow.submit_serving(std::move(req))),
              serving::ErrorCode::kShutdown);
    slow.close();
  }
  EXPECT_EQ(server.stats().slow_peer_disconnects, 1);
  // Not double-counted as a protocol error.
  EXPECT_EQ(server.stats().protocol_errors, 0);

  // Only that connection died: with the stall gone, a fresh client works.
  net::Client client(server.port());
  net::WireRequest req;
  req.hidden = make_hidden(4, 1);
  EXPECT_NO_THROW(client.submit_serving(std::move(req)).get());

  client.close();
  server.stop();
  service.stop();
}

TEST(Chaos, InflightCapAnswersBackpressureNotQueueing) {
  auto service = make_service([] {
    serving::EnginePoolOptions opts = pool_options(1);
    opts.engine.engine.max_batch_requests = 1;
    return opts;
  }());
  net::ServerOptions sopts;
  sopts.max_inflight_per_connection = 1;
  net::Server server(service, sopts);
  server.start();

  // Parks the replica on one big request, then exceeds the connection's
  // in-flight budget while it computes. Returns the blocker's future
  // first, then the four extras'.
  auto burst = [](net::Client& client) {
    std::vector<std::future<serving::Response>> futs;
    net::WireRequest big;
    big.hidden = make_hidden(2048, 0);
    futs.push_back(client.submit_serving(std::move(big)));
    std::this_thread::sleep_for(std::chrono::milliseconds(3));
    for (int i = 0; i < 4; ++i) {
      net::WireRequest req;
      req.hidden = make_hidden(2, 1 + i);
      futs.push_back(client.submit_serving(std::move(req)));
    }
    return futs;
  };

  net::Client client(server.port());
  auto futs = burst(client);
  EXPECT_NO_THROW(futs[0].get());
  int backpressure = 0;
  for (std::size_t i = 1; i < futs.size(); ++i) {
    if (test::resolved_code(futs[i]) == serving::ErrorCode::kBackpressure) {
      ++backpressure;
    }
  }
  EXPECT_GE(backpressure, 1);
  EXPECT_GE(server.stats().inflight_capped, 1);
  // The connection survived the declined frames.
  net::WireRequest last;
  last.hidden = make_hidden(2, 99);
  EXPECT_NO_THROW(client.submit_serving(std::move(last)).get());
  client.close();

  // A retrying client re-sends each kBackpressure reply until the cap
  // admits it. Its attempt budget (at least 37 s of 10 ms backoffs) dwarfs
  // the blocker's compute time even under TSan (~3 s), so every request
  // comes back kOk.
  const long long capped_before = server.stats().inflight_capped;
  net::ClientOptions copts;
  copts.retry.max_attempts = 5000;
  copts.retry.initial_backoff_ms = 1.0;
  copts.retry.max_backoff_ms = 10.0;
  net::Client retrying(server.port(), copts);
  for (auto& f : burst(retrying)) EXPECT_NO_THROW(f.get());
  EXPECT_GT(server.stats().inflight_capped, capped_before);
  EXPECT_GE(retrying.stats().retries, 1);

  retrying.close();
  server.stop();
  service.stop();
}

// ---- the chaos soak ---------------------------------------------------------

TEST(Chaos, SoakExactlyOnceBitwiseIdenticalQuarantineAndReadmit) {
  constexpr int kConns = 2;
  constexpr int kWave1 = 12;  // per connection, while replica 0 is failing
  constexpr int kWave2 = 6;   // per connection, after the cooldown
  constexpr int kPerConn = kWave1 + kWave2;
  constexpr int kTotal = kConns * kPerConn;

  std::vector<Tensor<fp16_t>> inputs;
  inputs.reserve(kTotal);
  for (int i = 0; i < kTotal; ++i) {
    inputs.push_back(make_hidden(2 + i % 7, i));
  }

  // Fault-free reference: the same inputs straight through an identical
  // in-process service. Each output depends only on its input, so the
  // chaos run must reproduce these bits exactly.
  std::vector<Tensor<fp16_t>> want(kTotal);
  {
    auto direct = make_service(pool_options(2));
    std::vector<std::future<serving::Response>> futs;
    for (int i = 0; i < kTotal; ++i) {
      serving::Request req;
      req.hidden = inputs[static_cast<std::size_t>(i)].clone();
      futs.push_back(direct.submit(std::move(req)));
    }
    for (int i = 0; i < kTotal; ++i) {
      want[static_cast<std::size_t>(i)] =
          std::move(futs[static_cast<std::size_t>(i)].get().output);
    }
    direct.stop();
  }

  // The seeded fault schedule: replica 0 fails every compute round until
  // it "recovers" (the point is disarmed between waves); ~20% of socket
  // operations are clamped short on both sides; the fifth client send
  // tears its connection down like a peer RST.
  fault::Injector inj(2026);
  {
    fault::PointConfig fail;
    fail.probability = 1.0;
    fail.instance = 0;
    inj.arm("serving.compute.fail", fail);
    fault::PointConfig shorty;
    shorty.probability = 0.2;
    inj.arm("net.server.read.short", shorty);
    inj.arm("net.server.write.short", shorty);
    inj.arm("net.client.write.short", shorty);
    fault::PointConfig reset;
    reset.fire_at = {4};
    inj.arm("net.client.conn.reset", reset);
  }
  fault::ScopedInjector scope(inj);

  serving::EnginePoolOptions popts = pool_options(2);
  popts.breaker.failure_threshold = 3;
  popts.breaker.quarantine_seconds = 0.1;
  auto service = make_service(popts);
  net::Server server(service);
  server.start();

  net::ClientOptions copts;
  copts.retry.max_attempts = 8;
  copts.retry.initial_backoff_ms = 1.0;
  copts.retry.max_backoff_ms = 10.0;
  copts.retry.seed = 7;

  std::vector<serving::Response> got(kTotal);
  std::vector<std::unique_ptr<net::Client>> clients;
  std::vector<std::vector<std::future<serving::Response>>> futs(kConns);
  for (int c = 0; c < kConns; ++c) {
    clients.push_back(
        std::make_unique<net::Client>(server.port(), copts));
  }
  const auto submit_wave = [&](int begin, int count) {
    for (int c = 0; c < kConns; ++c) {
      for (int k = 0; k < count; ++k) {
        const int slot = c * kPerConn + begin + k;
        net::WireRequest req;
        req.hidden = inputs[static_cast<std::size_t>(slot)].clone();
        futs[static_cast<std::size_t>(c)].push_back(
            clients[static_cast<std::size_t>(c)]->submit_serving(
                std::move(req)));
      }
    }
  };
  const auto collect = [&](int begin) {
    for (int c = 0; c < kConns; ++c) {
      auto& wave = futs[static_cast<std::size_t>(c)];
      for (std::size_t k = 0; k < wave.size(); ++k) {
        const int slot = c * kPerConn + begin + static_cast<int>(k);
        // .get() resolves exactly once per request: a duplicate
        // resolution would abort on the satisfied promise, a lost one
        // would hang here. Every request must succeed — the injected
        // failures are the client's and breaker's problem, not ours.
        EXPECT_NO_THROW(got[static_cast<std::size_t>(slot)] = wave[k].get());
      }
      wave.clear();
    }
  };

  // Wave 1 runs while replica 0 is failing: retries absorb the kInternal
  // replies and the short/reset socket faults; the breaker quarantines
  // the replica.
  submit_wave(0, kWave1);
  collect(0);
  const serving::EnginePool::BreakerStats mid =
      service.pool("tiny").breaker_stats();
  EXPECT_GE(mid.quarantines, 1);

  // The replica recovers, the cooldown elapses, and wave 2's half-open
  // probe readmits it.
  inj.disarm("serving.compute.fail");
  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  submit_wave(kWave1, kWave2);
  collect(kWave1);

  // Readmission needs a route to launch the probe and a later refresh to
  // credit its completion; if wave 2 resolved before the probe finished,
  // drive light traffic until the breaker observes it.
  serving::EnginePool::BreakerStats end = service.pool("tiny").breaker_stats();
  const auto give_up = std::chrono::steady_clock::now() +
                       std::chrono::seconds(10);
  int extra = 0;
  while (end.readmissions < 1 &&
         std::chrono::steady_clock::now() < give_up) {
    std::this_thread::sleep_for(std::chrono::milliseconds(120));
    net::WireRequest req;
    req.hidden = inputs[static_cast<std::size_t>(extra++ % kTotal)].clone();
    EXPECT_NO_THROW(clients[0]->submit_serving(std::move(req)).get());
    end = service.pool("tiny").breaker_stats();
  }
  EXPECT_GE(end.quarantines, 1);
  EXPECT_GE(end.probes, 1);
  EXPECT_GE(end.readmissions, 1);

  long long retries = 0;
  for (auto& client : clients) {
    retries += client->stats().retries;
    client->close();
  }
  // The breaker needed at least failure_threshold (3) failed requests to
  // trip, and every one of those kInternal replies was re-sent.
  EXPECT_GE(retries, 3);
  EXPECT_GT(inj.total_fires(), 0u);

  server.stop();
  service.stop();

  for (int i = 0; i < kTotal; ++i) {
    SCOPED_TRACE("request " + std::to_string(i));
    expect_bits_equal(got[static_cast<std::size_t>(i)].output,
                      want[static_cast<std::size_t>(i)]);
  }
}

}  // namespace
}  // namespace bt
