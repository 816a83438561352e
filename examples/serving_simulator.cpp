// Online-serving simulation — the scenario that motivates the paper
// (TikTok/Douyin-style NLP serving with wildly varying sentence lengths),
// grown to the fleet shape the related serving systems assume: many models,
// conversational sessions, and SLO deadlines behind one front door.
//
// Requests arrive as a real-time Poisson process and are submitted to a
// serving::Service from the arrival thread: a ModelRegistry maps
// `--models N` model names to per-model EnginePool replica groups
// (`--replicas` AsyncEngines each, sharing that model's weights), every
// request carries a model key and optionally a session id (`--sessions`),
// and the per-model router spreads requests over replicas — sticky-session
// routing (`--sticky` or `--route sticky`) pins each session to the replica
// whose per-session workspace is already warm. With `--slo-ms X` every
// request carries a deadline X ms after submission; requests whose deadline
// passes before compute are shed with a distinct error instead of burning
// batch capacity. Three batching policies are compared:
//   pad-to-max   — conventional frameworks,
//   sort+group   — TurboTransformer SmartBatch proxy,
//   packed       — ByteTransformer padding-free.
// Prints throughput, end-to-end latency percentiles (arrival -> response),
// padded-token waste per policy, deadline met/missed/shed accounting, the
// sticky-session hit rate plus workspace reuse, and — with more than one
// replica — the per-model, per-replica routing/utilization breakdown.
//
// With `--wire` the same trace is driven over real loopback sockets: a
// net::Server fronts the service, `--wire-conns` client connections carry
// the requests through the length-prefixed wire protocol, and deadlines
// travel as the frame's deadline_ms field — so the report measures the
// full socket -> decode -> submit -> encode -> socket path instead of an
// in-process future.
//
// SIGINT/SIGTERM interrupt the replay gracefully: submission stops, every
// in-flight request drains, and the final report covers exactly the
// traffic that ran.
//
// With `--chaos P` a deterministic fault injector (common/fault.h) arms
// socket-level faults — short reads/writes on both sides at probability P,
// client connection resets and replica compute failures at P/8 — under
// `--chaos-seed`. Wire clients then run with a retry policy (backoff,
// reconnect), so the report shows how much of the injected damage the
// resilience machinery absorbed (retries, reconnects, residual failures).
//
// With `--conversation R` the trace becomes multi-round conversations
// (docs/CACHING.md): every session re-submits its full history each round,
// extended by a freshly sampled suffix — the incremental-encoding traffic
// shape the prefix cache exists for. The service runs with a shared
// prefix-activation cache (`--cache-mb`, default 64 MiB, 0 = cache off for
// an A/B baseline), every policy section is forced onto the cache-eligible
// flag set (causal packed/fused-MHA; batching policy still varies), and
// each round prints a cache line — hits, computed-suffix ratio, and tokens
// the cache saved — computed from Service stats deltas, with the cache's
// byte/eviction totals after the last round.
//
// Telemetry (docs/OBSERVABILITY.md): each policy section ends with a
// latency-breakdown table — queue/batch/compute/flush p50/p99 decomposed
// from the obs trace ring's per-request stage stamps. `--stats-interval S`
// additionally prints the live metric-registry snapshot as one JSON line
// every S seconds while the replay runs (over the wire via a kStatsRequest
// frame when --wire is on — the same path tools/bt_stats uses — otherwise
// straight from the in-process registry). `--wire-port P` pins the
// server's port so an external bt_stats can poll the same run.
//
// Usage: serving_simulator [--replicas N] [--route rr|lor|lot|sticky]
//                          [--requests N] [--rps X] [--models N]
//                          [--sessions N] [--sticky] [--slo-ms X]
//                          [--conversation R] [--cache-mb X]
//                          [--wire] [--wire-conns N] [--wire-port P]
//                          [--bind A] [--stats-interval S]
//                          [--chaos P] [--chaos-seed N]
#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "cache/prefix_cache.h"
#include "common/fault.h"
#include "common/rng.h"
#include "common/stats.h"
#include "core/model.h"
#include "net/client.h"
#include "net/server.h"
#include "obs/fields.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serving/request_gen.h"
#include "serving/service.h"
#include "tensor/tensor.h"

namespace {

using namespace bt;

struct Policy {
  const char* name;
  core::OptFlags flags;
  serving::BatchPolicy batching;
  int group_size;  // kSortGroup only
};

struct Args {
  int replicas = 1;
  serving::RoutePolicy route = serving::RoutePolicy::kLeastOutstandingTokens;
  int num_requests = 96;
  double rps = 400.0;
  int models = 1;
  int sessions = 0;   // 0 = stateless traffic
  double slo_ms = 0;  // 0 = no deadlines
  int conversation = 0;   // rounds per session; 0 = single-shot traffic
  double cache_mb = 64.0;  // prefix-cache budget in conversation mode
  bool wire = false;  // drive the trace over loopback sockets
  int wire_conns = 4;
  int wire_port = 0;  // 0 = kernel-assigned
  std::string bind = "127.0.0.1";  // --wire listen address
  double stats_interval = 0;  // 0 = no live snapshot polling
  double chaos = 0;   // fault probability for the injected fault points
  std::uint64_t chaos_seed = 42;
};

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--replicas N] [--route rr|lor|lot|sticky] "
               "[--requests N] [--rps X]\n"
               "          [--models N] [--sessions N] [--sticky] [--slo-ms X]\n"
               "          [--conversation R] [--cache-mb X]\n"
               "          [--wire] [--wire-conns N] [--wire-port P] "
               "[--bind A] [--stats-interval S]\n"
               "          [--chaos P] [--chaos-seed N]\n",
               argv0);
  std::exit(2);
}

// Set from the signal handler, polled by replay_trace: an interrupted run
// stops submitting, drains in-flight requests, and still prints its report.
std::atomic<bool> g_interrupted{false};

extern "C" void on_signal(int) { g_interrupted.store(true); }

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const char* flag = argv[i];
    if (std::strcmp(flag, "--sticky") == 0) {  // value-less convenience alias
      args.route = serving::RoutePolicy::kStickySession;
      continue;
    }
    if (std::strcmp(flag, "--wire") == 0) {  // value-less
      args.wire = true;
      continue;
    }
    const char* value = i + 1 < argc ? argv[i + 1] : nullptr;
    if (value == nullptr) usage(argv[0]);
    if (std::strcmp(flag, "--replicas") == 0) {
      args.replicas = std::atoi(value);
      if (args.replicas < 1) usage(argv[0]);
    } else if (std::strcmp(flag, "--route") == 0) {
      const auto parsed = serving::parse_route_policy(value);
      if (!parsed.has_value()) usage(argv[0]);
      args.route = *parsed;
    } else if (std::strcmp(flag, "--requests") == 0) {
      args.num_requests = std::atoi(value);
      if (args.num_requests < 1) usage(argv[0]);
    } else if (std::strcmp(flag, "--rps") == 0) {
      args.rps = std::atof(value);
      if (!(args.rps > 0)) usage(argv[0]);
    } else if (std::strcmp(flag, "--models") == 0) {
      args.models = std::atoi(value);
      if (args.models < 1) usage(argv[0]);
    } else if (std::strcmp(flag, "--sessions") == 0) {
      args.sessions = std::atoi(value);
      if (args.sessions < 0) usage(argv[0]);
    } else if (std::strcmp(flag, "--slo-ms") == 0) {
      args.slo_ms = std::atof(value);
      if (args.slo_ms < 0) usage(argv[0]);
    } else if (std::strcmp(flag, "--conversation") == 0) {
      args.conversation = std::atoi(value);
      if (args.conversation < 1) usage(argv[0]);
    } else if (std::strcmp(flag, "--cache-mb") == 0) {
      args.cache_mb = std::atof(value);
      if (args.cache_mb < 0) usage(argv[0]);
    } else if (std::strcmp(flag, "--bind") == 0) {
      args.bind = value;
    } else if (std::strcmp(flag, "--wire-conns") == 0) {
      args.wire_conns = std::atoi(value);
      if (args.wire_conns < 1) usage(argv[0]);
    } else if (std::strcmp(flag, "--wire-port") == 0) {
      const int port = std::atoi(value);
      if (port < 0 || port > 65535) usage(argv[0]);
      args.wire_port = port;
    } else if (std::strcmp(flag, "--stats-interval") == 0) {
      args.stats_interval = std::atof(value);
      if (args.stats_interval < 0) usage(argv[0]);
    } else if (std::strcmp(flag, "--chaos") == 0) {
      args.chaos = std::atof(value);
      if (args.chaos < 0 || args.chaos > 1) usage(argv[0]);
    } else if (std::strcmp(flag, "--chaos-seed") == 0) {
      args.chaos_seed = static_cast<std::uint64_t>(std::atoll(value));
    } else {
      usage(argv[0]);
    }
    ++i;  // consumed the value
  }
  return args;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  std::signal(SIGINT, on_signal);
  std::signal(SIGTERM, on_signal);
  const core::BertConfig cfg = core::BertConfig::bert_base().scaled(2, 2);
  Rng rng(77);

  // Deterministic chaos: a seeded injector armed for the socket and compute
  // fault points (catalog in docs/ROBUSTNESS.md). Short I/O faults at the
  // requested rate; the destructive ones (resets, compute failures) at an
  // eighth of it.
  fault::Injector injector(args.chaos_seed);
  std::unique_ptr<fault::ScopedInjector> chaos_guard;
  if (args.chaos > 0) {
    fault::PointConfig frequent;
    frequent.probability = args.chaos;
    fault::PointConfig rare;
    rare.probability = args.chaos / 8.0;
    injector.arm("net.server.read.short", frequent);
    injector.arm("net.server.write.short", frequent);
    injector.arm("net.client.write.short", frequent);
    injector.arm("net.client.conn.reset", rare);
    injector.arm("serving.compute.fail", rare);
    chaos_guard = std::make_unique<fault::ScopedInjector>(injector);
  }

  // One physical weight copy per registered model (each packed once); the
  // replica groups inside each model's pool alias it.
  std::vector<std::string> model_names;
  std::vector<std::shared_ptr<const core::BertModel>> models;
  for (int m = 0; m < args.models; ++m) {
    model_names.push_back("bert-" + std::to_string(m));
    models.push_back(std::make_shared<const core::BertModel>(
        core::BertModel::random(cfg, rng)));
  }

  const int num_requests = args.num_requests;
  const int max_seq = 256;
  const int batch_size = 8;
  const auto lengths = serving::gen_lengths(num_requests, max_seq, 0.6, rng);
  const auto arrivals = serving::gen_arrivals(num_requests, args.rps, rng);
  // Per-request model key and session id, fixed across policies so every
  // policy serves the identical trace.
  std::vector<int> req_model(static_cast<std::size_t>(num_requests));
  std::vector<int> req_session(static_cast<std::size_t>(num_requests), -1);
  for (int i = 0; i < num_requests; ++i) {
    req_model[static_cast<std::size_t>(i)] =
        rng.uniform_int(0, args.models - 1);
    if (args.sessions > 0) {
      req_session[static_cast<std::size_t>(i)] =
          rng.uniform_int(0, args.sessions - 1);
    }
  }

  // Conversation-mode trace: per session, strictly growing cumulative round
  // lengths carved out of one deterministic full-history matrix, so round
  // r's input is bitwise round r-1's input plus a fresh suffix — exactly
  // the prefix-cache hit condition (docs/CACHING.md). Built once, before
  // the policy loop, so every policy serves the identical conversations.
  const int conv_sessions = args.sessions > 0 ? args.sessions : 8;
  std::vector<std::vector<int>> conv_lens;   // [session][round], cumulative
  std::vector<int> conv_model;               // session -> model index
  std::vector<Tensor<fp16_t>> conv_history;  // session -> full input matrix
  if (args.conversation > 0) {
    for (int s = 0; s < conv_sessions; ++s) {
      const int base = 16 + rng.uniform_int(0, 16);
      const int step_max = std::max(1, (max_seq - base) / args.conversation);
      std::vector<int> lens;
      int len = base;
      for (int r = 0; r < args.conversation; ++r) {
        lens.push_back(len);
        len += 1 + rng.uniform_int(0, step_max - 1);
      }
      const int total = lens.back();
      conv_lens.push_back(std::move(lens));
      conv_model.push_back(rng.uniform_int(0, args.models - 1));
      Tensor<fp16_t> hist({total, cfg.hidden()});
      for (std::int64_t row = 0; row < total; ++row) {
        for (int j = 0; j < cfg.hidden(); ++j) {
          hist(row, j) = fp16_t(
              0.001f * static_cast<float>((row * 31 + j * 7 + s) % 997));
        }
      }
      conv_history.push_back(std::move(hist));
    }
  }

  const Policy policies[] = {
      {"pad-to-max", core::OptFlags::bias_gelu_fused(),
       serving::BatchPolicy::kPadToMax, 0},
      {"sort+group(4)", core::OptFlags::layernorm_fused(),
       serving::BatchPolicy::kSortGroup, 4},
      {"packed (ByteTransformer)", core::OptFlags::byte_transformer(),
       serving::BatchPolicy::kPacked, 0},
  };

  std::printf(
      "serving %d requests at %.0f rps, max_seq %d, batch cap %d, alpha 0.6\n"
      "service: %d model(s) x %d replica(s), route=%s, %d session(s), "
      "slo %.1f ms,\n"
      "shared weights per model, 2 ms batching window, Poisson arrivals\n",
      num_requests, args.rps, max_seq, batch_size, args.models, args.replicas,
      serving::route_policy_name(args.route), args.sessions, args.slo_ms);
  if (args.wire) {
    std::printf("wire: loopback TCP via net::Server, %d client connection(s), "
                "frame protocol v%d\n",
                args.wire_conns, net::kWireVersion);
  }
  if (args.chaos > 0) {
    std::printf("chaos: fault rate %.2f (resets/compute-fail %.3f), seed %llu"
                "%s\n",
                args.chaos, args.chaos / 8.0,
                static_cast<unsigned long long>(args.chaos_seed),
                args.wire ? ", retrying clients" : "");
  }
  if (args.conversation > 0) {
    std::printf("conversation: %d round(s) x %d session(s), prefix cache "
                "%.0f MiB%s; every policy\n"
                "runs the cache-eligible flag set (causal packed fused-MHA) "
                "— batching still varies\n",
                args.conversation, conv_sessions, args.cache_mb,
                args.cache_mb <= 0 ? " (cache OFF)" : "");
  }
  std::printf("\n");
  // tok/ms(fwd) is compute-side throughput (valid tokens per forward-pass
  // millisecond): with real-time replay, total wall time is dominated by
  // the fixed arrival trace and would look identical across policies.
  if (args.conversation == 0) {
    std::printf("%-26s %10s %10s %10s %12s %10s\n", "policy", "total(ms)",
                "p50(ms)", "p95(ms)", "tok/ms(fwd)", "pad-waste");
  }

  for (const Policy& pol : policies) {
    // Each policy section reports its own telemetry: zero the registry and
    // re-arm the trace ring (sized to hold the whole trace, sampling off)
    // so the breakdown table below decomposes exactly this policy's run.
    obs::MetricRegistry::global().reset_for_testing();
    obs::TraceRing::global().configure(
        static_cast<std::size_t>(num_requests) + 16, 1);

    core::OptFlags flags = pol.flags;
    if (args.conversation > 0) {
      // Prefix reuse is only exact under causal packed attention
      // (OptFlags::validate), so conversation mode forces the eligible
      // flag set; the per-section variable is the batching policy.
      flags = core::OptFlags::byte_transformer();
      flags.causal = true;
    }
    serving::EnginePoolOptions pool_opts;
    pool_opts.engine.engine.flags = flags;
    pool_opts.engine.engine.policy = pol.batching;
    pool_opts.engine.engine.group_size = pol.group_size > 0 ? pol.group_size : 4;
    pool_opts.engine.engine.max_batch_requests = batch_size;
    pool_opts.engine.max_wait_seconds = 0.002;
    pool_opts.replicas = args.replicas;
    pool_opts.route = args.route;

    serving::ModelRegistry registry;
    for (int m = 0; m < args.models; ++m) {
      registry.add(model_names[static_cast<std::size_t>(m)],
                   models[static_cast<std::size_t>(m)], pool_opts);
    }
    serving::ServiceOptions service_opts;
    if (args.conversation > 0 && args.cache_mb > 0) {
      service_opts.prefix_cache_bytes =
          static_cast<std::size_t>(args.cache_mb * 1024.0 * 1024.0);
    }
    serving::Service service(std::move(registry), service_opts);

    // Pre-build every request so construction cost does not pollute the
    // measured latencies or delay later submissions. Deadlines are attached
    // at submit time (inside the replay callback) so the SLO window starts
    // at the request's arrival, not at trace-build time. (Conversation mode
    // builds each round's requests at its barrier instead — round timing is
    // reported per round, not per request.)
    std::vector<serving::Request> requests;
    requests.reserve(static_cast<std::size_t>(num_requests));
    for (int i = 0; i < (args.conversation > 0 ? 0 : num_requests); ++i) {
      const int len = lengths[static_cast<std::size_t>(i)];
      serving::Request req;
      req.hidden = Tensor<fp16_t>({len, cfg.hidden()});
      for (std::int64_t s = 0; s < len; ++s) {
        for (int j = 0; j < cfg.hidden(); ++j) {
          req.hidden(s, j) = fp16_t(0.01f * j);
        }
      }
      req.model = model_names[static_cast<std::size_t>(
          req_model[static_cast<std::size_t>(i)])];
      if (req_session[static_cast<std::size_t>(i)] >= 0) {
        req.session =
            "s" + std::to_string(req_session[static_cast<std::size_t>(i)]);
      }
      requests.push_back(std::move(req));
    }

    // With --wire the identical trace runs through real sockets: server in
    // front of the service, a small pool of client connections, requests
    // round-robined across them, deadlines carried as wire-relative ms.
    std::unique_ptr<net::Server> server;
    std::vector<std::unique_ptr<net::Client>> clients;
    if (args.wire) {
      net::ServerOptions sopts;
      sopts.port = static_cast<std::uint16_t>(args.wire_port);
      sopts.bind_addr = args.bind;
      server = std::make_unique<net::Server>(service, sopts);
      server->start();
      if (args.wire_port > 0) {
        std::printf("wire: listening on %s:%u (bt_stats --port %u)\n",
                    args.bind.c_str(), server->port(), server->port());
      }
      net::ClientOptions copts;
      // A wildcard bind still answers on loopback; the in-process clients
      // connect there rather than to the unroutable 0.0.0.0.
      copts.host = args.bind == "0.0.0.0" ? "127.0.0.1" : args.bind;
      if (args.chaos > 0) {
        // Under chaos the clients absorb injected damage: retry declined
        // and broken requests with deterministic backoff, reconnect on
        // connection loss.
        copts.retry.max_attempts = 5;
        copts.retry.initial_backoff_ms = 2.0;
        copts.retry.seed = args.chaos_seed;
      }
      for (int c = 0; c < args.wire_conns; ++c) {
        clients.push_back(
            std::make_unique<net::Client>(server->port(), copts));
      }
    }
    std::size_t next_conn = 0;
    const auto submit = [&](serving::Request req) {
      if (args.wire) {
        net::WireRequest w;
        w.model = req.model.value_or("");
        w.session = req.session.value_or("");
        if (args.slo_ms > 0) {
          w.deadline_ms = static_cast<std::uint32_t>(args.slo_ms);
        }
        w.hidden = std::move(req.hidden);
        return clients[next_conn++ % clients.size()]->submit_serving(
            std::move(w));
      }
      if (args.slo_ms > 0) {
        req.deadline = serving::deadline_in(args.slo_ms * 1e-3);
      }
      return service.submit(std::move(req));
    };

    // Live snapshot polling: one JSON line every --stats-interval seconds
    // while the replay runs. Over the wire this exercises the same
    // kStatsRequest path tools/bt_stats uses (on its own connection, so
    // stats frames never queue behind submissions); in-process it publishes
    // and serializes the registry directly.
    std::atomic<bool> stats_poll_stop{false};
    std::thread stats_poller;
    if (args.stats_interval > 0) {
      stats_poller = std::thread([&] {
        std::unique_ptr<net::Client> poll_client;
        const auto tick = std::chrono::milliseconds(20);
        auto next_pull = std::chrono::steady_clock::now() +
                         std::chrono::duration_cast<
                             std::chrono::steady_clock::duration>(
                             std::chrono::duration<double>(
                                 args.stats_interval));
        while (!stats_poll_stop.load()) {
          std::this_thread::sleep_for(tick);
          if (std::chrono::steady_clock::now() < next_pull) continue;
          next_pull += std::chrono::duration_cast<
              std::chrono::steady_clock::duration>(
              std::chrono::duration<double>(args.stats_interval));
          std::string json;
          if (args.wire) {
            try {
              if (poll_client == nullptr) {
                net::ClientOptions popts;
                popts.host =
                    args.bind == "0.0.0.0" ? "127.0.0.1" : args.bind;
                poll_client =
                    std::make_unique<net::Client>(server->port(), popts);
              }
              json = poll_client->fetch_stats(false).get().metrics_json;
            } catch (const std::exception&) {
              break;  // server gone; the replay is ending
            }
          } else {
            service.publish_stats();
            json = obs::MetricRegistry::global().to_json();
          }
          std::printf("[stats] %s\n", json.c_str());
          std::fflush(stdout);
        }
        if (poll_client != nullptr) poll_client->close();
      });
    }

    // Conversation mode drives its own round-barrier loop instead of the
    // Poisson replay: round r+1 may only be submitted after round r's
    // responses land — the entry a cache hit needs is inserted at
    // completion — which is also how a real conversational client behaves.
    // Rounds are concurrent ACROSS sessions, so batching and (with
    // --replicas) routing still operate normally within a round.
    if (args.conversation > 0) {
      std::printf("%-26s [%s + %s]\n", pol.name, flags.name().c_str(),
                  args.cache_mb > 0 ? "cache" : "no cache");
      const auto t0 = std::chrono::steady_clock::now();
      long long failures = 0;
      for (int r = 0; r < args.conversation && !g_interrupted.load(); ++r) {
        const serving::EngineStats before = service.stats();
        const auto r0 = std::chrono::steady_clock::now();
        long long round_tokens = 0;
        std::vector<std::future<serving::Response>> futs;
        futs.reserve(static_cast<std::size_t>(conv_sessions));
        for (int s = 0; s < conv_sessions; ++s) {
          const int len = conv_lens[static_cast<std::size_t>(s)]
                                   [static_cast<std::size_t>(r)];
          serving::Request req;
          req.hidden = Tensor<fp16_t>({len, cfg.hidden()});
          std::memcpy(req.hidden.data(),
                      conv_history[static_cast<std::size_t>(s)].data(),
                      static_cast<std::size_t>(len) *
                          static_cast<std::size_t>(cfg.hidden()) *
                          sizeof(fp16_t));
          req.model = model_names[static_cast<std::size_t>(
              conv_model[static_cast<std::size_t>(s)])];
          req.session = "conv-" + std::to_string(s);
          round_tokens += len;
          futs.push_back(submit(std::move(req)));
        }
        for (auto& f : futs) {
          try {
            f.get();
          } catch (const std::exception&) {
            ++failures;
          }
        }
        const double round_ms =
            std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                          r0)
                .count() *
            1e3;
        const serving::EngineStats after = service.stats();
        const long long hits = after.cache_hits - before.cache_hits;
        const long long misses = after.cache_misses - before.cache_misses;
        const long long saved =
            after.cache_saved_tokens - before.cache_saved_tokens;
        // suffix% = computed tokens / submitted tokens this round: 100% on
        // a cold round, dropping toward the marginal-suffix share as the
        // cache covers ever-longer prefixes.
        std::printf("  round %2d: %3d req  cache hits %lld/%lld  "
                    "suffix %3.0f%%  saved %5lld tok  %8.2f ms\n",
                    r + 1, conv_sessions, hits, hits + misses,
                    round_tokens > 0
                        ? 100.0 * static_cast<double>(round_tokens - saved) /
                              static_cast<double>(round_tokens)
                        : 0.0,
                    saved, round_ms);
      }
      const double conv_total_ms =
          std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
              .count() *
          1e3;
      stats_poll_stop.store(true);
      if (stats_poller.joinable()) stats_poller.join();
      clients.clear();
      if (server != nullptr) server->stop();
      service.stop();
      const auto st = service.stats();
      std::printf("  total %.1f ms  tok/ms(fwd) %.1f  hits %lld  misses "
                  "%lld  saved %lld tok%s\n",
                  conv_total_ms,
                  st.compute_seconds > 0
                      ? static_cast<double>(st.valid_tokens) /
                            (st.compute_seconds * 1e3)
                      : 0.0,
                  st.cache_hits, st.cache_misses, st.cache_saved_tokens,
                  failures > 0 ? "  (with failures)" : "");
      if (service.prefix_cache() != nullptr) {
        const cache::CacheStats cs = service.prefix_cache()->stats();
        std::printf("  cache: %zu/%zu bytes  %zu entries  %lld evictions  "
                    "%lld invalidations  %lld migrations\n",
                    cs.bytes, service.prefix_cache()->budget(), cs.entries,
                    cs.evictions, cs.invalidations, cs.migrations);
      }
      if (g_interrupted.load()) return 130;
      continue;
    }

    const serving::ReplayResult replay = serving::replay_trace(
        arrivals, std::move(requests), submit, &g_interrupted);
    stats_poll_stop.store(true);
    if (stats_poller.joinable()) stats_poller.join();
    // Latency percentiles cover served requests only: a shed request's
    // future resolves almost immediately with DeadlineExceeded, and folding
    // those near-zero times in would make deadline pressure look like a
    // latency win. On an interrupted run, unsubmitted entries (stamp -1)
    // are skipped the same way.
    std::vector<double> latency;
    latency.reserve(static_cast<std::size_t>(num_requests));
    for (std::size_t i = 0; i < replay.done_seconds.size(); ++i) {
      if (replay.done_seconds[i] >= 0 && !replay.failed[i]) {
        latency.push_back((replay.done_seconds[i] - arrivals[i]) * 1e3);
      }
    }
    const double total_ms = replay.last_done_seconds * 1e3;
    net::ClientStats wire_resilience;
    for (const auto& client : clients) {
      obs::merge_fields(wire_resilience, client->stats());
    }
    // Teardown order matters: clients first (so the server sees clean
    // EOFs), then the socket front-end, then the compute tier it fronts.
    clients.clear();
    if (server != nullptr) server->stop();
    service.stop();
    if (g_interrupted.load()) {
      std::printf("interrupted: submitted %zu/%d requests; draining done, "
                  "report covers the traffic that ran\n",
                  replay.submitted, num_requests);
    }

    const auto st = service.stats();
    std::printf("%-26s %10.1f %10.2f %10.2f %12.1f %9.0f%%\n", pol.name,
                total_ms,
                latency.empty() ? 0.0 : stats::percentile(latency, 0.5),
                latency.empty() ? 0.0 : stats::percentile(latency, 0.95),
                st.compute_seconds > 0
                    ? static_cast<double>(st.valid_tokens) /
                          (st.compute_seconds * 1e3)
                    : 0.0,
                st.processed_tokens > 0
                    ? 100.0 * static_cast<double>(st.padding_tokens()) /
                          static_cast<double>(st.processed_tokens)
                    : 0.0);

    // Stage decomposition from the trace ring: where each served request's
    // time went — waiting for its batching window to close (queue), window
    // close to compute start (batch formation + dispatch), the forward pass
    // itself (compute), and compute end to promise resolution (flush).
    {
      const auto traced = obs::TraceRing::global().snapshot();
      if (!traced.empty()) {
        std::vector<double> queue_ms, batch_ms, compute_ms, flush_ms;
        queue_ms.reserve(traced.size());
        batch_ms.reserve(traced.size());
        compute_ms.reserve(traced.size());
        flush_ms.reserve(traced.size());
        for (const auto& t : traced) {
          queue_ms.push_back((t.t_window_close - t.t_submit) * 1e3);
          batch_ms.push_back((t.t_compute_start - t.t_window_close) * 1e3);
          compute_ms.push_back((t.t_compute_end - t.t_compute_start) * 1e3);
          flush_ms.push_back((t.t_replied - t.t_compute_end) * 1e3);
        }
        std::printf("  breakdown over %zu traced request(s), p50/p99 ms:\n",
                    traced.size());
        std::printf(
            "    queue %6.2f/%6.2f  batch %6.2f/%6.2f  compute %6.2f/%6.2f"
            "  flush %6.2f/%6.2f\n",
            stats::percentile(queue_ms, 0.5), stats::percentile(queue_ms, 0.99),
            stats::percentile(batch_ms, 0.5), stats::percentile(batch_ms, 0.99),
            stats::percentile(compute_ms, 0.5),
            stats::percentile(compute_ms, 0.99),
            stats::percentile(flush_ms, 0.5),
            stats::percentile(flush_ms, 0.99));
      }
    }
    if (args.wire && args.chaos <= 0) {
      // Under --chaos the line below folds these into its damage report.
      std::printf("  wire: clients retried %lld, reconnected %lld\n",
                  wire_resilience.retries, wire_resilience.reconnects);
    }

    if (args.slo_ms > 0) {
      std::printf("  deadlines: %lld met  %lld missed  %lld shed "
                  "(%lld replay failures)\n",
                  st.deadline_met, st.deadline_missed, st.deadline_shed,
                  replay.failures());
    }
    if (args.chaos > 0) {
      std::printf("  chaos: %llu fires across %s fault points; clients "
                  "retried %lld, reconnected %lld; %lld request(s) failed\n",
                  static_cast<unsigned long long>(injector.total_fires()),
                  args.wire ? "socket+compute" : "compute",
                  wire_resilience.retries, wire_resilience.reconnects,
                  replay.failures());
    }
    if (args.sessions > 0) {
      const auto sr = service.session_route_stats();
      const long long ws_total = st.session_ws_hits + st.session_ws_misses;
      std::printf(
          "  sessions: %lld/%lld sticky-routed to their pin, workspace "
          "hit rate %.0f%% (%lld/%lld)\n",
          sr.sticky_hits, sr.session_requests,
          ws_total > 0 ? 100.0 * static_cast<double>(st.session_ws_hits) /
                             static_cast<double>(ws_total)
                       : 0.0,
          st.session_ws_hits, ws_total);
    }
    if (args.replicas > 1) {
      // Per-model, per-replica breakdown: routed share, compute-busy
      // fraction of the trace (utilization), and the queue-depth high-water
      // the router saw.
      for (const std::string& name : service.models()) {
        const auto rs = service.pool(name).replica_stats();
        for (std::size_t r = 0; r < rs.size(); ++r) {
          if (rs[r].routed_requests == 0) continue;
          std::printf(
              "  %-8s replica %zu: %3lld reqs %6lld tokens  %2lld rounds  "
              "util %4.0f%%  peak queue %zu\n",
              name.c_str(), r, rs[r].routed_requests, rs[r].routed_tokens,
              rs[r].engine.batches,
              100.0 * rs[r].engine.compute_seconds / (total_ms * 1e-3),
              rs[r].peak_outstanding);
        }
      }
    }
    if (g_interrupted.load()) return 130;  // stopped by signal; report printed
  }

  std::printf(
      "\npacked batching does the least redundant work per batch, which\n"
      "shows up as both lower tail latency and higher token throughput;\n"
      "each replica's scheduler overlaps its next round's batch formation\n"
      "with the current round's compute, the per-model routers keep\n"
      "replicas' outstanding work balanced, and sticky sessions land on\n"
      "the replica whose per-session workspace is already sized for them.\n");
  return 0;
}
