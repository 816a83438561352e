// bt_stats — pull a live server's telemetry snapshot over the wire.
//
//   bt_stats --port P [--bind A] [--traces] [--interval S] [--count N]
//
// Connects to A:P (default 127.0.0.1 — pass the address a remote server
// bound with ServerOptions::bind_addr), sends a kStatsRequest frame
// (net/protocol.h),
// and prints the server's metric-registry snapshot — one JSON object per
// pull — on stdout. --traces appends the server's sampled trace ring
// (JSONL, one record per line) after each snapshot. --interval polls every
// S seconds until interrupted (or N pulls with --count). Exit status is 0
// when every pull succeeded, 1 otherwise.
//
// The snapshot is exactly what the in-process observers report: before
// serializing, the server publishes its stats structs (engine, route,
// per-model, prefix-cache and server stats) into the registry through each
// struct's field list (docs/OBSERVABILITY.md rule 3), so the gauges here
// equal what a co-located caller of Service::stats() or
// PrefixCache::stats() would read. This tool only prints the JSON.
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>
#include <thread>

#include "net/client.h"

namespace {

void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --port P [--bind addr] [--traces] "
               "[--interval seconds] [--count N]\n",
               argv0);
}

}  // namespace

int main(int argc, char** argv) {
  std::uint16_t port = 0;
  std::string bind_addr = "127.0.0.1";
  bool traces = false;
  double interval = 0.0;
  long count = 1;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        usage(argv[0]);
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--port") {
      port = static_cast<std::uint16_t>(std::strtoul(next(), nullptr, 10));
    } else if (arg == "--bind") {
      bind_addr = next();
    } else if (arg == "--traces") {
      traces = true;
    } else if (arg == "--interval") {
      interval = std::strtod(next(), nullptr);
      count = -1;  // poll until interrupted unless --count narrows it
    } else if (arg == "--count") {
      count = std::strtol(next(), nullptr, 10);
    } else if (arg == "--help" || arg == "-h") {
      usage(argv[0]);
      return 0;
    } else {
      std::fprintf(stderr, "bt_stats: unknown argument '%s'\n", arg.c_str());
      usage(argv[0]);
      return 2;
    }
  }
  if (port == 0) {
    usage(argv[0]);
    return 2;
  }

  try {
    bt::net::ClientOptions client_opts;
    client_opts.host = bind_addr;
    bt::net::Client client(port, client_opts);
    for (long pull = 0; count < 0 || pull < count; ++pull) {
      if (pull > 0 && interval > 0.0) {
        std::this_thread::sleep_for(std::chrono::duration<double>(interval));
      }
      bt::net::WireStats stats = client.fetch_stats(traces).get();
      std::printf("%s\n", stats.metrics_json.c_str());
      if (traces && !stats.traces_jsonl.empty()) {
        std::fputs(stats.traces_jsonl.c_str(), stdout);
      }
      std::fflush(stdout);
    }
    client.close();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bt_stats: %s\n", e.what());
    return 1;
  }
  return 0;
}
