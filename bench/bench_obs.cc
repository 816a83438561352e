// Telemetry overhead: what does src/obs/ cost the serving hot path?
//
// BM_ObsCounterInc / BM_ObsHistogramRecord / BM_ObsHllAdd — the raw cost of
// one recording call with the kill switch on (obs=1, one relaxed atomic op)
// vs off (obs=0, a relaxed load + branch). The obs=0 numbers bound what a
// BT_OBS_DISABLED build pays at the same call sites: the compiled-out body
// is empty, so it can only be cheaper than the measured branch.
//
// BM_ServingServiceObs — the macro check the acceptance bar reads: a
// two-model sticky-session Service replay with recording enabled vs
// disabled. The two arms alternate replay-by-replay
// inside one benchmark run (a paired design): on a shared host, throughput
// drifts several percent over seconds, which would swamp a sequential A/B —
// alternating cancels the drift out of the comparison. req_s_obs1 must stay
// within 2% of req_s_obs0; bench/run_perf.sh merges the JSON into
// BENCH_obs.json and the perf-smoke CI job uploads it.
//
// Every arm restores the prior kill-switch state so bench ordering can't
// leak a disabled registry into another binary's expectations.
#include <benchmark/benchmark.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.h"
#include "obs/hll.h"
#include "obs/metrics.h"
#include "serving/service.h"

namespace bt::bench {
namespace {

// Flips the kill switch for one benchmark run and restores it after.
class ObsArm {
 public:
  explicit ObsArm(bool on) : prior_(obs::enabled()) { obs::set_enabled(on); }
  ~ObsArm() { obs::set_enabled(prior_); }

 private:
  bool prior_;
};

void BM_ObsCounterInc(benchmark::State& state) {
  const bool on = state.range(0) != 0;
  ObsArm arm(on);
  obs::Counter& c = obs::MetricRegistry::global().counter("bench.obs.counter");
  for (auto _ : state) {
    c.inc();
  }
  state.counters["obs"] = on ? 1 : 0;
}
BENCHMARK(BM_ObsCounterInc)->Arg(0)->Arg(1);

void BM_ObsHistogramRecord(benchmark::State& state) {
  const bool on = state.range(0) != 0;
  ObsArm arm(on);
  obs::LatencyHistogram& h =
      obs::MetricRegistry::global().histogram("bench.obs.histogram");
  std::uint64_t v = 1;
  for (auto _ : state) {
    h.record(v);
    v = v * 2862933555777941757ULL + 3037000493ULL;  // cheap LCG, full range
  }
  state.counters["obs"] = on ? 1 : 0;
}
BENCHMARK(BM_ObsHistogramRecord)->Arg(0)->Arg(1);

void BM_ObsHllAdd(benchmark::State& state) {
  const bool on = state.range(0) != 0;
  ObsArm arm(on);
  obs::Hll& hll = obs::MetricRegistry::global().hll("bench.obs.hll");
  const std::string session = "conv-0042";
  for (auto _ : state) {
    hll.add(session);
  }
  state.counters["obs"] = on ? 1 : 0;
}
BENCHMARK(BM_ObsHllAdd)->Arg(0)->Arg(1);

// ---- macro arm: a Service replay with telemetry on vs off -------------------
// Two models at 1 replica each, one sessionful Poisson trace replayed the
// same way every time — the only knob is the obs kill switch.

constexpr int kObsRequests = 64;
constexpr int kObsMaxSeq = 128;
constexpr double kObsRps = 4000.0;  // saturating

std::shared_ptr<const core::BertModel> obs_model_a() {
  static std::shared_ptr<const core::BertModel> model = [] {
    Rng rng(kSeed + 11);
    return std::make_shared<const core::BertModel>(core::BertModel::random(
        core::BertConfig::bert_base().scaled(2, 2), rng));
  }();
  return model;
}

std::shared_ptr<const core::BertModel> obs_model_b() {
  static std::shared_ptr<const core::BertModel> model = [] {
    Rng rng(kSeed + 13);
    return std::make_shared<const core::BertModel>(core::BertModel::random(
        core::BertConfig::bert_base().scaled(2, 2), rng));
  }();
  return model;
}

struct ObsTrace {
  std::vector<double> arrivals;
  std::vector<serving::Request> requests;
};

ObsTrace obs_trace() {
  static const ObsTrace master = [] {
    ObsTrace t;
    Rng rng(kSeed + 12);
    const auto lens =
        serving::gen_lengths(kObsRequests, kObsMaxSeq, kAlpha, rng);
    const std::int64_t h = obs_model_a()->config().hidden();
    for (int len : lens) {
      serving::Request req;
      req.hidden = Tensor<fp16_t>::random_normal({len, h}, rng);
      t.requests.push_back(std::move(req));
    }
    t.arrivals = serving::gen_arrivals(kObsRequests, kObsRps, rng);
    return t;
  }();
  ObsTrace replay;
  replay.arrivals = master.arrivals;
  for (std::size_t i = 0; i < master.requests.size(); ++i) {
    serving::Request req;
    req.hidden = master.requests[i].hidden.clone();
    req.model = i % 2 == 0 ? "bert-a" : "bert-b";
    req.session = "conv-" + std::to_string(i % 8);
    replay.requests.push_back(std::move(req));
  }
  return replay;
}

void BM_ServingServiceObs(benchmark::State& state) {
  std::vector<double> latency_ms[2];
  double serve_seconds[2] = {0, 0};
  long long served[2] = {0, 0};
  bool on = false;  // replays alternate: off, on, off, on, ...

  for (auto _ : state) {
    ObsArm arm(on);
    ObsTrace trace = obs_trace();
    serving::EnginePoolOptions opts;
    opts.engine.engine.flags = core::OptFlags::byte_transformer();
    opts.engine.engine.policy = serving::BatchPolicy::kPacked;
    opts.engine.engine.max_batch_requests = 8;
    opts.engine.max_wait_seconds = 0.002;
    opts.replicas = 1;
    opts.route = serving::RoutePolicy::kStickySession;
    serving::ModelRegistry registry;
    registry.add("bert-a", obs_model_a(), opts);
    registry.add("bert-b", obs_model_b(), opts);
    serving::Service service(std::move(registry));
    const serving::ReplayResult replay = serving::replay_trace(
        trace.arrivals, std::move(trace.requests),
        [&](serving::Request req) { return service.submit(std::move(req)); });
    const int a = on ? 1 : 0;
    for (std::size_t i = 0; i < replay.done_seconds.size(); ++i) {
      latency_ms[a].push_back((replay.done_seconds[i] - trace.arrivals[i]) *
                              1e3);
    }
    serve_seconds[a] += replay.last_done_seconds;
    served[a] += kObsRequests;
    service.stop();
    on = !on;
  }

  if (served[0] > 0 && served[1] > 0) {
    const double r0 = static_cast<double>(served[0]) / serve_seconds[0];
    const double r1 = static_cast<double>(served[1]) / serve_seconds[1];
    state.counters["req_s_obs0"] = r0;
    state.counters["req_s_obs1"] = r1;
    state.counters["overhead_pct"] = 100.0 * (r0 - r1) / r0;
    // Latency percentiles from the telemetry-on arm (the production config).
    state.counters["p50_ms"] = stats::percentile(latency_ms[1], 0.5);
    state.counters["p99_ms"] = stats::percentile(latency_ms[1], 0.99);
  }
  state.SetItemsProcessed(state.iterations() * kObsRequests);
  set_kernel_label(state);
}

// MinTime well above the default 0.5 s: ~20 replays (~10 pairs) per run is
// what it takes for the paired comparison to resolve a <2% effect above
// scheduler-timing noise on a small host.
BENCHMARK(BM_ServingServiceObs)
    ->MinTime(3.0)
    ->Unit(benchmark::kMillisecond)->UseRealTime();

}  // namespace
}  // namespace bt::bench
