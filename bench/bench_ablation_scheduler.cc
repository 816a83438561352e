// Ablation — grouped-GEMM scheduler prefetch width (paper Sec. III-E2,
// Fig. 7: claiming 32 tiles per scheduler visit gave ~10% on grouped GEMM),
// plus the serving-executor ablation: synchronous round-robin Engine vs the
// asynchronous pipelined AsyncEngine on the same Poisson arrival trace.
//
// The scheduler-visit overhead is proportionally largest when tiles are
// small and numerous, so the ablation sweeps both a many-small-problems
// grouped GEMM (where the effect shows) and the MHA-shaped workload.
#include <benchmark/benchmark.h>

#include <chrono>
#include <future>
#include <memory>
#include <thread>
#include <vector>

#include "attention/attention.h"
#include "bench_common.h"
#include "gemm/grouped.h"
#include "serving/async_engine.h"

namespace bt::bench {
namespace {

// Many small problems: 256 GEMMs of 64x64x64 -> 256 tiles, each cheap.
void BM_AblationScheduler_SmallProblems(benchmark::State& state) {
  const std::int64_t prefetch = state.range(0);
  constexpr int kProblems = 256;
  constexpr int kDim = 64;
  Rng rng(kSeed);
  std::vector<Tensor<fp16_t>> as;
  std::vector<Tensor<fp16_t>> bs;
  std::vector<Tensor<fp16_t>> cs;
  std::vector<gemm::GroupedProblem<fp16_t, fp16_t, fp16_t>> problems;
  for (int i = 0; i < kProblems; ++i) {
    as.push_back(Tensor<fp16_t>::random_normal({kDim, kDim}, rng));
    bs.push_back(Tensor<fp16_t>::random_normal({kDim, kDim}, rng));
    cs.push_back(Tensor<fp16_t>::zeros({kDim, kDim}));
  }
  for (int i = 0; i < kProblems; ++i) {
    problems.push_back({kDim, kDim, kDim, as[static_cast<std::size_t>(i)].data(),
                        kDim, bs[static_cast<std::size_t>(i)].data(), kDim,
                        cs[static_cast<std::size_t>(i)].data(), kDim});
  }
  for (auto _ : state) {
    gemm::grouped_gemm<fp16_t, fp16_t, fp16_t>(
        dev(), gemm::Trans::N, gemm::Trans::N,
        std::span<const gemm::GroupedProblem<fp16_t, fp16_t, fp16_t>>(problems),
        1.0f, 0.0f, {}, {}, prefetch);
    benchmark::DoNotOptimize(cs[0].data());
  }
}

BENCHMARK(BM_AblationScheduler_SmallProblems)
    ->Arg(1)->Arg(4)->Arg(32)
    ->Unit(benchmark::kMillisecond);

// MHA-shaped workload through the long fused kernel at both widths.
void BM_AblationScheduler_FusedLongMha(benchmark::State& state) {
  const std::int64_t prefetch = state.range(0);
  constexpr int kHeads = 4;
  constexpr int kHd = 64;
  constexpr int kHidden = kHeads * kHd;
  auto batch = VarLenBatch::make(4, 512, 3 * kHidden);
  Rng rng(kSeed + 1);
  auto qkv =
      Tensor<fp16_t>::random_normal({batch.off.valid_count, 3 * kHidden}, rng);
  auto bias = Tensor<fp16_t>::random_normal({3 * kHidden}, rng, 0.1f);
  auto ctx = Tensor<fp16_t>::zeros({batch.off.valid_count, kHidden});
  core::Workspace ws;
  attn::PackedMhaArgs args{qkv.data(), bias.data(), ctx.data(), &batch.off,
                           kHeads, kHd};
  for (auto _ : state) {
    attn::mha_fused_long(dev(), args, ws, prefetch);
    benchmark::DoNotOptimize(ctx.data());
  }
}

BENCHMARK(BM_AblationScheduler_FusedLongMha)
    ->Arg(1)->Arg(32)
    ->Unit(benchmark::kMillisecond);

// ---- serving executor: synchronous vs asynchronous pipelined ---------------
//
// Both executors serve the same real-time Poisson trace (Arg = requests per
// second) through the packed ByteTransformer pipeline with an 8-request
// round cap. The synchronous loop alternates arrival-waiting, batch
// formation, and compute on one thread; the async executor submits from the
// arrival thread while its scheduler thread batches inside a 2 ms window and
// computes — so round k+1's formation overlaps round k's forward. Reported
// counters: end-to-end latency (arrival -> response) p50/p95 in ms.

constexpr int kServeRequests = 32;
constexpr int kServeMaxSeq = 64;
constexpr int kServeBatchCap = 8;

std::shared_ptr<const core::BertModel> serving_model() {
  static std::shared_ptr<const core::BertModel> model = [] {
    Rng rng(kSeed + 7);
    return std::make_shared<const core::BertModel>(core::BertModel::random(
        core::BertConfig::bert_base().scaled(2, 2), rng));
  }();
  return model;
}

struct ServeTrace {
  std::vector<double> arrivals;           // seconds from trace start
  std::vector<Tensor<fp16_t>> requests;   // consumed by one replay

  static ServeTrace get(double rps) {
    static const ServeTrace master = [] {
      ServeTrace t;
      Rng rng(kSeed + 8);
      const auto lens =
          serving::gen_lengths(kServeRequests, kServeMaxSeq, kAlpha, rng);
      const std::int64_t h = serving_model()->config().hidden();
      for (int len : lens) {
        t.requests.push_back(Tensor<fp16_t>::random_normal({len, h}, rng));
      }
      // Unit-rate arrivals; scaled per requested rate below.
      t.arrivals = serving::gen_arrivals(kServeRequests, 1.0, rng);
      return t;
    }();
    ServeTrace replay;
    replay.arrivals = master.arrivals;
    for (double& a : replay.arrivals) a /= rps;
    for (const auto& r : master.requests) {
      replay.requests.push_back(r.clone());
    }
    return replay;
  }
};

serving::EngineOptions serve_engine_options() {
  serving::EngineOptions opts;
  opts.flags = core::OptFlags::byte_transformer();
  opts.policy = serving::BatchPolicy::kPacked;
  opts.max_batch_requests = kServeBatchCap;
  return opts;
}

void report_latency(benchmark::State& state, std::vector<double>& latency_ms) {
  state.counters["p50_ms"] = stats::percentile(latency_ms, 0.5);
  state.counters["p95_ms"] = stats::percentile(latency_ms, 0.95);
  state.SetItemsProcessed(state.iterations() * kServeRequests);
}

void BM_AblationServingExecutor_Sync(benchmark::State& state) {
  using clock = std::chrono::steady_clock;
  const double rps = static_cast<double>(state.range(0));
  std::vector<double> latency_ms;

  for (auto _ : state) {
    ServeTrace trace = ServeTrace::get(rps);
    serving::Engine engine(serving_model(), serve_engine_options());
    latency_ms.assign(kServeRequests, 0.0);
    const auto start = clock::now();
    const auto elapsed = [&] {
      return std::chrono::duration<double>(clock::now() - start).count();
    };
    std::size_t next = 0;
    std::size_t served = 0;
    while (served < static_cast<std::size_t>(kServeRequests)) {
      if (engine.pending() == 0) {
        // Nothing to compute: the synchronous loop has to sit idle until
        // the next arrival.
        std::this_thread::sleep_until(
            start + std::chrono::duration_cast<clock::duration>(
                        std::chrono::duration<double>(trace.arrivals[next])));
      }
      while (next < trace.arrivals.size() &&
             trace.arrivals[next] <= elapsed()) {
        engine.submit(std::move(trace.requests[next]));
        ++next;
      }
      const auto responses = engine.run_batch();
      const double done = elapsed();
      for (const auto& r : responses) {
        // Ids are assigned in submission order, so they index the trace.
        latency_ms[static_cast<std::size_t>(r.id)] =
            (done - trace.arrivals[static_cast<std::size_t>(r.id)]) * 1e3;
      }
      served += responses.size();
    }
  }
  report_latency(state, latency_ms);
}

BENCHMARK(BM_AblationServingExecutor_Sync)
    ->Arg(500)->Arg(2000)
    ->Unit(benchmark::kMillisecond);

void BM_AblationServingExecutor_Async(benchmark::State& state) {
  using clock = std::chrono::steady_clock;
  const double rps = static_cast<double>(state.range(0));
  std::vector<double> latency_ms;

  for (auto _ : state) {
    ServeTrace trace = ServeTrace::get(rps);
    latency_ms.assign(kServeRequests, 0.0);
    serving::AsyncEngineOptions opts;
    opts.engine = serve_engine_options();
    opts.max_wait_seconds = 0.002;
    serving::AsyncEngine engine(serving_model(), opts);

    std::vector<std::future<serving::Response>> futures;
    futures.reserve(static_cast<std::size_t>(kServeRequests));
    const auto start = clock::now();
    for (int i = 0; i < kServeRequests; ++i) {
      std::this_thread::sleep_until(
          start +
          std::chrono::duration_cast<clock::duration>(
              std::chrono::duration<double>(
                  trace.arrivals[static_cast<std::size_t>(i)])));
      futures.push_back(engine.submit(
          std::move(trace.requests[static_cast<std::size_t>(i)])));
    }
    // Rounds pop from the queue front, so futures resolve in id order and
    // timestamping each get() in order stays faithful.
    for (int i = 0; i < kServeRequests; ++i) {
      futures[static_cast<std::size_t>(i)].get();
      latency_ms[static_cast<std::size_t>(i)] =
          (std::chrono::duration<double>(clock::now() - start).count() -
           trace.arrivals[static_cast<std::size_t>(i)]) *
          1e3;
    }
    engine.stop();
  }
  report_latency(state, latency_ms);
}

BENCHMARK(BM_AblationServingExecutor_Async)
    ->Arg(500)->Arg(2000)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace bt::bench
