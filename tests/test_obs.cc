// obs layer: log2 histogram boundaries/merge/percentile agreement with
// bt::stats::percentile, counter/gauge concurrency, the runtime kill
// switch, registry identity + JSON shape, HyperLogLog accuracy (<3% at
// 10k sessions) and merge, the stats-struct field lists (every field
// published and summed), trace-ring sampling/wrap semantics, and trace
// stage ordering under concurrent submitters through a real Service.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <tuple>
#include <type_traits>
#include <vector>

#include "common/rng.h"
#include "cache/prefix_cache.h"
#include "common/stats.h"
#include "core/model.h"
#include "net/client.h"
#include "net/server.h"
#include "obs/fields.h"
#include "obs/hll.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serving/service.h"
#include "tensor/tensor.h"

namespace bt::obs {
namespace {

// Restores the kill switch on scope exit so one test's toggling can never
// silence another's recording.
struct EnabledGuard {
  ~EnabledGuard() { set_enabled(true); }
};

// Recording assertions are meaningless in a -DBT_OBS_METRICS=OFF build —
// the recording bodies are compiled out, so those tests skip rather than
// report the build mode as a failure. Structural tests (bucket math,
// registry identity) still run.
#define BT_SKIP_IF_COMPILED_OUT()  \
  if (!kCompiledIn) GTEST_SKIP() << "telemetry compiled out (BT_OBS_DISABLED)"

TEST(Histogram, BucketBoundaries) {
  EXPECT_EQ(LatencyHistogram::bucket_of(0), 0);
  EXPECT_EQ(LatencyHistogram::bucket_of(1), 1);
  EXPECT_EQ(LatencyHistogram::bucket_of(2), 2);
  EXPECT_EQ(LatencyHistogram::bucket_of(3), 2);
  EXPECT_EQ(LatencyHistogram::bucket_of(4), 3);
  EXPECT_EQ(LatencyHistogram::bucket_of(7), 3);
  EXPECT_EQ(LatencyHistogram::bucket_of(8), 4);
  EXPECT_EQ(LatencyHistogram::bucket_of(~std::uint64_t{0}),
            LatencyHistogram::kBuckets - 1);
  EXPECT_EQ(LatencyHistogram::bucket_upper(0), 0u);
  EXPECT_EQ(LatencyHistogram::bucket_upper(1), 1u);
  EXPECT_EQ(LatencyHistogram::bucket_upper(2), 3u);
  EXPECT_EQ(LatencyHistogram::bucket_upper(3), 7u);
  // Every non-zero value lands in the bucket whose bounds contain it.
  for (std::uint64_t v : {std::uint64_t{1}, std::uint64_t{2}, std::uint64_t{5},
                          std::uint64_t{100}, std::uint64_t{1000000},
                          ~std::uint64_t{0} >> 1}) {
    const int b = LatencyHistogram::bucket_of(v);
    EXPECT_LE(v, LatencyHistogram::bucket_upper(b));
    EXPECT_GT(v, LatencyHistogram::bucket_upper(b - 1));
  }
}

TEST(Histogram, RecordSnapshot) {
  BT_SKIP_IF_COMPILED_OUT();
  LatencyHistogram h;
  for (std::uint64_t v : {0ull, 1ull, 5ull, 100ull}) h.record(v);
  const auto s = h.snapshot();
  EXPECT_EQ(s.count, 4u);
  EXPECT_EQ(s.sum, 106u);
  EXPECT_EQ(s.min, 0u);
  EXPECT_EQ(s.max, 100u);
  EXPECT_DOUBLE_EQ(s.mean(), 106.0 / 4.0);
  // Negative seconds clamp to the zero bucket instead of wrapping.
  LatencyHistogram neg;
  neg.record_seconds(-1.0);
  EXPECT_EQ(neg.snapshot().max, 0u);
}

TEST(Histogram, PercentileAgreesWithExactWithinBucketResolution) {
  BT_SKIP_IF_COMPILED_OUT();
  Rng rng(123);
  LatencyHistogram h;
  std::vector<double> exact;
  for (int i = 0; i < 5000; ++i) {
    const std::uint64_t v =
        static_cast<std::uint64_t>(rng.uniform_int(1, 1 << 20));
    h.record(v);
    exact.push_back(static_cast<double>(v));
  }
  for (double p : {0.0, 0.5, 0.9, 0.99, 1.0}) {
    const std::uint64_t hist_p = h.percentile(p);
    const auto exact_p =
        static_cast<std::uint64_t>(stats::percentile(exact, p));
    // Same rank convention, so both land in the same log2 bucket; the
    // histogram answers with the bucket's upper bound (clamped into the
    // observed range), i.e. conservative but never more than 2x off.
    EXPECT_EQ(LatencyHistogram::bucket_of(hist_p),
              LatencyHistogram::bucket_of(exact_p))
        << "p=" << p << " hist=" << hist_p << " exact=" << exact_p;
    EXPECT_GE(hist_p, exact_p);
    EXPECT_LT(hist_p, 2 * exact_p);
  }
  EXPECT_EQ(LatencyHistogram().percentile(0.5), 0u);  // empty -> 0
}

TEST(Histogram, MergeMatchesCombinedRecording) {
  BT_SKIP_IF_COMPILED_OUT();
  Rng rng(7);
  LatencyHistogram a, b, combined;
  for (int i = 0; i < 2000; ++i) {
    const std::uint64_t v =
        static_cast<std::uint64_t>(rng.uniform_int(0, 1 << 16));
    (i % 2 == 0 ? a : b).record(v);
    combined.record(v);
  }
  a.merge(b);
  const auto got = a.snapshot();
  const auto want = combined.snapshot();
  EXPECT_EQ(got.count, want.count);
  EXPECT_EQ(got.sum, want.sum);
  EXPECT_EQ(got.min, want.min);
  EXPECT_EQ(got.max, want.max);
  EXPECT_EQ(got.buckets, want.buckets);
  for (double p : {0.5, 0.99}) {
    EXPECT_EQ(got.percentile(p), want.percentile(p));
  }
}

TEST(CounterGauge, ConcurrentRecordingLosesNothing) {
  BT_SKIP_IF_COMPILED_OUT();
  Counter c;
  Gauge g;
  constexpr int kThreads = 4;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&] {
      for (int i = 0; i < kPerThread; ++i) {
        c.inc();
        g.add(1.0);
      }
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(c.value(), kThreads * kPerThread);
  // add() is a CAS loop: contended adders all land.
  EXPECT_DOUBLE_EQ(g.value(), kThreads * kPerThread);
  g.set(3.5);
  EXPECT_DOUBLE_EQ(g.value(), 3.5);
}

TEST(KillSwitch, DisabledRecordingIsANoOp) {
  BT_SKIP_IF_COMPILED_OUT();
  EnabledGuard guard;
  Counter c;
  Gauge g;
  LatencyHistogram h;
  Hll hll;
  set_enabled(false);
  EXPECT_FALSE(enabled());
  c.inc(5);
  g.set(9.0);
  h.record(42);
  hll.add("session");
  EXPECT_EQ(c.value(), 0);
  EXPECT_DOUBLE_EQ(g.value(), 0.0);
  EXPECT_EQ(h.count(), 0u);
  EXPECT_DOUBLE_EQ(hll.estimate(), 0.0);
  set_enabled(true);
  ASSERT_TRUE(enabled());
  c.inc(5);
  EXPECT_EQ(c.value(), 5);
}

TEST(Registry, NamesResolveToStableIdentities) {
  auto& reg = MetricRegistry::global();
  Counter& c1 = reg.counter("test.obs.identity.counter");
  Counter& c2 = reg.counter("test.obs.identity.counter");
  EXPECT_EQ(&c1, &c2);
  Gauge& g1 = reg.gauge("test.obs.identity.gauge");
  EXPECT_EQ(&g1, &reg.gauge("test.obs.identity.gauge"));
  // Kinds are namespaced separately: a counter and a gauge may share a name.
  EXPECT_NE(static_cast<void*>(&c1), static_cast<void*>(&reg.gauge(
                                         "test.obs.identity.counter")));
  Hll& h1 = reg.hll_prefixed("test.obs.identity.hll", "model-a");
  EXPECT_EQ(&h1, &reg.hll("test.obs.identity.hll.model-a"));
}

TEST(Registry, JsonCarriesEveryKind) {
  BT_SKIP_IF_COMPILED_OUT();
  auto& reg = MetricRegistry::global();
  reg.counter("test.obs.json.counter").inc(7);
  reg.gauge("test.obs.json.gauge").set(2.5);
  reg.histogram("test.obs.json.hist").record(100);
  reg.hll("test.obs.json.hll").add("only-session");
  const std::string json = reg.to_json();
  EXPECT_NE(json.find("\"test.obs.json.counter\":7"), std::string::npos);
  EXPECT_NE(json.find("\"test.obs.json.gauge\":2.5"), std::string::npos);
  EXPECT_NE(json.find("\"test.obs.json.hist\""), std::string::npos);
  EXPECT_NE(json.find("\"test.obs.json.hll\":1"), std::string::npos);
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);
}

TEST(Registry, PublishMirrorsEngineStats) {
  BT_SKIP_IF_COMPILED_OUT();
  serving::EngineStats st;
  st.requests = 11;
  st.batches = 3;
  st.valid_tokens = 101;
  st.processed_tokens = 120;
  st.deadline_shed = 2;
  auto& reg = MetricRegistry::global();
  st.publish(reg, "test.obs.engine");
  EXPECT_DOUBLE_EQ(reg.gauge("test.obs.engine.requests").value(), 11.0);
  EXPECT_DOUBLE_EQ(reg.gauge("test.obs.engine.batches").value(), 3.0);
  EXPECT_DOUBLE_EQ(reg.gauge("test.obs.engine.valid_tokens").value(), 101.0);
  EXPECT_DOUBLE_EQ(reg.gauge("test.obs.engine.processed_tokens").value(),
                   120.0);
  EXPECT_DOUBLE_EQ(reg.gauge("test.obs.engine.padding_tokens").value(), 19.0);
  EXPECT_DOUBLE_EQ(reg.gauge("test.obs.engine.deadline_shed").value(), 2.0);
}

// The field-list check itself: the aggregate member count, and a list that
// leaves out a data member (a getter entry does not count as one).
struct ThreeFields {
  long long a = 0;
  double b = 0;
  std::size_t c = 0;
  long long twice_a() const { return 2 * a; }
  static constexpr std::tuple kFields{Field{"a", &ThreeFields::a},
                                      Field{"b", &ThreeFields::b},
                                      Field{"twice_a", &ThreeFields::twice_a}};
};
static_assert(detail::member_count<ThreeFields>() == 3);
static_assert(!detail::lists_every_member<ThreeFields>());

// Sets the k-th listed data member to base + k, so every field is distinct.
template <typename S>
S distinct_fields(int base) {
  S s;
  int k = 0;
  std::apply(
      [&](const auto&... f) {
        (
            [&] {
              if constexpr (detail::kIsData<decltype(f.member)>) {
                using V = std::remove_cvref_t<decltype(s.*f.member)>;
                s.*f.member = static_cast<V>(base + k++);
              }
            }(),
            ...);
      },
      S::kFields);
  return s;
}

template <typename S>
std::vector<std::string> listed_names() {
  return std::apply(
      [](const auto&... f) {
        return std::vector<std::string>{std::string(f.name)...};
      },
      S::kFields);
}

// merge_fields sums every data member; the derived entries follow from them.
template <typename S>
void expect_merge_sums_every_field() {
  const S a = distinct_fields<S>(1);
  const S b = distinct_fields<S>(1000);
  S sum = a;
  merge_fields(sum, b);
  std::apply(
      [&](const auto&... f) {
        (
            [&] {
              if constexpr (detail::kIsData<decltype(f.member)>) {
                EXPECT_EQ(sum.*f.member, a.*f.member + b.*f.member) << f.name;
              }
            }(),
            ...);
      },
      S::kFields);
}

// publish_fields sets one "<prefix>.<name>" gauge per entry, the names are
// exactly `names` (the registry contract docs/OBSERVABILITY.md catalogs),
// and no data member is listed twice (each carries its own value).
template <typename S>
void expect_publish_covers_every_field(const std::string& prefix,
                                       const std::vector<std::string>& names) {
  EXPECT_EQ(listed_names<S>(), names) << prefix;
  const S s = distinct_fields<S>(7);
  auto& reg = MetricRegistry::global();
  publish_fields(reg, prefix, s);
  std::set<double> member_values;
  std::apply(
      [&](const auto&... f) {
        (
            [&] {
              const double v = static_cast<double>(std::invoke(f.member, s));
              EXPECT_DOUBLE_EQ(
                  reg.gauge(prefix + '.' + std::string(f.name)).value(), v)
                  << prefix << '.' << f.name;
              if constexpr (detail::kIsData<decltype(f.member)>) {
                EXPECT_TRUE(member_values.insert(v).second)
                    << f.name << " shares a member with another entry";
              }
            }(),
            ...);
      },
      S::kFields);
}

TEST(Registry, PublishAndMergeCoverEveryStatsField) {
  using Route = serving::EnginePool::SessionRouteStats;
  using Breaker = serving::EnginePool::BreakerStats;
  // The structs callers aggregate: replicas -> pool -> service, pools ->
  // fleet route totals, clients -> process.
  expect_merge_sums_every_field<serving::EngineStats>();
  expect_merge_sums_every_field<Route>();
  expect_merge_sums_every_field<net::ClientStats>();
  expect_merge_sums_every_field<cache::CacheStats>();

  BT_SKIP_IF_COMPILED_OUT();
  expect_publish_covers_every_field<serving::EngineStats>(
      "test.obs.fields.engine",
      {"requests", "batches", "micro_batches", "valid_tokens",
       "processed_tokens", "padding_tokens", "compute_seconds",
       "workspace_allocations", "deadline_met", "deadline_missed",
       "deadline_shed", "cache_hits", "cache_misses",
       "cache_hit_suffix_tokens", "cache_saved_tokens"});
  expect_publish_covers_every_field<Route>("test.obs.fields.route",
                                           {"session_requests", "sticky_hits"});
  expect_publish_covers_every_field<Breaker>(
      "test.obs.fields.breaker",
      {"breaker_quarantines", "breaker_probes", "breaker_readmissions"});
  expect_publish_covers_every_field<net::ServerStats>(
      "test.obs.fields.server",
      {"accepted_connections", "active_connections", "frames_received",
       "responses_sent", "error_frames_sent", "backpressure_replies",
       "protocol_errors", "dropped_completions", "idle_disconnects",
       "slow_peer_disconnects", "inflight_capped", "stats_requests"});
  expect_publish_covers_every_field<net::ClientStats>(
      "test.obs.fields.client", {"retries", "reconnects"});
  expect_publish_covers_every_field<cache::CacheStats>(
      "test.obs.fields.cache",
      {"probes", "hits", "misses", "inserts", "extends", "rejected",
       "evictions", "invalidations", "migrations", "hit_suffix_tokens",
       "saved_tokens", "bytes", "entries"});
}

TEST(Hll, Within3PercentAt10kSessions) {
  BT_SKIP_IF_COMPILED_OUT();
  Hll hll;
  constexpr int kSessions = 10000;
  for (int i = 0; i < kSessions; ++i) {
    hll.add("session-" + std::to_string(i));
  }
  const double est = hll.estimate();
  EXPECT_NEAR(est, kSessions, 0.03 * kSessions) << "estimate " << est;
  // Duplicates never move the estimate.
  for (int i = 0; i < kSessions; ++i) {
    hll.add("session-" + std::to_string(i % 100));
  }
  EXPECT_DOUBLE_EQ(hll.estimate(), est);
}

TEST(Hll, SmallCardinalitiesAreNearExact) {
  BT_SKIP_IF_COMPILED_OUT();
  Hll hll;
  EXPECT_DOUBLE_EQ(hll.estimate(), 0.0);
  for (int i = 0; i < 50; ++i) hll.add("s" + std::to_string(i));
  // Linear counting regime: tiny cardinalities resolve almost exactly.
  EXPECT_NEAR(hll.estimate(), 50.0, 2.0);
}

TEST(Hll, MergeEstimatesTheUnion) {
  BT_SKIP_IF_COMPILED_OUT();
  Hll a, b, both;
  for (int i = 0; i < 5000; ++i) {
    a.add("left-" + std::to_string(i));
    both.add("left-" + std::to_string(i));
  }
  for (int i = 0; i < 5000; ++i) {
    b.add("right-" + std::to_string(i));
    both.add("right-" + std::to_string(i));
  }
  a.merge(b);
  EXPECT_DOUBLE_EQ(a.estimate(), both.estimate());
  // 3 sigma of the 1.6% standard error (this fixed key set sits at ~4.4%).
  EXPECT_NEAR(a.estimate(), 10000.0, 500.0);
}

TEST(TraceRing, SamplingAndWrap) {
  BT_SKIP_IF_COMPILED_OUT();
  TraceRing ring(/*capacity=*/4, /*sample_every=*/2);
  for (int i = 0; i < 10; ++i) {
    TraceRecord rec;
    rec.request_id = i;
    ring.record(std::move(rec));
  }
  EXPECT_EQ(ring.seen(), 10);
  EXPECT_EQ(ring.recorded(), 5);  // ids 0, 2, 4, 6, 8 sampled
  const auto kept = ring.snapshot();
  ASSERT_EQ(kept.size(), 4u);  // ring capacity; oldest sampled id dropped
  EXPECT_EQ(kept[0].request_id, 2);
  EXPECT_EQ(kept[3].request_id, 8);
  ring.clear();
  EXPECT_TRUE(ring.snapshot().empty());

  TraceRing off(/*capacity=*/4, /*sample_every=*/0);
  off.record(TraceRecord{});
  EXPECT_EQ(off.recorded(), 0);
}

TEST(TraceRing, JsonlOneRecordPerLine) {
  BT_SKIP_IF_COMPILED_OUT();
  TraceRing ring(8, 1);
  for (int i = 0; i < 3; ++i) {
    TraceRecord rec;
    rec.request_id = i;
    rec.model = "m\"quoted\"";
    ring.record(std::move(rec));
  }
  const std::string jsonl = ring.to_jsonl();
  std::size_t lines = 0;
  for (char ch : jsonl) lines += ch == '\n';
  EXPECT_EQ(lines, 3u);
  EXPECT_NE(jsonl.find("\"id\":0"), std::string::npos);
  EXPECT_NE(jsonl.find("m\\\"quoted\\\""), std::string::npos);
}

// ---- stage ordering under concurrency through a real Service ---------------

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

TEST(TraceStages, MonotonicUnderConcurrentSubmitters) {
  BT_SKIP_IF_COMPILED_OUT();
  auto& ring = TraceRing::global();
  ring.configure(/*capacity=*/256, /*sample_every=*/1);

  serving::EnginePoolOptions opts;
  opts.engine.engine.policy = serving::BatchPolicy::kPacked;
  opts.engine.engine.max_batch_requests = 4;
  opts.engine.max_wait_seconds = 0.001;
  opts.replicas = 1;
  opts.threads_per_replica = 1;
  serving::ModelRegistry registry;
  registry.add("tiny", tiny_model(), opts);
  serving::Service service(std::move(registry));

  constexpr int kThreads = 4;
  constexpr int kPerThread = 8;
  const int hidden = tiny_config().hidden();
  std::vector<std::thread> submitters;
  std::atomic<int> failures{0};
  for (int t = 0; t < kThreads; ++t) {
    submitters.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        serving::Request req;
        req.hidden = Tensor<fp16_t>({4 + (t + i) % 5, hidden});
        req.session = "conv-" + std::to_string(t);
        try {
          service.submit(std::move(req)).get();
        } catch (...) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (auto& th : submitters) th.join();
  service.stop();
  EXPECT_EQ(failures.load(), 0);

  const auto traced = ring.snapshot();
  ASSERT_EQ(traced.size(), static_cast<std::size_t>(kThreads * kPerThread));
  for (const auto& rec : traced) {
    EXPECT_LE(rec.t_submit, rec.t_window_close) << rec.to_json();
    EXPECT_LE(rec.t_window_close, rec.t_admit) << rec.to_json();
    EXPECT_LE(rec.t_admit, rec.t_dispatch) << rec.to_json();
    EXPECT_LE(rec.t_dispatch, rec.t_compute_start) << rec.to_json();
    EXPECT_LE(rec.t_compute_start, rec.t_compute_end) << rec.to_json();
    EXPECT_LE(rec.t_compute_end, rec.t_replied) << rec.to_json();
    EXPECT_EQ(rec.model, "tiny");
    EXPECT_GE(rec.batch_requests, 1);
    EXPECT_GT(rec.valid_tokens, 0);
    EXPECT_GE(rec.round_processed_tokens, rec.round_valid_tokens);
    EXPECT_GE(rec.round, 0);
  }
  ring.clear();
}

}  // namespace
}  // namespace bt::obs
