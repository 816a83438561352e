// kStatsRequest/kStatsResponse wire frames: encode/decode round trips,
// adversarial truncation and overrun handling, the strict include_traces
// flag, and the end-to-end pull — a live net::Server answers a client's
// fetch_stats() with a registry snapshot whose request counters equal the
// service's own totals, plus a non-empty trace dump on request, and
// cache.prefix.* gauges that equal the prefix cache's own CacheStats.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <future>
#include <memory>
#include <string>
#include <vector>

#include "cache/prefix_cache.h"
#include "common/rng.h"
#include "core/model.h"
#include "net/client.h"
#include "net/protocol.h"
#include "net/server.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serving/service.h"
#include "tensor/tensor.h"

namespace bt::net {
namespace {

TEST(StatsFrames, RequestRoundTrip) {
  StatsRequestFrame f;
  f.correlation = 0xdeadbeefcafef00dULL;
  f.include_traces = 1;
  Buffer wire;
  encode_stats_request(wire, f);

  Decoder dec;
  dec.feed(wire.data(), wire.size());
  Frame out;
  ASSERT_EQ(dec.next(&out), DecodeStatus::kFrame);
  ASSERT_EQ(out.type, FrameType::kStatsRequest);
  EXPECT_EQ(out.stats_request.correlation, f.correlation);
  EXPECT_EQ(out.stats_request.include_traces, 1);
  EXPECT_EQ(dec.next(&out), DecodeStatus::kNeedMore);
}

TEST(StatsFrames, ResponseRoundTrip) {
  const std::string metrics = R"({"counters":{"a":1}})";
  const std::string traces = "{\"request_id\":0}\n{\"request_id\":1}\n";
  StatsResponseFrame f;
  f.correlation = 42;
  f.metrics_json = metrics;
  f.traces_jsonl = traces;
  Buffer wire;
  encode_stats_response(wire, f);

  Decoder dec;
  dec.feed(wire.data(), wire.size());
  Frame out;
  ASSERT_EQ(dec.next(&out), DecodeStatus::kFrame);
  ASSERT_EQ(out.type, FrameType::kStatsResponse);
  EXPECT_EQ(out.stats_response.correlation, 42u);
  EXPECT_EQ(std::string(out.stats_response.metrics_json), metrics);
  EXPECT_EQ(std::string(out.stats_response.traces_jsonl), traces);

  // Empty blobs are legal (a stats reply with traces declined).
  StatsResponseFrame empty;
  Buffer wire2;
  encode_stats_response(wire2, empty);
  Decoder dec2;
  dec2.feed(wire2.data(), wire2.size());
  ASSERT_EQ(dec2.next(&out), DecodeStatus::kFrame);
  EXPECT_TRUE(out.stats_response.metrics_json.empty());
  EXPECT_TRUE(out.stats_response.traces_jsonl.empty());
}

TEST(StatsFrames, EveryTruncationPrefixNeedsMore) {
  StatsRequestFrame req;
  req.correlation = 7;
  StatsResponseFrame resp;
  resp.correlation = 8;
  resp.metrics_json = "{\"gauges\":{}}";
  resp.traces_jsonl = "{}\n";
  Buffer wire;
  encode_stats_request(wire, req);
  encode_stats_response(wire, resp);

  // Feed one byte at a time: before each frame completes the decoder must
  // report kNeedMore (never error, never a partial frame); at completion it
  // must deliver the frame.
  Decoder dec;
  Frame out;
  const std::byte* bytes = wire.data();
  const std::size_t first_frame = kLengthPrefixBytes + 2 + 8 + 1;
  std::size_t frames = 0;
  for (std::size_t i = 0; i < wire.size(); ++i) {
    dec.feed(bytes + i, 1);
    const DecodeStatus status = dec.next(&out);
    ASSERT_FALSE(dec.failed()) << "failed at byte " << i;
    const bool boundary =
        i + 1 == first_frame || i + 1 == wire.size();
    if (boundary) {
      ASSERT_EQ(status, DecodeStatus::kFrame) << "at byte " << i;
      ++frames;
    } else {
      ASSERT_EQ(status, DecodeStatus::kNeedMore) << "at byte " << i;
    }
  }
  EXPECT_EQ(frames, 2u);
  EXPECT_EQ(out.type, FrameType::kStatsResponse);
  EXPECT_EQ(std::string(out.stats_response.metrics_json),
            std::string(resp.metrics_json));
}

TEST(StatsFrames, NonBooleanIncludeTracesIsAProtocolError) {
  StatsRequestFrame f;
  f.include_traces = 2;
  Buffer wire;
  EXPECT_THROW(encode_stats_request(wire, f), std::invalid_argument);

  // A peer that bypasses the encoder still cannot sneak the bit through:
  // patch the flag byte (the frame's last byte) on a valid encoding.
  f.include_traces = 1;
  encode_stats_request(wire, f);
  std::vector<std::byte> bytes(wire.data(), wire.data() + wire.size());
  bytes.back() = std::byte{2};
  Decoder dec;
  dec.feed(bytes.data(), bytes.size());
  Frame out;
  EXPECT_EQ(dec.next(&out), DecodeStatus::kError);
  EXPECT_TRUE(dec.failed());
  EXPECT_NE(dec.error().find("include_traces"), std::string::npos);
}

TEST(StatsFrames, DeclaredLengthsMustAccountForThePayloadExactly) {
  // metrics_len promises more bytes than the payload holds -> malformed.
  {
    Buffer wire;
    const std::uint32_t payload = 2 + 8 + 4 + 4;  // room for two empty blobs
    wire.append_u32(payload);
    wire.append_u8(kWireVersion);
    wire.append_u8(static_cast<std::uint8_t>(FrameType::kStatsResponse));
    wire.append_u64(1);
    wire.append_u32(100);  // lies: no bytes follow
    wire.append_u32(0);
    Decoder dec;
    dec.feed(wire.data(), wire.size());
    Frame out;
    EXPECT_EQ(dec.next(&out), DecodeStatus::kError);
  }
  // Trailing payload bytes after the declared fields -> malformed.
  {
    Buffer wire;
    const std::uint32_t payload = 2 + 8 + 4 + 4 + 1;  // one undeclared byte
    wire.append_u32(payload);
    wire.append_u8(kWireVersion);
    wire.append_u8(static_cast<std::uint8_t>(FrameType::kStatsResponse));
    wire.append_u64(1);
    wire.append_u32(0);
    wire.append_u32(0);
    wire.append_u8(0xcc);
    Decoder dec;
    dec.feed(wire.data(), wire.size());
    Frame out;
    EXPECT_EQ(dec.next(&out), DecodeStatus::kError);
  }
  // Same for the request: an extra byte after include_traces.
  {
    Buffer wire;
    const std::uint32_t payload = 2 + 8 + 1 + 1;
    wire.append_u32(payload);
    wire.append_u8(kWireVersion);
    wire.append_u8(static_cast<std::uint8_t>(FrameType::kStatsRequest));
    wire.append_u64(1);
    wire.append_u8(0);
    wire.append_u8(0xcc);
    Decoder dec;
    dec.feed(wire.data(), wire.size());
    Frame out;
    EXPECT_EQ(dec.next(&out), DecodeStatus::kError);
  }
}

// ---- end-to-end: live server answers fetch_stats ----------------------------

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

serving::Service make_service() {
  serving::EnginePoolOptions opts;
  opts.engine.engine.policy = serving::BatchPolicy::kPacked;
  opts.engine.engine.max_batch_requests = 4;
  opts.engine.max_queue = 1024;
  opts.engine.max_wait_seconds = 0.001;
  opts.replicas = 1;
  opts.threads_per_replica = 1;
  serving::ModelRegistry registry;
  registry.add("tiny", tiny_model(), opts);
  return serving::Service(std::move(registry));
}

// Pulls the number following "<name>": out of a registry JSON blob. Enough
// JSON parsing for counters and gauges in a test.
double json_number(const std::string& json, const std::string& name) {
  const std::string key = "\"" + name + "\":";
  const std::size_t at = json.find(key);
  EXPECT_NE(at, std::string::npos) << name << " missing from " << json;
  if (at == std::string::npos) return -1;
  return std::strtod(json.c_str() + at + key.size(), nullptr);
}

TEST(StatsWire, LiveServerSnapshotMatchesServiceTotals) {
  // The frames and the pull still work in a -DBT_OBS_METRICS=OFF build,
  // but every recorded value is zero — the totals comparison needs the
  // recording paths compiled in.
  if (!obs::kCompiledIn) {
    GTEST_SKIP() << "telemetry compiled out (BT_OBS_DISABLED)";
  }
  obs::MetricRegistry::global().reset_for_testing();
  obs::TraceRing::global().configure(/*capacity=*/128, /*sample_every=*/1);

  serving::Service service = make_service();
  Server server(service);
  server.start();
  Client client(server.port());

  constexpr int kRequests = 12;
  const int hidden = tiny_config().hidden();
  std::vector<std::future<serving::Response>> futures;
  for (int i = 0; i < kRequests; ++i) {
    WireRequest req;
    req.session = "sess-" + std::to_string(i % 3);
    req.hidden = Tensor<fp16_t>({3 + i % 4, hidden});
    for (std::int64_t r = 0; r < req.hidden.dim(0); ++r) {
      for (int j = 0; j < hidden; ++j) req.hidden(r, j) = fp16_t(0.01f * j);
    }
    futures.push_back(client.submit_serving(std::move(req)));
  }
  for (auto& fut : futures) EXPECT_NO_THROW(fut.get());

  WireStats stats = client.fetch_stats(/*include_traces=*/true).get();
  ASSERT_FALSE(stats.metrics_json.empty());

  // Live scheduler counters: everything submitted, nothing failed.
  EXPECT_EQ(json_number(stats.metrics_json, "serving.requests.submitted"),
            kRequests);
  EXPECT_EQ(json_number(stats.metrics_json, "serving.requests.failed"), 0);
  // Published snapshots: the registry numbers are the Service/Server
  // struct totals, not an independent count that could drift.
  const auto st = service.stats();
  EXPECT_EQ(json_number(stats.metrics_json, "serving.stats.requests"),
            static_cast<double>(st.requests));
  EXPECT_EQ(st.requests, kRequests);
  const ServerStats ss = server.stats();
  EXPECT_EQ(ss.frames_received, kRequests);
  EXPECT_EQ(json_number(stats.metrics_json, "net.server.frames_received"),
            static_cast<double>(ss.frames_received));
  EXPECT_EQ(json_number(stats.metrics_json, "net.server.stats_requests"), 1);
  // Unique sessions per model, via the HLL (linear counting at this
  // cardinality: near-exact but not integral).
  EXPECT_NEAR(json_number(stats.metrics_json, "serving.sessions.unique.tiny"),
              3.0, 0.1);

  // Traces were requested: every served request left a JSONL record.
  ASSERT_FALSE(stats.traces_jsonl.empty());
  std::size_t lines = 0;
  for (char ch : stats.traces_jsonl) lines += ch == '\n';
  EXPECT_EQ(lines, static_cast<std::size_t>(kRequests));

  // A plain pull omits traces.
  WireStats lean = client.fetch_stats(/*include_traces=*/false).get();
  EXPECT_TRUE(lean.traces_jsonl.empty());
  EXPECT_FALSE(lean.metrics_json.empty());

  client.close();
  server.stop();
  service.stop();
  obs::TraceRing::global().clear();
}

// The prefix cache's registry view is its CacheStats, published by the
// stats pull: a sticky causal conversation with hits and evictions reads
// the same numbers over the wire as in-process.
TEST(StatsWire, CacheGaugesMatchInProcessCacheStats) {
  if (!obs::kCompiledIn) {
    GTEST_SKIP() << "telemetry compiled out (BT_OBS_DISABLED)";
  }
  obs::MetricRegistry::global().reset_for_testing();

  serving::EnginePoolOptions opts;
  opts.engine.engine.policy = serving::BatchPolicy::kPacked;
  opts.engine.engine.flags.causal = true;
  opts.engine.max_wait_seconds = 0.001;
  opts.replicas = 2;
  opts.threads_per_replica = 1;
  opts.route = serving::RoutePolicy::kStickySession;
  serving::ModelRegistry registry;
  registry.add("tiny", tiny_model(), opts);
  serving::ServiceOptions service_opts;
  // Room for about two finished conversations: the third evicts the first.
  service_opts.prefix_cache_bytes = std::size_t(48) << 10;
  serving::Service service(std::move(registry), service_opts);
  ASSERT_NE(service.prefix_cache(), nullptr);
  Server server(service);
  server.start();
  Client client(server.port());

  const int hidden = tiny_config().hidden();
  for (int conv = 0; conv < 3; ++conv) {
    Rng rng(900 + conv);
    const Tensor<fp16_t> history =
        Tensor<fp16_t>::random_normal({48, hidden}, rng);
    for (const int len : {16, 32, 48}) {
      WireRequest req;
      req.session = "conv-" + std::to_string(conv);
      req.hidden = Tensor<fp16_t>({len, hidden});
      for (int r = 0; r < len; ++r) {
        for (int j = 0; j < hidden; ++j) req.hidden(r, j) = history(r, j);
      }
      EXPECT_NO_THROW(client.submit_serving(std::move(req)).get());
    }
  }

  const WireStats stats = client.fetch_stats().get();
  const cache::CacheStats cs = service.prefix_cache()->stats();
  ASSERT_GT(cs.hits, 0);
  ASSERT_GT(cs.evictions, 0);
  EXPECT_EQ(json_number(stats.metrics_json, "cache.prefix.hits"),
            static_cast<double>(cs.hits));
  EXPECT_EQ(json_number(stats.metrics_json, "cache.prefix.misses"),
            static_cast<double>(cs.misses));
  EXPECT_EQ(json_number(stats.metrics_json, "cache.prefix.evictions"),
            static_cast<double>(cs.evictions));
  EXPECT_EQ(json_number(stats.metrics_json, "cache.prefix.saved_tokens"),
            static_cast<double>(cs.hit_prefix_tokens));

  client.close();
  server.stop();
  service.stop();
}

TEST(StatsWire, CloseRejectsPendingStatsPulls) {
  serving::Service service = make_service();
  Server server(service);
  server.start();
  auto client = std::make_unique<Client>(server.port());
  // Stop the server first so the pull can never resolve. Depending on when
  // the client's receiver observes the drop, fetch_stats either throws
  // ShutdownError synchronously (connection already marked closed) or hands
  // back a future that the connection-loss sweep rejects with the same
  // error. Either way the caller gets ShutdownError — never a hang.
  server.stop();
  try {
    std::future<WireStats> fut = client->fetch_stats(true);
    client->close();
    EXPECT_THROW(fut.get(), serving::ShutdownError);
  } catch (const serving::ShutdownError&) {
    SUCCEED();
  }
  client->close();
  service.stop();
}

}  // namespace
}  // namespace bt::net
