// Prefix-activation cache (cache/): BudgetLru accounting, FNV revalidation,
// and the exactness contract — a cached-prefix resume is BITWISE identical
// to a full re-encode for every batching policy, including divergent
// histories, eviction mid-conversation, migration invalidation, and
// concurrent submitters through a Service (the TSan/ASan CI legs run this
// binary).
#include <gtest/gtest.h>

#include <cstring>
#include <future>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "attention/attention.h"
#include "cache/budget_lru.h"
#include "cache/prefix_cache.h"
#include "common/rng.h"
#include "core/model.h"
#include "serving/engine.h"
#include "serving/registry.h"
#include "serving/service.h"
#include "tensor/tensor.h"

namespace bt {
namespace {

// ---- BudgetLru --------------------------------------------------------------

std::shared_ptr<const void> blob() { return std::make_shared<int>(0); }

TEST(BudgetLru, EvictsColdestFirstAndRefreshOnGetProtects) {
  cache::BudgetLru lru(100);
  EXPECT_TRUE(lru.put("a", blob(), 40).stored);
  EXPECT_TRUE(lru.put("b", blob(), 40).stored);
  EXPECT_EQ(lru.bytes(), 80u);

  // "c" needs 40: "a" (coldest) goes, "b" stays.
  const auto r1 = lru.put("c", blob(), 40);
  EXPECT_TRUE(r1.stored);
  EXPECT_EQ(r1.evicted_count, 1u);
  EXPECT_EQ(r1.evicted_bytes, 40u);
  ASSERT_EQ(r1.evicted_keys.size(), 1u);
  EXPECT_EQ(r1.evicted_keys[0], "a");
  EXPECT_EQ(lru.get("a"), nullptr);

  // get("b") refreshes it, so the next eviction takes "c" instead.
  EXPECT_NE(lru.get("b"), nullptr);
  const auto r2 = lru.put("d", blob(), 40);
  ASSERT_EQ(r2.evicted_keys.size(), 1u);
  EXPECT_EQ(r2.evicted_keys[0], "c");
  EXPECT_NE(lru.peek("b"), nullptr);
  EXPECT_EQ(lru.bytes(), 80u);
  EXPECT_LE(lru.bytes(), lru.budget());
}

TEST(BudgetLru, SameKeyReplaceSwapsBytesWithoutCountingEviction) {
  cache::BudgetLru lru(100);
  EXPECT_TRUE(lru.put("a", blob(), 60).stored);
  const auto r = lru.put("a", blob(), 80);  // would not fit beside itself
  EXPECT_TRUE(r.stored);
  EXPECT_EQ(r.evicted_count, 0u);  // a replace is not displacement
  EXPECT_EQ(lru.bytes(), 80u);
  EXPECT_EQ(lru.size(), 1u);
}

TEST(BudgetLru, OversizedEntryIsRejectedNotSqueezedIn) {
  cache::BudgetLru lru(100);
  EXPECT_TRUE(lru.put("a", blob(), 90).stored);
  const auto r = lru.put("big", blob(), 101);  // bigger than the whole budget
  EXPECT_FALSE(r.stored);
  EXPECT_EQ(r.evicted_count, 0u);        // must not flush the cache for it
  EXPECT_NE(lru.peek("a"), nullptr);     // resident set untouched
  EXPECT_EQ(lru.bytes(), 90u);
}

TEST(BudgetLru, EraseFreesBytesAndIsNotAnEviction) {
  cache::BudgetLru lru(100);
  lru.put("a", blob(), 30);
  lru.put("b", blob(), 30);
  EXPECT_EQ(lru.erase("a"), 30u);
  EXPECT_EQ(lru.erase("a"), 0u);  // already gone
  EXPECT_EQ(lru.bytes(), 30u);
  const auto order = lru.keys_lru_order();
  ASSERT_EQ(order.size(), 1u);
  EXPECT_EQ(order[0], "b");
}

// ---- hashing ----------------------------------------------------------------

TEST(PrefixCacheHash, StreamingExtensionMatchesOneShotHash) {
  Rng rng(11);
  const Tensor<fp16_t> rows = Tensor<fp16_t>::random_normal({10, 8}, rng);
  const auto full = cache::PrefixCache::hash_rows(rows.data(), 10, 8);
  const auto head = cache::PrefixCache::hash_rows(rows.data(), 6, 8);
  const auto resumed =
      cache::PrefixCache::hash_rows(rows.data() + 6 * 8, 4, 8, head);
  EXPECT_EQ(full, resumed);

  Tensor<fp16_t> edited = rows.clone();  // one flipped element must change the hash
  edited(0, 0) = fp16_t(float(edited(0, 0)) + 1.0f);
  EXPECT_NE(full, cache::PrefixCache::hash_rows(edited.data(), 10, 8));
}

// ---- PrefixCache unit behaviour --------------------------------------------

// A tiny synthetic entry: layers=2, hidden=4.
struct SyntheticConv {
  Tensor<fp16_t> input;   // [len, 4]
  std::vector<fp16_t> qkv;     // [2, len, 12]
  std::vector<fp16_t> output;  // [len, 4]

  explicit SyntheticConv(int len, int seed) {
    Rng rng(seed);
    input = Tensor<fp16_t>::random_normal({len, 4}, rng);
    qkv.resize(static_cast<std::size_t>(2 * len * 12), fp16_t(0.5f));
    output.resize(static_cast<std::size_t>(len * 4), fp16_t(0.25f));
  }
};

TEST(PrefixCache, ProbeHitsOnlyOnStrictValidatedPrefix) {
  cache::PrefixCache cache(1 << 20);
  SyntheticConv conv(12, 3);
  const std::string key = cache::PrefixCache::session_key("m", "s");

  EXPECT_EQ(cache.probe(key, conv.input.data(), 12), nullptr);  // absent
  cache.insert(key, conv.input.data(), 8, 2, 4, conv.qkv.data(), 8,
               conv.output.data());

  // Longer request whose first 8 rows match: hit.
  const auto hit = cache.probe(key, conv.input.data(), 12);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->length, 8);
  EXPECT_EQ(hit->layers, 2);

  // Equal length is a replay, not an extension: miss (strict prefix only).
  EXPECT_EQ(cache.probe(key, conv.input.data(), 8), nullptr);

  // Divergent history: same length, edited row 0 -> hash fails -> miss.
  Tensor<fp16_t> edited = conv.input.clone();
  edited(0, 0) = fp16_t(9.0f);
  EXPECT_EQ(cache.probe(key, edited.data(), 12), nullptr);

  const auto st = cache.stats();
  EXPECT_EQ(st.probes, 4);
  EXPECT_EQ(st.hits, 1);
  EXPECT_EQ(st.misses, 3);
}

TEST(PrefixCache, ExtendBuildsLongerSiblingWithContinuedHash) {
  cache::PrefixCache cache(1 << 20);
  SyntheticConv conv(16, 4);
  const std::string key = cache::PrefixCache::session_key("m", "s");
  cache.insert(key, conv.input.data(), 10, 2, 4, conv.qkv.data(), 10,
               conv.output.data());
  const auto base = cache.probe(key, conv.input.data(), 16);
  ASSERT_NE(base, nullptr);

  // Extend by the 6 suffix rows; suffix qkv is [layers, 6, 12] contiguous.
  std::vector<fp16_t> sqkv(static_cast<std::size_t>(2 * 6 * 12), fp16_t(1));
  std::vector<fp16_t> sout(static_cast<std::size_t>(6 * 4), fp16_t(2));
  cache.extend(key, base, conv.input.data() + 10 * 4, 16, sqkv.data(),
               /*qkv_layer_stride_rows=*/6, sout.data());

  // The new entry validates as a true prefix of an 18-row follow-up whose
  // first 16 rows are the same history — i.e. its continued hash equals the
  // one-shot hash of all 16 rows.
  Tensor<fp16_t> longer({18, 4});
  std::memcpy(longer.data(), conv.input.data(),
              static_cast<std::size_t>(16 * 4) * sizeof(fp16_t));
  const auto extended = cache.probe(key, longer.data(), 18);
  ASSERT_NE(extended, nullptr);
  EXPECT_EQ(extended->length, 16);
  EXPECT_EQ(extended->hash,
            cache::PrefixCache::hash_rows(conv.input.data(), 16, 4));
  // base is immutable: the probe snapshot still says 10 rows.
  EXPECT_EQ(base->length, 10);
  EXPECT_EQ(cache.stats().extends, 1);
}

TEST(PrefixCache, NoteRouteDropsEntryOnlyWhenThePinMoves) {
  cache::PrefixCache cache(1 << 20);
  SyntheticConv conv(8, 5);
  const std::string key = cache::PrefixCache::session_key("m", "s");
  cache.insert(key, conv.input.data(), 6, 2, 4, conv.qkv.data(), 6,
               conv.output.data());

  EXPECT_FALSE(cache.note_route(key, 0));  // first sighting: no migration
  EXPECT_FALSE(cache.note_route(key, 0));  // stable pin
  ASSERT_NE(cache.probe(key, conv.input.data(), 8), nullptr);

  EXPECT_TRUE(cache.note_route(key, 1));  // breaker moved the session
  EXPECT_EQ(cache.probe(key, conv.input.data(), 8), nullptr);  // dropped
  const auto st = cache.stats();
  EXPECT_EQ(st.migrations, 1);
  EXPECT_EQ(st.invalidations, 1);
  EXPECT_FALSE(cache.note_route(key, 0));  // tracking died with the entry
}

TEST(PrefixCache, BudgetIsAHardCeilingUnderPressure) {
  SyntheticConv probe_conv(8, 6);
  const std::size_t one_entry =
      [&] {  // measure a real entry's footprint once
        cache::PrefixCache sizing(std::size_t(1) << 30);
        sizing.insert("k", probe_conv.input.data(), 8, 2, 4,
                      probe_conv.qkv.data(), 8, probe_conv.output.data());
        return sizing.stats().bytes;
      }();

  // Budget for one entry (plus slack): the second session must evict the
  // first, and the byte level must never exceed the budget at any point.
  cache::PrefixCache cache(one_entry + one_entry / 2);
  for (int s = 0; s < 6; ++s) {
    SyntheticConv conv(8, 100 + s);
    cache.insert(cache::PrefixCache::session_key("m", std::to_string(s)),
                 conv.input.data(), 8, 2, 4, conv.qkv.data(), 8,
                 conv.output.data());
    EXPECT_LE(cache.stats().bytes, cache.budget());
    EXPECT_EQ(cache.stats().entries, 1u);
  }
  EXPECT_EQ(cache.stats().evictions, 5);

  // An entry larger than the whole budget is rejected outright and does not
  // flush what is resident.
  SyntheticConv huge(512, 7);
  cache.insert(cache::PrefixCache::session_key("m", "huge"),
               huge.input.data(), 512, 2, 4, huge.qkv.data(), 512,
               huge.output.data());
  EXPECT_EQ(cache.stats().rejected, 1);
  EXPECT_EQ(cache.stats().entries, 1u);
  EXPECT_LE(cache.stats().bytes, cache.budget());
}

// ---- Engine integration: the exactness contract -----------------------------

core::BertConfig tiny_config() {
  core::BertConfig cfg;
  cfg.layers = 2;
  cfg.heads = 2;
  cfg.head_size = 16;
  return cfg;
}

std::shared_ptr<const core::BertModel> shared_model() {
  static std::shared_ptr<const core::BertModel> model = [] {
    Rng rng(777);
    return std::make_shared<const core::BertModel>(
        core::BertModel::random(tiny_config(), rng));
  }();
  return model;
}

core::OptFlags causal_flags() {
  core::OptFlags f = core::OptFlags::byte_transformer();
  f.causal = true;
  return f;
}

serving::EngineOptions engine_options(serving::BatchPolicy policy) {
  serving::EngineOptions opts;
  opts.policy = policy;
  opts.flags = causal_flags();
  opts.threads = 2;
  if (policy == serving::BatchPolicy::kSortGroup) opts.group_size = 2;
  return opts;
}

// One conversation's full history; round r submits the first lens[r] rows.
// Lengths stay far below attention.h kShortSeqCutoff so the kernel-dispatch
// choice cannot differ between a resume and its full-encode reference.
Tensor<fp16_t> make_history(int total, int hidden, int seed) {
  Rng rng(seed);
  return Tensor<fp16_t>::random_normal({total, hidden}, rng);
}

Tensor<fp16_t> prefix_of(const Tensor<fp16_t>& history, int len) {
  Tensor<fp16_t> t({len, history.dim(1)});
  std::memcpy(t.data(), history.data(),
              static_cast<std::size_t>(len * history.dim(1)) *
                  sizeof(fp16_t));
  return t;
}

void expect_bitwise_equal(const Tensor<fp16_t>& a, const Tensor<fp16_t>& b,
                          const char* what) {
  ASSERT_EQ(a.dim(0), b.dim(0)) << what;
  ASSERT_EQ(a.dim(1), b.dim(1)) << what;
  EXPECT_EQ(std::memcmp(a.data(), b.data(),
                        static_cast<std::size_t>(a.size()) * sizeof(fp16_t)),
            0)
      << what << ": cached-prefix output differs from full re-encode";
}

// Runs one single-request round through an engine and returns the output.
Tensor<fp16_t> run_one(serving::Engine& engine, Tensor<fp16_t> hidden,
                       const char* session) {
  serving::Request req;
  req.hidden = std::move(hidden);
  if (session != nullptr) req.session = session;
  engine.submit(std::move(req));
  auto responses = engine.run_batch();
  EXPECT_EQ(responses.size(), 1u);
  return std::move(responses[0].output);
}

// The acceptance contract, per batching policy: every round of a growing
// conversation served through the cache is bitwise identical to the same
// input full-encoded by a cache-less engine, and rounds past the first are
// genuine hits that only compute the suffix.
class PrefixCacheEngine
    : public ::testing::TestWithParam<serving::BatchPolicy> {};

TEST_P(PrefixCacheEngine, ResumedRoundsAreBitwiseEqualToFullEncode) {
  auto cache = std::make_shared<cache::PrefixCache>(std::size_t(64) << 20);
  serving::EngineOptions cached_opts = engine_options(GetParam());
  cached_opts.prefix_cache = cache;
  cached_opts.cache_scope = "tiny";
  serving::Engine cached(shared_model(), cached_opts);
  serving::Engine plain(shared_model(), engine_options(GetParam()));

  const int hidden = static_cast<int>(cached.hidden());
  const Tensor<fp16_t> history = make_history(180, hidden, 42);
  const std::vector<int> rounds{24, 57, 103, 180};

  long long expected_saved = 0;
  for (std::size_t r = 0; r < rounds.size(); ++r) {
    const int len = rounds[r];
    const Tensor<fp16_t> out_cached =
        run_one(cached, prefix_of(history, len), "conv");
    const Tensor<fp16_t> out_plain =
        run_one(plain, prefix_of(history, len), nullptr);
    expect_bitwise_equal(out_cached, out_plain,
                         ("round " + std::to_string(r)).c_str());
    if (r > 0) expected_saved += rounds[r - 1];
  }

  const serving::EngineStats st = cached.stats();
  EXPECT_EQ(st.cache_misses, 1);  // only the cold first round
  EXPECT_EQ(st.cache_hits, static_cast<long long>(rounds.size()) - 1);
  EXPECT_EQ(st.cache_saved_tokens, expected_saved);
  const cache::CacheStats cs = cache->stats();
  EXPECT_EQ(cs.inserts, 1);
  EXPECT_EQ(cs.extends, static_cast<long long>(rounds.size()) - 1);
  EXPECT_LE(cs.bytes, cache->budget());
}

// Divergent history — the user edited an earlier turn — must fall back to a
// full re-encode (hash revalidation), never serve the stale prefix.
TEST_P(PrefixCacheEngine, DivergentHistoryFallsBackToFullEncode) {
  auto cache = std::make_shared<cache::PrefixCache>(std::size_t(64) << 20);
  serving::EngineOptions cached_opts = engine_options(GetParam());
  cached_opts.prefix_cache = cache;
  cached_opts.cache_scope = "tiny";
  serving::Engine cached(shared_model(), cached_opts);
  serving::Engine plain(shared_model(), engine_options(GetParam()));

  const int hidden = static_cast<int>(cached.hidden());
  const Tensor<fp16_t> history = make_history(96, hidden, 43);
  run_one(cached, prefix_of(history, 40), "conv");  // seeds the cache

  Tensor<fp16_t> edited = prefix_of(history, 96);
  edited(3, 5) = fp16_t(float(edited(3, 5)) + 0.5f);  // rewrite turn history
  Tensor<fp16_t> edited_copy = edited.clone();
  const Tensor<fp16_t> out_cached = run_one(cached, std::move(edited), "conv");
  const Tensor<fp16_t> out_plain =
      run_one(plain, std::move(edited_copy), nullptr);
  expect_bitwise_equal(out_cached, out_plain, "diverged round");

  const serving::EngineStats st = cached.stats();
  EXPECT_EQ(st.cache_hits, 0);
  EXPECT_EQ(st.cache_misses, 2);
  // The miss re-inserted the edited history as the conversation's newest
  // state — most recent wins, so the next edited-lineage round can hit.
  EXPECT_EQ(cache->stats().inserts, 2);
}

// Eviction mid-conversation (byte pressure from another session) silently
// degrades to a full re-encode — same bits, one more miss.
TEST_P(PrefixCacheEngine, EvictionMidConversationStaysExact) {
  // Budget sized so the two sessions' entries cannot coexist: measure one
  // real entry first, then allow 1.5x that.
  const serving::BatchPolicy policy = GetParam();
  const int hidden = static_cast<int>(tiny_config().hidden());
  const Tensor<fp16_t> hist_a = make_history(120, hidden, 45);
  const Tensor<fp16_t> hist_b = make_history(120, hidden, 46);

  std::size_t one_entry = 0;
  {
    auto sizing = std::make_shared<cache::PrefixCache>(std::size_t(1) << 30);
    serving::EngineOptions opts = engine_options(policy);
    opts.prefix_cache = sizing;
    opts.cache_scope = "tiny";
    serving::Engine e(shared_model(), opts);
    run_one(e, prefix_of(hist_a, 80), "a");
    one_entry = sizing->stats().bytes;
  }

  auto cache =
      std::make_shared<cache::PrefixCache>(one_entry + one_entry / 2);
  serving::EngineOptions cached_opts = engine_options(policy);
  cached_opts.prefix_cache = cache;
  cached_opts.cache_scope = "tiny";
  serving::Engine cached(shared_model(), cached_opts);
  serving::Engine plain(shared_model(), engine_options(policy));

  run_one(cached, prefix_of(hist_a, 80), "a");  // insert a
  run_one(cached, prefix_of(hist_b, 80), "b");  // insert b -> evicts a
  EXPECT_GE(cache->stats().evictions, 1);
  EXPECT_LE(cache->stats().bytes, cache->budget());

  // Session a's next round finds nothing (evicted): full re-encode, bitwise
  // equal, counted as a miss — and re-inserted, which in turn evicts b.
  const Tensor<fp16_t> out_cached =
      run_one(cached, prefix_of(hist_a, 110), "a");
  const Tensor<fp16_t> out_plain =
      run_one(plain, prefix_of(hist_a, 110), nullptr);
  expect_bitwise_equal(out_cached, out_plain, "post-eviction round");
  EXPECT_EQ(cached.stats().cache_hits, 0);
  EXPECT_EQ(cached.stats().cache_misses, 3);
  EXPECT_LE(cache->stats().bytes, cache->budget());
}

// A round of hits, a sessioned miss and a sessionless request runs one
// packed pass per micro-batch of the plan (the whole round under kPacked),
// and each member is still bitwise its own single-request encode: prefix
// lengths on both sides of a 48-row query tile edge (47, 96, 49), suffixes
// of 1, 8 and > 48 rows, and one hit past kShortSeqCutoff whose attention
// must run the long-regime kernel while the short hits beside it run the
// short one.
TEST_P(PrefixCacheEngine, OneRoundOfHitsIsOnePackedPassAndStaysExact) {
  auto cache = std::make_shared<cache::PrefixCache>(std::size_t(64) << 20);
  serving::EngineOptions cached_opts = engine_options(GetParam());
  cached_opts.prefix_cache = cache;
  cached_opts.cache_scope = "tiny";
  serving::Engine cached(shared_model(), cached_opts);
  serving::Engine plain(shared_model(), engine_options(GetParam()));
  const int hidden = static_cast<int>(cached.hidden());

  struct Conv {
    const char* session;
    int prefix;
    int total;
    Tensor<fp16_t> history;
  };
  std::vector<Conv> convs;
  convs.push_back({"a", 47, 48, make_history(48, hidden, 50)});
  convs.push_back({"b", 96, 104, make_history(104, hidden, 51)});
  convs.push_back({"c", 49, 109, make_history(109, hidden, 52)});
  convs.push_back({"long", 400, 420,
                   make_history(420, hidden, 53)});
  ASSERT_GT(convs.back().total, attn::kShortSeqCutoff);

  // Seed the cache: the long prefix alone (its own regime), then the short
  // ones together.
  run_one(cached, prefix_of(convs[3].history, convs[3].prefix), "long");
  for (int i = 0; i < 3; ++i) {
    serving::Request req;
    req.hidden = prefix_of(convs[static_cast<std::size_t>(i)].history,
                           convs[static_cast<std::size_t>(i)].prefix);
    req.session = convs[static_cast<std::size_t>(i)].session;
    cached.submit(std::move(req));
  }
  cached.run_batch();
  ASSERT_EQ(cache->stats().inserts, 4);

  // The round under test, in an order that is not sorted by length.
  Rng rng(54);
  std::vector<std::pair<Tensor<fp16_t>, const char*>> round;
  round.emplace_back(prefix_of(convs[2].history, convs[2].total), "c");
  round.emplace_back(prefix_of(convs[3].history, convs[3].total), "long");
  round.emplace_back(Tensor<fp16_t>::random_normal({33, hidden}, rng), nullptr);
  round.emplace_back(prefix_of(convs[0].history, convs[0].total), "a");
  round.emplace_back(Tensor<fp16_t>::random_normal({70, hidden}, rng), "d");
  round.emplace_back(prefix_of(convs[1].history, convs[1].total), "b");
  const serving::EngineStats before = cached.stats();
  for (const auto& [input, session] : round) {
    serving::Request req;
    req.hidden = input.clone();
    if (session != nullptr) req.session = session;
    cached.submit(std::move(req));
  }
  const std::vector<serving::Response> responses = cached.run_batch();
  ASSERT_EQ(responses.size(), round.size());

  for (std::size_t i = 0; i < round.size(); ++i) {
    const auto& [input, session] = round[i];
    const Tensor<fp16_t> want = run_one(plain, input.clone(), nullptr);
    expect_bitwise_equal(responses[i].output, want,
                         session != nullptr ? session : "sessionless");
  }

  const serving::EngineStats st = cached.stats();
  EXPECT_EQ(st.cache_hits - before.cache_hits, 4);
  EXPECT_EQ(st.cache_misses - before.cache_misses, 1);
  // Hits, the sessioned miss and the sessionless request are planned
  // together: one packed pass per micro-batch of the plan (three pairs
  // under kSortGroup with group_size 2, one pass otherwise).
  const long long passes =
      GetParam() == serving::BatchPolicy::kSortGroup ? 3 : 1;
  EXPECT_EQ(st.micro_batches - before.micro_batches, passes);
  if (GetParam() == serving::BatchPolicy::kPacked) {
    // The whole round is one model pass, hence one compute time.
    for (const serving::Response& r : responses) {
      EXPECT_EQ(r.compute_seconds, responses.front().compute_seconds);
    }
  }
  EXPECT_EQ(st.cache_hit_suffix_tokens - before.cache_hit_suffix_tokens,
            1 + 8 + 60 + 20);
  EXPECT_EQ(cache->stats().extends, 4);
  EXPECT_EQ(cache->stats().inserts, 5);  // the miss "d", from the same pass
}

INSTANTIATE_TEST_SUITE_P(AllPolicies, PrefixCacheEngine,
                         ::testing::Values(serving::BatchPolicy::kPadToMax,
                                           serving::BatchPolicy::kSortGroup,
                                           serving::BatchPolicy::kPacked),
                         [](const auto& info) {
                           switch (info.param) {
                             case serving::BatchPolicy::kPadToMax:
                               return "PadToMax";
                             case serving::BatchPolicy::kSortGroup:
                               return "SortGroup";
                             default:
                               return "Packed";
                           }
                         });

// The cache needs causal packed attention to be exact; the engine must
// refuse a cache under any other flag set rather than serve wrong bits.
TEST(PrefixCacheEngineValidation, RejectsCacheWithoutCausalPackedFlags) {
  auto cache = std::make_shared<cache::PrefixCache>(1 << 20);
  serving::EngineOptions opts;
  opts.policy = serving::BatchPolicy::kPacked;
  opts.flags = core::OptFlags::byte_transformer();  // causal NOT set
  opts.prefix_cache = cache;
  EXPECT_THROW(serving::Engine(shared_model(), opts), std::invalid_argument);
}

// Mixed rounds still work: a sessionless request batched in the same round
// as a conversation neither touches nor corrupts the cache.
TEST(PrefixCacheEngineValidation, SessionlessTrafficBypassesTheCache) {
  auto cache = std::make_shared<cache::PrefixCache>(std::size_t(64) << 20);
  serving::EngineOptions opts = engine_options(serving::BatchPolicy::kPacked);
  opts.prefix_cache = cache;
  opts.cache_scope = "tiny";
  serving::Engine engine(shared_model(), opts);

  const int hidden = static_cast<int>(engine.hidden());
  const Tensor<fp16_t> history = make_history(64, hidden, 47);
  Rng rng(48);

  serving::Request conv;
  conv.hidden = prefix_of(history, 30);
  conv.session = "conv";
  engine.submit(std::move(conv));
  serving::Request anon;
  anon.hidden = Tensor<fp16_t>::random_normal({20, hidden}, rng);
  engine.submit(std::move(anon));
  engine.run_batch();

  EXPECT_EQ(cache->stats().inserts, 1);  // only the sessioned request
  EXPECT_EQ(cache->stats().probes, 1);
  EXPECT_EQ(engine.stats().cache_misses, 1);
}

// ---- Service-level concurrency ---------------------------------------------

// N conversation threads drive growing prefixes through one Service with a
// shared cache; every round past the first must be a hit and every response
// must be bitwise identical to a cache-less single-request reference. This
// is the test the TSan CI leg runs to pin the cache's thread-safety.
TEST(PrefixCacheService, ConcurrentConversationsStayExactAndHit) {
  constexpr int kSessions = 4;
  constexpr int kRounds = 3;
  const std::vector<int> lens{20, 44, 71};

  const int hidden = static_cast<int>(tiny_config().hidden());
  std::vector<Tensor<fp16_t>> histories;
  for (int s = 0; s < kSessions; ++s) {
    histories.push_back(make_history(lens.back(), hidden, 500 + s));
  }

  // Reference outputs: cache-less single-request full encodes.
  std::vector<std::vector<Tensor<fp16_t>>> expected(kSessions);
  {
    serving::Engine plain(shared_model(),
                          engine_options(serving::BatchPolicy::kPacked));
    for (int s = 0; s < kSessions; ++s) {
      for (int r = 0; r < kRounds; ++r) {
        expected[static_cast<std::size_t>(s)].push_back(
            run_one(plain, prefix_of(histories[static_cast<std::size_t>(s)],
                                     lens[static_cast<std::size_t>(r)]),
                    nullptr));
      }
    }
  }

  serving::EnginePoolOptions pool_opts;
  pool_opts.engine.engine = engine_options(serving::BatchPolicy::kPacked);
  pool_opts.engine.max_wait_seconds = 0.001;
  pool_opts.replicas = 1;
  serving::ModelRegistry registry;
  registry.add("tiny", shared_model(), pool_opts);
  serving::ServiceOptions service_opts;
  service_opts.prefix_cache_bytes = std::size_t(64) << 20;
  serving::Service service(std::move(registry), service_opts);
  ASSERT_NE(service.prefix_cache(), nullptr);

  std::vector<std::thread> threads;
  std::atomic<int> mismatches{0};
  for (int s = 0; s < kSessions; ++s) {
    threads.emplace_back([&, s] {
      for (int r = 0; r < kRounds; ++r) {
        serving::Request req;
        req.hidden = prefix_of(histories[static_cast<std::size_t>(s)],
                               lens[static_cast<std::size_t>(r)]);
        req.session = "conv-" + std::to_string(s);
        serving::Response resp = service.submit(std::move(req)).get();
        const Tensor<fp16_t>& want =
            expected[static_cast<std::size_t>(s)][static_cast<std::size_t>(r)];
        if (resp.output.dim(0) != want.dim(0) ||
            std::memcmp(resp.output.data(), want.data(),
                        static_cast<std::size_t>(want.size()) *
                            sizeof(fp16_t)) != 0) {
          mismatches.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  service.stop();

  EXPECT_EQ(mismatches.load(), 0);
  const serving::EngineStats st = service.stats();
  EXPECT_EQ(st.cache_hits + st.cache_misses,
            static_cast<long long>(kSessions) * kRounds);
  // Round 1..R-1 of every session probes state its own previous round
  // published before the future resolved: all hits.
  EXPECT_EQ(st.cache_hits, static_cast<long long>(kSessions) * (kRounds - 1));
  EXPECT_EQ(st.cache_misses, kSessions);
  const cache::CacheStats cs = service.prefix_cache()->stats();
  EXPECT_LE(cs.bytes, service.prefix_cache()->budget());
  EXPECT_EQ(cs.entries, static_cast<std::size_t>(kSessions));
}

}  // namespace
}  // namespace bt
