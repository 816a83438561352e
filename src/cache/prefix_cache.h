// Prefix-keyed activation cache: sticky sessions become a compute
// multiplier.
//
// A multi-round conversation re-encodes an ever-growing prefix from scratch
// on every round — round r pays O(sum of len_r) when only the new suffix is
// new information. Under CAUSAL attention (core/config.h OptFlags::causal)
// a prefix token's activations do not depend on suffix tokens, so the
// per-layer state the fused kernels need to resume — the raw QKV rows of
// the prefix (gemm0 output, bias unapplied) — can be cached per session and
// the next round can encode just the suffix, attending over the cached K/V
// rows (attention.h PackedMhaArgs::q_start).
//
// Exactness contract: a resumed encode is BITWISE IDENTICAL to a full
// single-sequence re-encode with the same flags (tested per batch policy in
// tests/test_prefix_cache.cc). There is no approximation knob; stale or
// divergent state must therefore never be served. Entries are keyed by
// session (scope "model/session"), and every probe revalidates by hashing
// the request's actual prefix rows (streaming FNV-1a over the fp16 input
// bytes) against the hash stored when the entry was built. Edited history,
// replayed shorter requests, or any divergence fails the check and falls
// back to a full re-encode — never wrong state, at worst wasted cache.
//
// Budget: entries are byte-accounted into a BudgetLru shared across all
// sessions (and, at the serving::Service level, across all models). The
// budget is a hard ceiling — an entry that cannot fit after evicting every
// colder entry is rejected, not squeezed in.
//
// Concurrency: one mutex serializes the map + stats; entries themselves are
// immutable (shared_ptr<const PrefixEntry>), so a reader holds its snapshot
// lock-free while eviction or extension races ahead — an evicted entry
// stays alive until the last in-flight resume drops it. probe() therefore
// revalidates (hashes the whole prefix) outside the lock. extend() never
// mutates the base entry; it builds a longer sibling and replaces the key.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "cache/budget_lru.h"
#include "common/annotations.h"
#include "common/half.h"
#include "common/mutex.h"
#include "obs/fields.h"

namespace bt::cache {

// Immutable cached state for one session's longest previously-encoded
// prefix. `qkv` holds the raw per-layer QKV projections (bias unapplied)
// in [layers, length, 3*hidden] layout; `output` the final hidden states
// [length, hidden] so a hit can serve the prefix's output rows without any
// compute at all.
struct PrefixEntry {
  std::int64_t length = 0;  // prefix rows (tokens)
  int layers = 0;
  std::int64_t hidden = 0;
  std::uint64_t hash = 0;  // FNV-1a over the first `length` input rows
  std::vector<fp16_t> qkv;     // [layers, length, 3*hidden]
  std::vector<fp16_t> output;  // [length, hidden]

  const fp16_t* layer_qkv(int layer) const {
    return qkv.data() + static_cast<std::int64_t>(layer) * length * 3 * hidden;
  }
  std::size_t bytes() const {
    return (qkv.size() + output.size()) * sizeof(fp16_t) + sizeof(PrefixEntry);
  }
};

// Monotonic counters + point-in-time levels; a snapshot under the cache
// mutex, so hits + misses always equals the number of probes issued.
// Service::publish_stats() publishes it as the "cache.prefix.*" gauges.
struct CacheStats {
  long long probes = 0;
  long long hits = 0;
  long long misses = 0;          // no entry, stale hash, or replay
  long long inserts = 0;
  long long extends = 0;
  long long rejected = 0;        // entry larger than the whole budget
  long long evictions = 0;       // entries displaced by byte pressure
  long long invalidations = 0;   // explicit drops (incl. migration drops)
  long long migrations = 0;      // sticky pin moved to another replica
  long long hit_suffix_tokens = 0;   // tokens actually encoded on hits
  long long hit_prefix_tokens = 0;   // tokens served from cache on hits
  std::size_t bytes = 0;    // current resident bytes
  std::size_t entries = 0;  // current resident entries

  static constexpr std::tuple kFields{
      obs::Field{"probes", &CacheStats::probes},
      obs::Field{"hits", &CacheStats::hits},
      obs::Field{"misses", &CacheStats::misses},
      obs::Field{"inserts", &CacheStats::inserts},
      obs::Field{"extends", &CacheStats::extends},
      obs::Field{"rejected", &CacheStats::rejected},
      obs::Field{"evictions", &CacheStats::evictions},
      obs::Field{"invalidations", &CacheStats::invalidations},
      obs::Field{"migrations", &CacheStats::migrations},
      obs::Field{"hit_suffix_tokens", &CacheStats::hit_suffix_tokens},
      obs::Field{"saved_tokens", &CacheStats::hit_prefix_tokens},
      obs::Field{"bytes", &CacheStats::bytes},
      obs::Field{"entries", &CacheStats::entries},
  };
};

class PrefixCache {
 public:
  explicit PrefixCache(std::size_t budget_bytes);

  PrefixCache(const PrefixCache&) = delete;
  PrefixCache& operator=(const PrefixCache&) = delete;

  // Cache key for a session: "<scope>/<session>". Scope is the model name
  // (a Service-level cache is shared across models; two models must never
  // exchange activations).
  static std::string session_key(std::string_view scope,
                                 std::string_view session);

  // Streaming FNV-1a 64 over `rows` fp16 input rows of width `hidden`.
  // Seedable so an extension continues from the base entry's hash instead
  // of rehashing the whole prefix.
  static std::uint64_t hash_rows(const fp16_t* rows, std::int64_t count,
                                 std::int64_t hidden,
                                 std::uint64_t seed = kFnvBasis);

  // Look up the session's entry and revalidate it against this request's
  // input rows ([len, hidden], packed). Returns the entry iff it covers a
  // strict prefix (entry->length < len) AND the hash of the request's first
  // entry->length rows matches — i.e. resuming is both possible and exact.
  // Anything else (absent, divergent history, replayed/shortened request)
  // is a miss; the caller full-encodes and insert() replaces the entry with
  // the conversation's newest state.
  std::shared_ptr<const PrefixEntry> probe(const std::string& key,
                                           const fp16_t* input_rows,
                                           std::int64_t len);

  // Store the full state of a freshly encoded sequence: per-layer QKV rows
  // (`qkv` points at this request's layer-0 rows; layer l's rows live at
  // qkv + l * qkv_layer_stride_rows * 3 * hidden, supporting capture
  // buffers shared by a whole micro-batch) and the final hidden states
  // (`output_rows`, contiguous [len, hidden]). Replaces any existing entry
  // for the key — most recent conversation state wins.
  void insert(const std::string& key, const fp16_t* input_rows,
              std::int64_t len, int layers, std::int64_t hidden,
              const fp16_t* qkv, std::int64_t qkv_layer_stride_rows,
              const fp16_t* output_rows);

  // Grow `base` (a probe() result for this key) by the suffix just encoded:
  // suffix_qkv points at this sequence's layer-0 suffix rows, layer l's at
  // suffix_qkv + l * qkv_layer_stride_rows * 3 * hidden (a packed resume
  // pass's [layers, suffix_rows, 3*hidden] buffer); suffix_output is
  // [suffix, hidden], suffix_input the rows hashed into the new entry's
  // hash (continuing from base->hash). Builds a new immutable entry of
  // length new_len and replaces the key; `base` itself is never mutated.
  // If the key was evicted or replaced since the probe, the extension still
  // stores (it is the newest state for the conversation).
  void extend(const std::string& key,
              const std::shared_ptr<const PrefixEntry>& base,
              const fp16_t* suffix_input, std::int64_t new_len,
              const fp16_t* suffix_qkv, std::int64_t qkv_layer_stride_rows,
              const fp16_t* suffix_output);

  // Drop a session's entry (correctness action, counted as invalidation).
  void invalidate(const std::string& key);

  // Sticky-routing observer (serving::EnginePool). Records which replica
  // currently serves the session; when the pin MOVES (circuit-breaker
  // quarantine re-routing the session), the session's cached state is
  // dropped — the quarantined replica may have been faulty while building
  // it (net/fault.h can corrupt a replica's arithmetic), and a migration is
  // exactly the signal that its recent outputs are not trusted. Returns
  // true iff a migration was detected. Sessions without a cached entry are
  // not tracked (the side table stays bounded by cache occupancy).
  bool note_route(const std::string& key, int replica);

  CacheStats stats() const;
  std::size_t budget() const noexcept { return budget_; }

  static constexpr std::uint64_t kFnvBasis = 0xcbf29ce484222325ULL;

 private:
  void on_put_result_locked(const BudgetLru::PutResult& result)
      BT_REQUIRES(mutex_);

  const std::size_t budget_;
  mutable Mutex mutex_;
  BudgetLru lru_ BT_GUARDED_BY(mutex_);
  std::unordered_map<std::string, int> replica_of_ BT_GUARDED_BY(mutex_);
  CacheStats stats_ BT_GUARDED_BY(mutex_);

  // The distributions CacheStats does not hold, resolved once at
  // construction (hot-path recording only).
  obs::LatencyHistogram& m_suffix_ratio_;
  obs::LatencyHistogram& m_entry_bytes_;
};

}  // namespace bt::cache
