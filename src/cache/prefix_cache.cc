#include "cache/prefix_cache.h"

#include <cstring>
#include <utility>

#include "obs/metrics.h"

namespace bt::cache {

namespace {
constexpr std::uint64_t kFnvPrime = 0x100000001b3ULL;
}  // namespace

PrefixCache::PrefixCache(std::size_t budget_bytes)
    : budget_(budget_bytes),
      lru_(budget_bytes),
      m_suffix_ratio_(obs::MetricRegistry::global().histogram(
          "cache.prefix.suffix_ratio_pct")),
      m_entry_bytes_(obs::MetricRegistry::global().histogram(
          "cache.prefix.entry_bytes")) {
  obs::MetricRegistry::global()
      .gauge("cache.prefix.budget_bytes")
      .set(static_cast<double>(budget_));
}

std::string PrefixCache::session_key(std::string_view scope,
                                     std::string_view session) {
  std::string key;
  key.reserve(scope.size() + 1 + session.size());
  key.append(scope);
  key.push_back('/');
  key.append(session);
  return key;
}

std::uint64_t PrefixCache::hash_rows(const fp16_t* rows, std::int64_t count,
                                     std::int64_t hidden, std::uint64_t seed) {
  const auto* bytes = reinterpret_cast<const unsigned char*>(rows);
  const std::size_t n =
      static_cast<std::size_t>(count * hidden) * sizeof(fp16_t);
  std::uint64_t h = seed;
  for (std::size_t i = 0; i < n; ++i) {
    h ^= bytes[i];
    h *= kFnvPrime;
  }
  return h;
}

std::shared_ptr<const PrefixEntry> PrefixCache::probe(const std::string& key,
                                                      const fp16_t* input_rows,
                                                      std::int64_t len) {
  MutexLock lock(mutex_);
  stats_.probes += 1;
  auto raw = lru_.get(key);
  if (raw != nullptr) {
    auto entry = std::static_pointer_cast<const PrefixEntry>(raw);
    // A usable entry covers a STRICT prefix (there must be suffix work
    // left) and the conversation's actual history must match what was
    // cached — replayed or edited history falls through to a full encode.
    if (entry->length < len &&
        hash_rows(input_rows, entry->length, entry->hidden) == entry->hash) {
      const std::int64_t suffix = len - entry->length;
      stats_.hits += 1;
      stats_.hit_suffix_tokens += suffix;
      stats_.hit_prefix_tokens += entry->length;
      m_suffix_ratio_.record(
          static_cast<std::uint64_t>(suffix * 100 / len));
      return entry;
    }
  }
  stats_.misses += 1;
  return nullptr;
}

void PrefixCache::insert(const std::string& key, const fp16_t* input_rows,
                         std::int64_t len, int layers, std::int64_t hidden,
                         const fp16_t* qkv, std::int64_t qkv_layer_stride_rows,
                         const fp16_t* output_rows) {
  auto entry = std::make_shared<PrefixEntry>();
  entry->length = len;
  entry->layers = layers;
  entry->hidden = hidden;
  entry->hash = hash_rows(input_rows, len, hidden);
  entry->qkv.resize(static_cast<std::size_t>(layers) *
                    static_cast<std::size_t>(len * 3 * hidden));
  for (int l = 0; l < layers; ++l) {
    std::memcpy(entry->qkv.data() +
                    static_cast<std::int64_t>(l) * len * 3 * hidden,
                qkv + l * qkv_layer_stride_rows * 3 * hidden,
                static_cast<std::size_t>(len * 3 * hidden) * sizeof(fp16_t));
  }
  entry->output.assign(output_rows, output_rows + len * hidden);

  const std::size_t bytes = entry->bytes();
  MutexLock lock(mutex_);
  auto result = lru_.put(key, std::move(entry), bytes);
  if (result.stored) {
    stats_.inserts += 1;
    m_entry_bytes_.record(bytes);
  } else {
    stats_.rejected += 1;
  }
  on_put_result_locked(result);
}

void PrefixCache::extend(const std::string& key,
                         const std::shared_ptr<const PrefixEntry>& base,
                         const fp16_t* suffix_input, std::int64_t new_len,
                         const fp16_t* suffix_qkv,
                         const fp16_t* suffix_output) {
  const std::int64_t hidden = base->hidden;
  const int layers = base->layers;
  const std::int64_t suffix = new_len - base->length;

  auto entry = std::make_shared<PrefixEntry>();
  entry->length = new_len;
  entry->layers = layers;
  entry->hidden = hidden;
  // Streaming hash: continue from the base prefix's digest.
  entry->hash = hash_rows(suffix_input, suffix, hidden, base->hash);
  entry->qkv.resize(static_cast<std::size_t>(layers) *
                    static_cast<std::size_t>(new_len * 3 * hidden));
  for (int l = 0; l < layers; ++l) {
    fp16_t* dst =
        entry->qkv.data() + static_cast<std::int64_t>(l) * new_len * 3 * hidden;
    std::memcpy(dst, base->layer_qkv(l),
                static_cast<std::size_t>(base->length * 3 * hidden) *
                    sizeof(fp16_t));
    std::memcpy(dst + base->length * 3 * hidden,
                suffix_qkv + static_cast<std::int64_t>(l) * suffix * 3 * hidden,
                static_cast<std::size_t>(suffix * 3 * hidden) *
                    sizeof(fp16_t));
  }
  entry->output.resize(static_cast<std::size_t>(new_len * hidden));
  std::memcpy(entry->output.data(), base->output.data(),
              static_cast<std::size_t>(base->length * hidden) *
                  sizeof(fp16_t));
  std::memcpy(entry->output.data() + base->length * hidden, suffix_output,
              static_cast<std::size_t>(suffix * hidden) * sizeof(fp16_t));

  const std::size_t bytes = entry->bytes();
  MutexLock lock(mutex_);
  auto result = lru_.put(key, std::move(entry), bytes);
  if (result.stored) {
    stats_.extends += 1;
    m_entry_bytes_.record(bytes);
  } else {
    stats_.rejected += 1;
    // put() rejects oversized entries before touching the map, so the base
    // entry (the longest cacheable state) is still resident.
  }
  on_put_result_locked(result);
}

void PrefixCache::invalidate(const std::string& key) {
  MutexLock lock(mutex_);
  if (lru_.erase(key) > 0) stats_.invalidations += 1;
  replica_of_.erase(key);
}

bool PrefixCache::note_route(const std::string& key, int replica) {
  MutexLock lock(mutex_);
  if (lru_.peek(key) == nullptr) {
    // Not cached: nothing to protect, and tracking every session ever seen
    // would leak — the side table is bounded by cache occupancy.
    replica_of_.erase(key);
    return false;
  }
  auto it = replica_of_.find(key);
  if (it == replica_of_.end()) {
    replica_of_.emplace(key, replica);
    return false;
  }
  if (it->second == replica) return false;
  // Sticky pin moved (breaker quarantine): the state built on the old
  // replica is no longer trusted — drop it and let the next round rebuild.
  if (lru_.erase(key) > 0) stats_.invalidations += 1;
  replica_of_.erase(it);
  stats_.migrations += 1;
  return true;
}

CacheStats PrefixCache::stats() const {
  MutexLock lock(mutex_);
  CacheStats out = stats_;
  out.bytes = lru_.bytes();
  out.entries = lru_.size();
  return out;
}

void PrefixCache::on_put_result_locked(const BudgetLru::PutResult& result) {
  if (result.evicted_count > 0) {
    stats_.evictions += static_cast<long long>(result.evicted_count);
    for (const std::string& k : result.evicted_keys) replica_of_.erase(k);
  }
}

}  // namespace bt::cache
