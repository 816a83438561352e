// Byte-budgeted LRU map: the eviction engine under cache::PrefixCache.
//
// Activation cache entries vary by orders of magnitude with prefix length
// and model size, so the budget here is BYTES, not entries. put() admits an
// entry only if it can fit within the budget after evicting colder entries;
// an entry larger than the whole budget is rejected outright (never stored,
// never evicts anything — one oversized conversation must not wipe the
// cache for everyone else).
//
// Values are held as shared_ptr<const void>: readers that resolved a value
// via get() keep it alive even if eviction races ahead and drops the map's
// reference. NOT thread-safe — PrefixCache serializes access under its own
// mutex; keeping the lock outside lets probe/insert pair stat updates with
// map updates atomically.
#pragma once

#include <cstddef>
#include <cstdint>
#include <list>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

namespace bt::cache {

class BudgetLru {
 public:
  explicit BudgetLru(std::size_t budget_bytes) : budget_(budget_bytes) {}

  struct PutResult {
    bool stored = false;             // false => entry exceeded the budget
    std::size_t evicted_count = 0;   // entries displaced to make room
    std::size_t evicted_bytes = 0;
    // Keys of displaced entries, for owner-side cleanup of side tables.
    // Does NOT include `key` itself when put() replaces an existing entry.
    std::vector<std::string> evicted_keys;
  };

  // Insert or replace. Replacing the same key first releases the old
  // entry's bytes (a replacement is not an eviction). Then evicts from the
  // LRU front until `bytes` fits. The stored value is refreshed to
  // most-recently-used.
  PutResult put(const std::string& key, std::shared_ptr<const void> value,
                std::size_t bytes);

  // Lookup; refreshes the entry to most-recently-used on hit.
  std::shared_ptr<const void> get(const std::string& key);

  // Lookup without the LRU refresh (observers / tests).
  std::shared_ptr<const void> peek(const std::string& key) const;

  // Drop one key. Returns the freed bytes (0 if absent). Not counted as an
  // eviction — erasure is a correctness action (invalidation), not pressure.
  std::size_t erase(const std::string& key);

  std::size_t bytes() const noexcept { return bytes_; }
  std::size_t budget() const noexcept { return budget_; }
  std::size_t size() const noexcept { return map_.size(); }

  // Least-recently-used key first; for eviction-order tests.
  std::vector<std::string> keys_lru_order() const;

 private:
  struct Node {
    std::string key;
    std::shared_ptr<const void> value;
    std::size_t bytes = 0;
  };

  std::size_t budget_;
  std::size_t bytes_ = 0;
  std::list<Node> lru_;  // front = coldest, back = hottest
  std::unordered_map<std::string, std::list<Node>::iterator> map_;
};

}  // namespace bt::cache
