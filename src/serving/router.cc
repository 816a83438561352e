#include "serving/router.h"

#include <cassert>

namespace bt::serving {

namespace {

std::size_t least_outstanding_tokens(std::span<const ReplicaLoad> replicas) {
  std::size_t best = replicas.size();
  for (std::size_t i = 0; i < replicas.size(); ++i) {
    if (!replicas[i].available) continue;
    if (best == replicas.size() ||
        replicas[i].outstanding_tokens < replicas[best].outstanding_tokens) {
      best = i;  // strict < : ties stay on the lowest index
    }
  }
  assert(best != replicas.size() && "EnginePool keeps one replica available");
  return best;
}

}  // namespace

std::size_t Router::pick(std::span<const ReplicaLoad> replicas,
                         std::optional<std::string_view> session,
                         bool* pinned_hit) {
  if (pinned_hit != nullptr) *pinned_hit = false;
  if (policy_ != RoutePolicy::kStickySession || !session.has_value()) {
    return least_outstanding_tokens(replicas);
  }
  if (auto it = pins_.find(*session); it != pins_.end()) {
    // A shrunken fleet (not possible through EnginePool today, where the
    // replica count is fixed at construction) would invalidate the pin;
    // re-route and re-pin instead of indexing out of range. A pin on an
    // unavailable (quarantined) replica migrates the same way: drop it and
    // re-pin by load below (the prefix cache then drops the session's
    // entry, built on the broken replica). Not a pinned_hit: an existing
    // pin did not decide this pick.
    if (it->second.replica < replicas.size() &&
        replicas[it->second.replica].available) {
      lru_.splice(lru_.end(), lru_, it->second.pos);  // refresh recency
      if (pinned_hit != nullptr) *pinned_hit = true;
      return it->second.replica;
    }
    lru_.erase(it->second.pos);
    pins_.erase(it);
  }
  const std::size_t target = least_outstanding_tokens(replicas);
  if (pins_.size() >= kStickyMaxPins) {
    // Evict the least-recently-routed session; it re-pins if it returns.
    const auto victim = pins_.find(lru_.front());
    lru_.pop_front();
    pins_.erase(victim);
  }
  auto [it, inserted] =
      pins_.emplace(std::string(*session), Pin{target, {}});
  it->second.pos = lru_.insert(lru_.end(), it->first);
  return target;
}

std::optional<std::size_t> Router::pinned(std::string_view session) const {
  if (auto it = pins_.find(session); it != pins_.end()) {
    return it->second.replica;
  }
  return std::nullopt;
}

}  // namespace bt::serving
