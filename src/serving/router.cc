#include "serving/router.h"

#include <functional>
#include <list>
#include <string>
#include <unordered_map>
#include <utility>

namespace bt::serving {

namespace {

// Least-by-projection over the available replicas; when the breaker has
// marked every one unavailable (defensive — EnginePool re-marks all
// available in that case before calling pick), fall back to ignoring the
// flag: routing somewhere beats routing nowhere.
template <typename Proj>
std::size_t least_available_by(std::span<const ReplicaLoad> replicas,
                               Proj proj) {
  std::size_t best = replicas.size();
  for (std::size_t i = 0; i < replicas.size(); ++i) {
    if (!replicas[i].available) continue;
    if (best == replicas.size() || proj(replicas[i]) < proj(replicas[best])) {
      best = i;  // strict < : ties stay on the lowest index
    }
  }
  if (best != replicas.size()) return best;
  best = 0;
  for (std::size_t i = 1; i < replicas.size(); ++i) {
    if (proj(replicas[i]) < proj(replicas[best])) best = i;
  }
  return best;
}

std::size_t least_outstanding_tokens(std::span<const ReplicaLoad> replicas) {
  return least_available_by(
      replicas, [](const ReplicaLoad& r) { return r.outstanding_tokens; });
}

class RoundRobinRouter final : public Router {
 public:
  std::size_t pick(std::span<const ReplicaLoad> replicas,
                   const RouteRequest& /*req*/,
                   bool* pinned_hit) override {
    if (pinned_hit != nullptr) *pinned_hit = false;
    // Advance the cursor past unavailable replicas (at most one lap); with
    // every replica available this is exactly the classic cyclic walk.
    const std::size_t n = replicas.size();
    for (std::size_t k = 0; k < n; ++k) {
      const std::size_t cand = (next_ + k) % n;
      if (replicas[cand].available) {
        next_ = (cand + 1) % n;
        return cand;
      }
    }
    const std::size_t target = next_ % n;
    next_ = (next_ + 1) % n;
    return target;
  }
  const char* name() const override {
    return route_policy_name(RoutePolicy::kRoundRobin);
  }

 private:
  std::size_t next_ = 0;
};

class LeastOutstandingRequestsRouter final : public Router {
 public:
  std::size_t pick(std::span<const ReplicaLoad> replicas,
                   const RouteRequest& /*req*/,
                   bool* pinned_hit) override {
    if (pinned_hit != nullptr) *pinned_hit = false;
    return least_available_by(replicas, [](const ReplicaLoad& r) {
      return r.outstanding_requests;
    });
  }
  const char* name() const override {
    return route_policy_name(RoutePolicy::kLeastOutstandingRequests);
  }
};

class LeastOutstandingTokensRouter final : public Router {
 public:
  std::size_t pick(std::span<const ReplicaLoad> replicas,
                   const RouteRequest& /*req*/,
                   bool* pinned_hit) override {
    if (pinned_hit != nullptr) *pinned_hit = false;
    return least_outstanding_tokens(replicas);
  }
  const char* name() const override {
    return route_policy_name(RoutePolicy::kLeastOutstandingTokens);
  }
};

// Sessionful routing: the first request of a session picks the replica with
// the fewest outstanding tokens and pins the session there; follow-ups go
// to the pin, which is what the prefix cache trusts (note_route). Sessionless
// requests route least-outstanding-tokens and leave no pin. The pin map is
// a bounded LRU (kStickyMaxPins): memory tracks recently active sessions,
// and an evicted (long-idle) session transparently re-pins by load on its
// next request. Lookups are heterogeneous (string_view keyed) so the hot
// path allocates only when creating a pin.
class StickySessionRouter final : public Router {
 public:
  std::size_t pick(std::span<const ReplicaLoad> replicas,
                   const RouteRequest& req, bool* pinned_hit) override {
    if (pinned_hit != nullptr) *pinned_hit = false;
    if (!req.session.has_value()) return least_outstanding_tokens(replicas);
    if (auto it = pins_.find(*req.session); it != pins_.end()) {
      // A shrunken fleet (not possible through EnginePool today, where the
      // replica count is fixed at construction) would invalidate the pin;
      // re-route and re-pin instead of indexing out of range. A pin on an
      // unavailable (quarantined) replica migrates the same way: drop it
      // and re-pin by load below (the prefix cache then drops the session's
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
        pins_.emplace(std::string(*req.session), Pin{target, {}});
    it->second.pos = lru_.insert(lru_.end(), it->first);
    return target;
  }
  const char* name() const override {
    return route_policy_name(RoutePolicy::kStickySession);
  }
  std::optional<std::size_t> pinned(std::string_view session) const override {
    if (auto it = pins_.find(session); it != pins_.end()) {
      return it->second.replica;
    }
    return std::nullopt;
  }

 private:
  struct Pin {
    std::size_t replica;
    std::list<std::string_view>::iterator pos;  // position in lru_
  };
  struct StringHash {
    using is_transparent = void;
    std::size_t operator()(std::string_view s) const {
      return std::hash<std::string_view>{}(s);
    }
  };
  // Keys are node-stable, so the LRU list can view them without copies.
  std::unordered_map<std::string, Pin, StringHash, std::equal_to<>> pins_;
  std::list<std::string_view> lru_;  // front = least recently routed
};

}  // namespace

std::optional<RoutePolicy> parse_route_policy(std::string_view name) {
  if (name == "rr" || name == "round-robin") return RoutePolicy::kRoundRobin;
  if (name == "lor" || name == "least-outstanding-requests") {
    return RoutePolicy::kLeastOutstandingRequests;
  }
  if (name == "lot" || name == "least-outstanding-tokens" || name == "jsq") {
    return RoutePolicy::kLeastOutstandingTokens;
  }
  if (name == "sticky" || name == "sticky-session") {
    return RoutePolicy::kStickySession;
  }
  return std::nullopt;
}

std::unique_ptr<Router> make_router(RoutePolicy policy) {
  switch (policy) {
    case RoutePolicy::kRoundRobin:
      return std::make_unique<RoundRobinRouter>();
    case RoutePolicy::kLeastOutstandingRequests:
      return std::make_unique<LeastOutstandingRequestsRouter>();
    case RoutePolicy::kLeastOutstandingTokens:
      return std::make_unique<LeastOutstandingTokensRouter>();
    case RoutePolicy::kStickySession:
      return std::make_unique<StickySessionRouter>();
  }
  return std::make_unique<RoundRobinRouter>();  // unreachable
}

}  // namespace bt::serving
