// Request routing across engine replicas — the policy layer of EnginePool.
//
// A Router decides which replica AsyncEngine receives each submitted
// request, given a live load snapshot of every replica and the request's
// optional session key. It routes to the available replica with the fewest
// outstanding valid tokens, the right load metric here because
// variable-length inputs make per-request cost wildly non-uniform (the
// paper's whole premise), so two queued requests can differ by 100x in
// compute. Ties go to the lowest replica index, making single-threaded
// submission sequences fully reproducible. The policy decides one thing,
// session pins:
//
//   kLeastOutstandingTokens — every request routes by load; nothing pins.
//   kStickySession          — conversational traffic: the first request of
//                             a session routes by load and pins the session
//                             to that replica; every follow-up goes to the
//                             pin, and a prefix-cache entry is trusted only
//                             while its session's pin holds (a moved pin
//                             drops it: PrefixCache::note_route).
//                             Sessionless requests route by load and never
//                             pin. Pins are a bounded LRU (kStickyMaxPins):
//                             a session idle long enough to be evicted
//                             simply re-pins by load on its next request,
//                             so memory tracks recently active sessions,
//                             not every session ever seen.
#pragma once

#include <cstddef>
#include <functional>
#include <list>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>

namespace bt::serving {

enum class RoutePolicy {
  kLeastOutstandingTokens,
  kStickySession,
};

constexpr const char* route_policy_name(RoutePolicy p) {
  switch (p) {
    case RoutePolicy::kLeastOutstandingTokens: return "lot";
    case RoutePolicy::kStickySession: return "sticky";
  }
  return "?";
}

// Load snapshot of one replica at routing time.
struct ReplicaLoad {
  std::size_t outstanding_requests = 0;  // accepted, future not yet resolved
  long long outstanding_tokens = 0;      // their total valid rows
  // Cleared by EnginePool's circuit breaker for quarantined replicas (and
  // half-open replicas with a probe already in flight). The router skips
  // unavailable replicas; a sticky pin on one migrates. At least one
  // replica is always available: when the breaker has marked every one
  // unavailable, EnginePool re-marks all available before calling pick
  // (routing somewhere beats dropping).
  bool available = true;
};

// Sticky pin capacity per router (i.e. per EnginePool). Beyond it the
// least-recently-routed session's pin is evicted — that session re-pins by
// load on its next request.
inline constexpr std::size_t kStickyMaxPins = 1 << 16;

// pick() is a deterministic function of (pins, arguments) — no clocks, no
// randomness — so seeded traffic replays to identical assignments. Not
// thread-safe; EnginePool serializes calls under its lock — a contract the
// thread-safety build checks, not just documents: the pool's router_
// member is BT_GUARDED_BY its mutex (pool.h), so any call path that reaches
// it without that lock fails clang -Wthread-safety.
class Router {
 public:
  explicit Router(RoutePolicy policy) : policy_(policy) {}

  // Returns the target replica index for a request of `session`
  // (std::nullopt = sessionless); `replicas` is non-empty and at least one
  // is available. When `pinned_hit` is non-null, it is set to whether an
  // existing session pin decided the pick — reported here so the caller
  // doesn't pay a second pin lookup on the routing hot path.
  std::size_t pick(std::span<const ReplicaLoad> replicas,
                   std::optional<std::string_view> session,
                   bool* pinned_hit = nullptr);

  // The replica a session is pinned to (std::nullopt for unseen sessions
  // and under kLeastOutstandingTokens). EnginePool exposes it
  // (pinned_replica) for observability and the sticky-session tests.
  std::optional<std::size_t> pinned(std::string_view session) const;

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

  RoutePolicy policy_;
  // Lookups are heterogeneous (string_view keyed) so the hot path allocates
  // only when creating a pin. Keys are node-stable, so the LRU list can
  // view them without copies.
  std::unordered_map<std::string, Pin, StringHash, std::equal_to<>> pins_;
  std::list<std::string_view> lru_;  // front = least recently routed
};

}  // namespace bt::serving
