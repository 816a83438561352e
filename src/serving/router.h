// Request routing across engine replicas — the policy layer of EnginePool.
//
// A Router decides which replica AsyncEngine receives each submitted
// request, given a live load snapshot of every replica and the request's
// routing attributes (RouteRequest: token count plus an optional session
// key). Policies mirror the classic load-balancing ladder for replicated
// inference serving:
//
//   kRoundRobin                — cyclic assignment, load-blind. Determinate:
//                                replica = submission_index % replicas, so a
//                                seeded arrival trace replays to identical
//                                assignments.
//   kLeastOutstandingRequests  — join-shortest-queue on the number of
//                                accepted-but-unresolved requests.
//   kLeastOutstandingTokens    — join-shortest-queue on outstanding valid
//                                tokens; the right metric here because
//                                variable-length inputs make per-request
//                                cost wildly non-uniform (the paper's whole
//                                premise), so two queued requests can differ
//                                by 100x in compute.
//   kStickySession             — conversational traffic: the first request
//                                of a session routes least-outstanding-
//                                tokens and pins the session to that
//                                replica; every follow-up goes to the pin,
//                                and a prefix-cache entry is trusted only
//                                while its session's pin holds (a moved pin
//                                drops it: PrefixCache::note_route).
//                                Sessionless requests fall back to
//                                least-outstanding-tokens and never pin.
//                                Pins are a bounded LRU (kStickyMaxPins):
//                                a session idle long enough to be evicted
//                                simply re-pins by load on its next
//                                request, so memory tracks recently active
//                                sessions, not every session ever seen.
//
// All policies break ties toward the lowest replica index, making single-
// threaded submission sequences fully reproducible.
#pragma once

#include <cstddef>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>

namespace bt::serving {

enum class RoutePolicy {
  kRoundRobin,
  kLeastOutstandingRequests,
  kLeastOutstandingTokens,
  kStickySession,
};

constexpr const char* route_policy_name(RoutePolicy p) {
  switch (p) {
    case RoutePolicy::kRoundRobin: return "rr";
    case RoutePolicy::kLeastOutstandingRequests: return "lor";
    case RoutePolicy::kLeastOutstandingTokens: return "lot";
    case RoutePolicy::kStickySession: return "sticky";
  }
  return "?";
}

// Accepts the short names above plus the spelled-out aliases
// ("round-robin", "least-outstanding-requests", "least-outstanding-tokens",
// "sticky-session"); std::nullopt for anything else.
std::optional<RoutePolicy> parse_route_policy(std::string_view name);

// Load snapshot of one replica at routing time.
struct ReplicaLoad {
  std::size_t outstanding_requests = 0;  // accepted, future not yet resolved
  long long outstanding_tokens = 0;      // their total valid rows
  // Cleared by EnginePool's circuit breaker for quarantined replicas (and
  // half-open replicas with a probe already in flight). Routers skip
  // unavailable replicas; a sticky pin on one migrates. When EVERY replica
  // is unavailable the flag is ignored — routing somewhere beats dropping
  // (pool.cc re-marks all available before calling pick in that case).
  bool available = true;
};

// Routing attributes of one request. Implicitly constructible from a bare
// token count so load-only policies read naturally (`pick(loads, tokens)`).
struct RouteRequest {
  RouteRequest(long long tokens_ = 0,
               std::optional<std::string_view> session_ = std::nullopt)
      : tokens(tokens_), session(session_) {}

  long long tokens = 0;                     // valid rows of the request
  std::optional<std::string_view> session;  // sticky policies key on this
};

// Sticky pin capacity per router (i.e. per EnginePool). Beyond it the
// least-recently-routed session's pin is evicted — that session re-pins by
// load on its next request.
inline constexpr std::size_t kStickyMaxPins = 1 << 16;

// Pluggable routing strategy. pick() returns the target replica index for
// the given request; `replicas` is non-empty. When `pinned_hit` is
// non-null, it is set to whether an existing session pin decided the pick
// (always false for load-based policies and fresh sessions) — reported
// here so the caller doesn't pay a second pin lookup on the routing hot
// path. Implementations must be deterministic functions of (internal
// state, arguments) — no clocks, no randomness — so seeded traffic replays
// to identical assignments. Routers are not thread-safe; EnginePool
// serializes calls under its lock — a contract the thread-safety build
// checks, not just documents: the pool's router_ member is
// BT_GUARDED_BY/BT_PT_GUARDED_BY its mutex (pool.h), so any call path
// that reaches a Router without that lock fails clang -Wthread-safety.
class Router {
 public:
  virtual ~Router() = default;
  virtual std::size_t pick(std::span<const ReplicaLoad> replicas,
                           const RouteRequest& req,
                           bool* pinned_hit = nullptr) = 0;
  virtual const char* name() const = 0;

  // The replica a session is pinned to, if this policy pins sessions.
  // EnginePool exposes it (pinned_replica) for observability and the
  // sticky-session tests; load-based policies return std::nullopt.
  virtual std::optional<std::size_t> pinned(std::string_view /*session*/) const {
    return std::nullopt;
  }
};

std::unique_ptr<Router> make_router(RoutePolicy policy);

}  // namespace bt::serving
