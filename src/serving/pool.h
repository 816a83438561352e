// Replicated serving: a Router in front of N replica AsyncEngines sharing
// one physical copy of the model weights.
//
// One AsyncEngine saturates at one scheduler thread in front of one Engine
// Device. EnginePool is the next rung for heavy online traffic
// (TurboTransformers-style serving, ROADMAP "multi-model sharding"): it owns
// N replicas — each with its own Device whose workers partition the
// machine's cores (threads_per_replica) — and routes every submitted request
// to one of them by outstanding tokens, pinning sessions under
// RoutePolicy::kStickySession (router.h). The submit() surface is identical
// to AsyncEngine, so call sites migrate by swapping the type:
//
//   serving::EnginePoolOptions opts;
//   opts.replicas = 4;
//   opts.route = serving::RoutePolicy::kLeastOutstandingTokens;
//   serving::EnginePool pool(model, opts);         // model: shared_ptr
//   auto fut = pool.submit(std::move(hidden));     // any thread
//   pool.stop();                                   // drains all replicas
//
// Weight sharing
//   Every replica's inner BertModel aliases the same
//   shared_ptr<const ModelWeights> — one copy of the FP16 weights AND the
//   pre-packed GEMM panels (PackedPanels), packed once at model
//   construction, never per-replica. Replicating a bert-base costs N
//   scheduler threads and N workspaces, not N weight copies.
//
// Request ids
//   The pool assigns every id from one pool-level counter and hands it down
//   to the chosen replica, so ids are unique across replicas and increase
//   in submission order. A declined try_submit burns one.
//
// Deadlines
//   Request::deadline passes through to the target replica, whose batching
//   window pops earliest-deadline-first and closes early on a near
//   deadline (see async_engine.h).
//
// Threading
//   submit()/try_submit() are thread-safe. Each request is routed and
//   handed off under one pool lock hold: the hand-off is the replica's
//   non-blocking enqueue, so every pick sees the true queue depths and the
//   pins left by every earlier one, and a request is charged to the
//   routing accounting only once its replica accepted it. A submit() whose
//   pick is full waits for room there outside the pool lock, then routes
//   again — it never stalls routing to the others.
//
// Replica health and circuit breaking
//   At routing time the pool polls every replica's ReplicaHealth
//   (async_engine.h). A replica whose consecutive_failures reaches
//   CircuitBreakerOptions::failure_threshold is quarantined: the router
//   sees it unavailable, and sticky pins on it migrate. After
//   quarantine_seconds it turns half-open — the next routed request
//   becomes the single probe while everyone else still avoids the replica;
//   a completed probe re-admits it, a failed probe re-quarantines it. If
//   every replica is unavailable the flags are ignored (routing somewhere
//   beats dropping). docs/ROBUSTNESS.md draws the full state machine.
#pragma once

#include <chrono>
#include <cstddef>
#include <future>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/annotations.h"
#include "common/mutex.h"
#include "obs/fields.h"
#include "serving/async_engine.h"
#include "serving/router.h"

namespace bt::obs {
class Hll;  // obs/hll.h — per-model unique-session cardinality
}

namespace bt::serving {

// Per-replica circuit breaker knobs (see "Replica health and circuit
// breaking" above); the breaker is always on. quarantine_seconds doubles
// as the probe patience: a half-open probe that neither completes nor
// fails within it (e.g. it was shed) releases the probe slot so the next
// routed request probes again.
struct CircuitBreakerOptions {
  int failure_threshold = 3;       // consecutive failures that trip it
  double quarantine_seconds = 1.0; // cooldown before the half-open probe
};

struct EnginePoolOptions {
  AsyncEngineOptions engine;  // applied to every replica
  int replicas = 1;
  RoutePolicy route = RoutePolicy::kLeastOutstandingTokens;
  CircuitBreakerOptions breaker;
  // Device workers per replica. 0 = partition the machine: if
  // engine.engine.threads is set, use that, else hardware_concurrency() /
  // replicas (min 1) — so replicas split the cores instead of
  // oversubscribing a shared global pool.
  int threads_per_replica = 0;
};

class EnginePool {
 public:
  // Validates opts (replicas >= 1, threads_per_replica >= 0; per-replica
  // options are validated by each AsyncEngine) and starts the replicas.
  EnginePool(std::shared_ptr<const core::BertModel> model,
             EnginePoolOptions opts);
  EnginePool(core::BertModel model, EnginePoolOptions opts);
  ~EnginePool();  // stop()

  EnginePool(const EnginePool&) = delete;
  EnginePool& operator=(const EnginePool&) = delete;

  // Routes the request to a replica and returns its future. While the
  // chosen replica's queue is full it waits for room there, then routes
  // again. Throws std::invalid_argument on a malformed tensor,
  // std::runtime_error after stop().
  std::future<Response> submit(Request req) BT_EXCLUDES(mutex_);
  std::future<Response> submit(Tensor<fp16_t> hidden) BT_EXCLUDES(mutex_);

  // Non-blocking variant: routes, then asks the chosen replica; returns
  // std::nullopt when that replica's queue is full or the pool is stopped.
  // It does not shop around — a declined request re-enters routing on the
  // caller's retry, when the loads have moved.
  std::optional<std::future<Response>> try_submit(Request req)
      BT_EXCLUDES(mutex_);

  // Stops every replica (each drains: all accepted futures resolve), in
  // replica order. Idempotent.
  void stop() BT_EXCLUDES(mutex_);

  bool stopped() const BT_EXCLUDES(mutex_);

  std::size_t replicas() const { return engines_.size(); }
  std::size_t pending() const;        // across replicas
  long long pending_tokens() const;   // across replicas

  // Aggregated accounting across replicas.
  EngineStats stats() const;

  // Per-replica view for utilization reporting.
  struct ReplicaStats {
    EngineStats engine;               // replica's cumulative accounting
    long long routed_requests = 0;    // requests this replica was assigned
    long long routed_tokens = 0;      // their valid rows
    std::size_t peak_outstanding = 0; // max outstanding seen at routing time
  };
  std::vector<ReplicaStats> replica_stats() const BT_EXCLUDES(mutex_);

  // Sticky-session routing accounting: how many accepted requests carried a
  // session id, and how many of those landed on an already-pinned replica
  // (always 0 under non-sticky policies, which never pin).
  struct SessionRouteStats {
    long long session_requests = 0;
    long long sticky_hits = 0;

    static constexpr std::tuple kFields{
        obs::Field{"session_requests", &SessionRouteStats::session_requests},
        obs::Field{"sticky_hits", &SessionRouteStats::sticky_hits},
    };
  };
  SessionRouteStats session_route_stats() const BT_EXCLUDES(mutex_);

  // The replica `session` is pinned to under RoutePolicy::kStickySession
  // (std::nullopt for unseen sessions or non-pinning policies).
  std::optional<std::size_t> pinned_replica(std::string_view session) const
      BT_EXCLUDES(mutex_);

  // Circuit-breaker accounting. Observing it advances the per-replica
  // state machines first (same refresh routing performs), so a probe that
  // completed after the last submission is still credited as a
  // readmission.
  struct BreakerStats {
    long long quarantines = 0;   // kHealthy/kHalfOpen -> kQuarantined trips
    long long probes = 0;        // requests routed as half-open probes
    long long readmissions = 0;  // kHalfOpen -> kHealthy recoveries

    static constexpr std::tuple kFields{
        obs::Field{"breaker_quarantines", &BreakerStats::quarantines},
        obs::Field{"breaker_probes", &BreakerStats::probes},
        obs::Field{"breaker_readmissions", &BreakerStats::readmissions},
    };
  };
  BreakerStats breaker_stats() const BT_EXCLUDES(mutex_);

  // HyperLogLog estimate of distinct session ids routed through this pool
  // (4 KiB of state; ~1.6% standard error — obs/hll.h).
  double unique_sessions() const;

  // One replica's health counters (forwarded from AsyncEngine::health).
  ReplicaHealth replica_health(std::size_t i) const {
    return engines_[i]->health();
  }

  const core::BertModel& model() const { return engines_.front()->model(); }
  // Read-only view of one replica (observability + the shared-weights
  // identity tests; all replicas' models alias one ModelWeights).
  const AsyncEngine& replica(std::size_t i) const { return *engines_[i]; }
  const EnginePoolOptions& options() const { return opts_; }
  int hidden() const { return engines_.front()->hidden(); }

 private:
  friend class Service;  // hands down the id it assigned

  using Clock = std::chrono::steady_clock;

  // The entry point behind the public ones: `id` is the owning tier's id,
  // or std::nullopt to take the next value of next_id_ under the pool lock.
  // With `wait` a full pick is waited out and a stopped pool throws;
  // without it both return false. `reply` runs exactly once if this
  // returns true, never otherwise.
  bool submit(Request req, Reply reply, std::optional<RequestId> id,
              bool wait) BT_EXCLUDES(mutex_);

  struct RouteDecision {
    std::size_t target = 0;
    std::size_t seen_outstanding = 0;  // the load the router observed
    bool sessioned = false;            // request carried a session id
    bool sticky_hit = false;           // an existing pin decided the target
    bool probe = false;                // it would be the half-open probe
    ReplicaHealth baseline;            // the target's health at the pick
  };

  // One replica's breaker state. Probe outcome is judged from the health
  // counters relative to the baselines recorded when the probe was routed:
  // any completion during half-open is evidence of recovery, any failure
  // is evidence it is still broken.
  struct Breaker {
    enum class State { kHealthy, kQuarantined, kHalfOpen };
    State state = State::kHealthy;
    Clock::time_point since{};      // entered current state (probe launch
                                    // time while a probe is in flight)
    bool probe_in_flight = false;
    long long probe_completed = 0;  // health baselines at probe launch
    long long probe_failed = 0;
  };

  // Advances every breaker state machine from the replicas' current health
  // counters. Called at routing time and from breaker_stats(); const
  // because observation legitimately advances the (mutable, locked)
  // machines.
  void refresh_breakers_locked() const BT_REQUIRES(mutex_);
  bool replica_available_locked(std::size_t i) const BT_REQUIRES(mutex_);
  // Picks a replica from the replicas' own queue depths; charges nothing.
  RouteDecision route_locked(const Request& req) BT_REQUIRES(mutex_);
  // Charges a request its replica accepted to the routing accounting:
  // requests/tokens, session counters, the queue-depth high-water mark,
  // and the probe slot when it is the half-open probe.
  void charge_locked(const RouteDecision& d, long long tokens)
      BT_REQUIRES(mutex_);

  EnginePoolOptions opts_;
  std::vector<std::unique_ptr<AsyncEngine>> engines_;

  // Router state, id counter, routing accounting. Held across each
  // hand-off, which is the replica's non-blocking enqueue (replica locks
  // order strictly after the pool's); never held across a wait for room.
  mutable Mutex mutex_;
  Router router_ BT_GUARDED_BY(mutex_);
  RequestId next_id_ BT_GUARDED_BY(mutex_) = 0;
  struct Routed {
    long long requests = 0;
    long long tokens = 0;
    std::size_t peak_outstanding = 0;
  };
  std::vector<Routed> routed_ BT_GUARDED_BY(mutex_);
  SessionRouteStats sessions_ BT_GUARDED_BY(mutex_);
  // mutable: refreshed by const observers (see refresh_breakers_locked).
  mutable std::vector<Breaker> breakers_ BT_GUARDED_BY(mutex_);
  mutable BreakerStats breaker_stats_ BT_GUARDED_BY(mutex_);
  // Registry-owned HLL ("serving.sessions.unique.<model>"); adds are
  // lock-free, so no guard beyond the registry's own lifetime guarantee.
  obs::Hll* sessions_hll_ = nullptr;
  bool stop_ BT_GUARDED_BY(mutex_) = false;
};

}  // namespace bt::serving
