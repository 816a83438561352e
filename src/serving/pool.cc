#include "serving/pool.h"

#include <algorithm>
#include <stdexcept>
#include <thread>
#include <utility>

#include "cache/prefix_cache.h"
#include "obs/hll.h"
#include "obs/metrics.h"

namespace bt::serving {

namespace {

// Replica Device sizing: explicit knob wins, then an explicit per-engine
// thread count, else partition the machine's cores across replicas so N
// replicas run side by side instead of oversubscribing one shared pool.
int resolve_threads_per_replica(const EnginePoolOptions& opts) {
  if (opts.threads_per_replica > 0) return opts.threads_per_replica;
  if (opts.engine.engine.threads > 0) return opts.engine.engine.threads;
  const unsigned hw = std::thread::hardware_concurrency();
  const unsigned per =
      hw / static_cast<unsigned>(opts.replicas > 0 ? opts.replicas : 1);
  return per > 0 ? static_cast<int>(per) : 1;
}

}  // namespace

EnginePool::EnginePool(std::shared_ptr<const core::BertModel> model,
                       EnginePoolOptions opts)
    : opts_(opts) {
  if (model == nullptr) {
    throw std::invalid_argument("EnginePool: model must not be null");
  }
  if (opts_.replicas < 1) {
    throw std::invalid_argument("EnginePoolOptions: replicas must be >= 1");
  }
  if (opts_.threads_per_replica < 0) {
    throw std::invalid_argument(
        "EnginePoolOptions: threads_per_replica must be >= 0");
  }
  if (opts_.breaker.failure_threshold < 1) {
    throw std::invalid_argument(
        "CircuitBreakerOptions: failure_threshold must be >= 1");
  }
  if (!(opts_.breaker.quarantine_seconds >= 0.0)) {
    throw std::invalid_argument(
        "CircuitBreakerOptions: quarantine_seconds must be >= 0");
  }
  AsyncEngineOptions replica_opts = opts_.engine;
  replica_opts.engine.threads = resolve_threads_per_replica(opts_);
  replica_opts.model_name = opts_.model_name;
  if (opts_.route == RoutePolicy::kStickySession &&
      replica_opts.engine.session_workspaces < 0) {
    // Sticky routing exists to land sessions on warm workspaces; give the
    // replicas the cache unless the caller sized it explicitly (0 = a
    // deliberate off, which stays off).
    replica_opts.engine.session_workspaces = kStickySessionWorkspaces;
  }
  // Per-model unique-session cardinality. Bare pools share one "default"
  // estimator; Service-owned pools get their registry name.
  sessions_hll_ = &obs::MetricRegistry::global().hll_prefixed(
      "serving.sessions.unique",
      opts_.model_name.empty() ? "default" : opts_.model_name);
  router_ = make_router(opts_.route);
  routed_.resize(static_cast<std::size_t>(opts_.replicas));
  breakers_.resize(static_cast<std::size_t>(opts_.replicas));
  engines_.reserve(static_cast<std::size_t>(opts_.replicas));
  for (int i = 0; i < opts_.replicas; ++i) {
    // Every replica aliases the same BertModel (and so the same
    // ModelWeights + PackedPanels storage): replication costs scheduler
    // threads and workspaces, not weight copies.
    replica_opts.replica_index = i;
    engines_.push_back(std::make_unique<AsyncEngine>(model, replica_opts));
  }
}

EnginePool::EnginePool(core::BertModel model, EnginePoolOptions opts)
    : EnginePool(std::make_shared<const core::BertModel>(std::move(model)),
                 opts) {}

EnginePool::~EnginePool() { stop(); }

void EnginePool::refresh_breakers_locked() const {
  if (!opts_.breaker.enabled) return;
  const auto now = Clock::now();
  const auto cooldown = std::chrono::duration<double>(
      opts_.breaker.quarantine_seconds);
  for (std::size_t i = 0; i < engines_.size(); ++i) {
    Breaker& b = breakers_[i];
    const ReplicaHealth h = engines_[i]->health();
    switch (b.state) {
      case Breaker::State::kHealthy:
        if (h.consecutive_failures >=
            static_cast<long long>(opts_.breaker.failure_threshold)) {
          b.state = Breaker::State::kQuarantined;
          b.since = now;
          breaker_stats_.quarantines += 1;
        }
        break;
      case Breaker::State::kQuarantined:
        if (now - b.since >= cooldown) {
          b.state = Breaker::State::kHalfOpen;
          b.since = now;
          b.probe_in_flight = false;
        }
        break;
      case Breaker::State::kHalfOpen:
        if (!b.probe_in_flight) break;
        if (h.completed > b.probe_completed) {
          // Something completed since the probe launched — the replica
          // computes again. Re-admit.
          b.state = Breaker::State::kHealthy;
          b.since = now;
          b.probe_in_flight = false;
          breaker_stats_.readmissions += 1;
        } else if (h.failed > b.probe_failed) {
          b.state = Breaker::State::kQuarantined;
          b.since = now;
          b.probe_in_flight = false;
          breaker_stats_.quarantines += 1;
        } else if (now - b.since >= cooldown) {
          // Probe neither completed nor failed within the patience window
          // (shed, or stuck behind a long round): release the slot so the
          // next routed request probes again.
          b.probe_in_flight = false;
        }
        break;
    }
  }
}

bool EnginePool::replica_available_locked(std::size_t i) const {
  if (engines_[i]->stopped()) return false;
  if (!opts_.breaker.enabled) return true;
  const Breaker& b = breakers_[i];
  switch (b.state) {
    case Breaker::State::kHealthy: return true;
    case Breaker::State::kQuarantined: return false;
    case Breaker::State::kHalfOpen: return !b.probe_in_flight;
  }
  return true;
}

EnginePool::RouteDecision EnginePool::route_and_account(const Request& req) {
  refresh_breakers_locked();
  std::vector<ReplicaLoad> loads(engines_.size());
  bool any_available = false;
  for (std::size_t i = 0; i < engines_.size(); ++i) {
    // Replica-visible load plus the pool's in-transit share, so requests
    // routed by other submitters but still between the pool lock and the
    // replica queue count against their destination.
    loads[i].outstanding_requests =
        engines_[i]->pending() +
        static_cast<std::size_t>(routed_[i].in_transit_requests);
    loads[i].outstanding_tokens =
        engines_[i]->pending_tokens() + routed_[i].in_transit_tokens;
    loads[i].available = replica_available_locked(i);
    any_available = any_available || loads[i].available;
  }
  if (!any_available) {
    // Every replica quarantined (or probing): routing somewhere beats
    // dropping, and the routers' own fallbacks must see consistent flags.
    for (auto& load : loads) load.available = true;
  }
  RouteRequest route_req(req.hidden.dim(0));
  RouteDecision decision;
  if (req.session.has_value()) {
    route_req.session = *req.session;
    decision.sessioned = true;
    // Lock-free CAS-max on 4 KiB of registers — cheap enough to sit on the
    // routing path. Deliberately not undone by undo_route: the session was
    // seen, whether or not this particular submit landed.
    if (obs::enabled()) sessions_hll_->add(*req.session);
  }
  // sticky_hit: an existing pin decided the pick (reported by the router so
  // the hot path pays exactly one pin lookup).
  decision.target = router_->pick(loads, route_req, &decision.sticky_hit);
  if (decision.sessioned && opts_.engine.engine.prefix_cache != nullptr) {
    // Tell the prefix cache where this session landed. When the pin MOVED
    // (breaker quarantine re-routed the session) the cache drops the
    // session's entry — state built on a quarantined replica is not
    // trusted. Pool mutex -> cache mutex only; engines take the cache
    // mutex bare, so the order cannot cycle.
    opts_.engine.engine.prefix_cache->note_route(
        cache::PrefixCache::session_key(opts_.model_name, *req.session),
        decision.target);
  }
  decision.seen_outstanding = loads[decision.target].outstanding_requests;
  if (opts_.breaker.enabled) {
    Breaker& b = breakers_[decision.target];
    if (b.state == Breaker::State::kHalfOpen && !b.probe_in_flight) {
      // This request is the half-open probe; the replica stays unavailable
      // to everyone else until its outcome shows in the health counters.
      const ReplicaHealth h = engines_[decision.target]->health();
      b.probe_in_flight = true;
      b.since = Clock::now();
      b.probe_completed = h.completed;
      b.probe_failed = h.failed;
      decision.probe = true;
      breaker_stats_.probes += 1;
    }
  }
  Routed& acct = routed_[decision.target];
  acct.requests += 1;
  acct.tokens += req.hidden.dim(0);
  acct.in_transit_requests += 1;
  acct.in_transit_tokens += req.hidden.dim(0);
  sessions_.session_requests += decision.sessioned ? 1 : 0;
  sessions_.sticky_hits += decision.sticky_hit ? 1 : 0;
  return decision;
}

void EnginePool::settle_hand_off_locked(const RouteDecision& d,
                                        long long tokens) {
  Routed& acct = routed_[d.target];
  acct.in_transit_requests -= 1;
  acct.in_transit_tokens -= tokens;
  // Queue depth high-water from the router's vantage — recorded only for
  // requests that actually landed: the load it saw plus the one it placed.
  acct.peak_outstanding =
      std::max(acct.peak_outstanding, d.seen_outstanding + 1);
}

void EnginePool::finish_hand_off(const RouteDecision& d, long long tokens) {
  MutexLock lock(mutex_);
  settle_hand_off_locked(d, tokens);
}

void EnginePool::undo_route(const RouteDecision& d, long long tokens) {
  // Caller holds mutex_ (try_submit) — a declined or failed hand-off leaves
  // no trace in the routing accounting. (A sticky pin created by the
  // declined pick survives: re-routing the retry to the same replica is
  // exactly what stickiness means.)
  Routed& acct = routed_[d.target];
  acct.requests -= 1;
  acct.tokens -= tokens;
  acct.in_transit_requests -= 1;
  acct.in_transit_tokens -= tokens;
  sessions_.session_requests -= d.sessioned ? 1 : 0;
  sessions_.sticky_hits -= d.sticky_hit ? 1 : 0;
  if (d.probe) {
    // The probe never reached the replica (declined queue / submit threw):
    // release the slot so the next routed request probes instead — without
    // this, half-open would wait out the whole patience window.
    Breaker& b = breakers_[d.target];
    b.probe_in_flight = false;
    breaker_stats_.probes -= 1;
  }
}

std::future<Response> EnginePool::submit(Request req) {
  RouteDecision decision;
  const long long tokens = req.hidden.dim(0);
  {
    MutexLock lock(mutex_);
    if (stop_) {
      throw ShutdownError("EnginePool::submit: pool is stopped");
    }
    // Pool-level id assignment keeps ids unique across replicas; each
    // replica then sees a fresh caller-supplied id it cannot collide on.
    req.id = validate_and_reserve_id("EnginePool::submit", req.hidden,
                                     hidden(), req.id, ids_);
    decision = route_and_account(req);
  }
  // Hand off outside the pool lock: a full replica queue blocks this
  // submitter without stalling routing for everyone else (the in-transit
  // charge keeps the router honest meanwhile). A stop() racing this
  // hand-off surfaces as the replica's stopped error.
  try {
    auto fut = engines_[decision.target]->submit(std::move(req));
    finish_hand_off(decision, tokens);
    return fut;
  } catch (...) {
    MutexLock lock(mutex_);
    undo_route(decision, tokens);
    throw;
  }
}

std::future<Response> EnginePool::submit(Tensor<fp16_t> hidden) {
  return submit(Request{-1, std::move(hidden), std::nullopt});
}

std::optional<std::future<Response>> EnginePool::try_submit(Request req) {
  MutexLock lock(mutex_);
  // Same contract as AsyncEngine::try_submit: programming errors throw even
  // when the request would be declined.
  validate_request("EnginePool::try_submit", req.hidden, hidden(), req.id,
                   ids_);
  if (stop_) return std::nullopt;
  const long long tokens = req.hidden.dim(0);
  // Reserve only on acceptance, so a declined caller-supplied id can be
  // resubmitted. Two-phase is safe because the pool lock is held across
  // peek + replica hand-off + mark. (The replica call is non-blocking; its
  // lock is always taken after the pool's, never the reverse.)
  const RequestId id = req.id >= 0 ? req.id : ids_.next();
  if (id == std::numeric_limits<RequestId>::max()) {
    // Mirrors RequestIdTracker::reserve: marking the maximum id would
    // overflow the watermark.
    throw std::invalid_argument("EnginePool: request id space exhausted");
  }
  const RouteDecision decision = route_and_account(req);
  req.id = id;
  auto fut = engines_[decision.target]->try_submit(std::move(req));
  if (fut.has_value()) {
    ids_.mark(id);
    settle_hand_off_locked(decision, tokens);
  } else {
    undo_route(decision, tokens);
  }
  return fut;
}

void EnginePool::stop() {
  {
    MutexLock lock(mutex_);
    stop_ = true;
  }
  // Outside the pool lock: each replica's stop() drains and joins, and
  // observers (pending/stats) must stay callable meanwhile.
  for (auto& engine : engines_) engine->stop();
}

bool EnginePool::stopped() const {
  MutexLock lock(mutex_);
  return stop_;
}

std::size_t EnginePool::pending() const {
  std::size_t total = 0;
  for (const auto& engine : engines_) total += engine->pending();
  return total;
}

long long EnginePool::pending_tokens() const {
  long long total = 0;
  for (const auto& engine : engines_) total += engine->pending_tokens();
  return total;
}

EngineStats EnginePool::stats() const {
  EngineStats total;
  for (const auto& engine : engines_) obs::merge_fields(total, engine->stats());
  return total;
}

EnginePool::SessionRouteStats EnginePool::session_route_stats() const {
  MutexLock lock(mutex_);
  return sessions_;
}

EnginePool::BreakerStats EnginePool::breaker_stats() const {
  MutexLock lock(mutex_);
  refresh_breakers_locked();
  return breaker_stats_;
}

double EnginePool::unique_sessions() const { return sessions_hll_->estimate(); }

std::optional<std::size_t> EnginePool::pinned_replica(
    std::string_view session) const {
  MutexLock lock(mutex_);
  return router_->pinned(session);
}

std::vector<EnginePool::ReplicaStats> EnginePool::replica_stats() const {
  std::vector<ReplicaStats> out(engines_.size());
  MutexLock lock(mutex_);
  for (std::size_t i = 0; i < engines_.size(); ++i) {
    out[i].engine = engines_[i]->stats();
    out[i].routed_requests = routed_[i].requests;
    out[i].routed_tokens = routed_[i].tokens;
    out[i].peak_outstanding = routed_[i].peak_outstanding;
  }
  return out;
}

}  // namespace bt::serving
