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
    : opts_(opts), router_(opts.route) {
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
  const std::string& model_name = opts_.engine.engine.model_name;
  // Per-model unique-session cardinality. Bare pools share one "default"
  // estimator; Service-owned pools get their registry name.
  sessions_hll_ = &obs::MetricRegistry::global().hll_prefixed(
      "serving.sessions.unique", model_name.empty() ? "default" : model_name);
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
  const Breaker& b = breakers_[i];
  switch (b.state) {
    case Breaker::State::kHealthy: return true;
    case Breaker::State::kQuarantined: return false;
    case Breaker::State::kHalfOpen: return !b.probe_in_flight;
  }
  return true;
}

EnginePool::RouteDecision EnginePool::route_locked(const Request& req) {
  refresh_breakers_locked();
  std::vector<ReplicaLoad> loads(engines_.size());
  bool any_available = false;
  for (std::size_t i = 0; i < engines_.size(); ++i) {
    // Every accepted request sits in its replica's queue (or in flight
    // there), so the replicas' own counts are the whole load.
    loads[i].outstanding_requests = engines_[i]->pending();
    loads[i].outstanding_tokens = engines_[i]->pending_tokens();
    loads[i].available = replica_available_locked(i);
    any_available = any_available || loads[i].available;
  }
  if (!any_available) {
    // Every replica quarantined (or probing): routing somewhere beats
    // dropping. This is the only fallback: Router::pick relies on it.
    for (auto& load : loads) load.available = true;
  }
  RouteDecision decision;
  if (req.session.has_value()) {
    decision.sessioned = true;
    // Lock-free CAS-max on 4 KiB of registers — cheap enough to sit on the
    // routing path. Counted whether or not the replica accepts: the session
    // was seen either way.
    if (obs::enabled()) sessions_hll_->add(*req.session);
  }
  // sticky_hit: an existing pin decided the pick (reported by the router so
  // the hot path pays exactly one pin lookup). A pin the pick creates
  // survives a decline: re-routing the retry to the same replica is
  // exactly what stickiness means.
  decision.target = router_.pick(loads, req.session, &decision.sticky_hit);
  if (decision.sessioned && opts_.engine.engine.prefix_cache != nullptr) {
    // Tell the prefix cache where this session landed, before the replica
    // can probe it. When the pin MOVED (breaker quarantine re-routed the
    // session) the cache drops the session's entry — state built on a
    // quarantined replica is not trusted. Pool mutex -> cache mutex only;
    // engines take the cache mutex bare, so the order cannot cycle.
    opts_.engine.engine.prefix_cache->note_route(
        cache::PrefixCache::session_key(opts_.engine.engine.model_name,
                                        *req.session),
        decision.target);
  }
  decision.seen_outstanding = loads[decision.target].outstanding_requests;
  const Breaker& b = breakers_[decision.target];
  if (b.state == Breaker::State::kHalfOpen && !b.probe_in_flight) {
    decision.probe = true;
    decision.baseline = engines_[decision.target]->health();
  }
  return decision;
}

void EnginePool::charge_locked(const RouteDecision& d, long long tokens) {
  Routed& acct = routed_[d.target];
  acct.requests += 1;
  acct.tokens += tokens;
  // Queue depth high-water from the router's vantage: the load it saw plus
  // the one it placed.
  acct.peak_outstanding =
      std::max(acct.peak_outstanding, d.seen_outstanding + 1);
  sessions_.session_requests += d.sessioned ? 1 : 0;
  sessions_.sticky_hits += d.sticky_hit ? 1 : 0;
  if (d.probe) {
    // This request is the half-open probe; the replica stays unavailable
    // to everyone else until its outcome shows in the health counters,
    // judged against the baseline taken when it was picked.
    Breaker& b = breakers_[d.target];
    b.probe_in_flight = true;
    b.since = Clock::now();
    b.probe_completed = d.baseline.completed;
    b.probe_failed = d.baseline.failed;
    breaker_stats_.probes += 1;
  }
}

std::future<Response> EnginePool::submit(Request req) {
  FutureReply r = future_reply();
  submit(std::move(req), std::move(r.reply), std::nullopt, /*wait=*/true);
  return std::move(r.future);
}

std::future<Response> EnginePool::submit(Tensor<fp16_t> hidden) {
  return submit(Request{std::move(hidden)});
}

std::optional<std::future<Response>> EnginePool::try_submit(Request req) {
  FutureReply r = future_reply();
  if (!submit(std::move(req), std::move(r.reply), std::nullopt,
              /*wait=*/false)) {
    return std::nullopt;
  }
  return std::move(r.future);
}

bool EnginePool::submit(Request req, Reply reply,
                        std::optional<RequestId> id, bool wait) {
  // Same contract as AsyncEngine: programming errors throw even when the
  // request would be declined.
  validate_request_shape(
      wait ? "EnginePool::submit" : "EnginePool::try_submit", req.hidden,
      hidden());
  const long long tokens = req.hidden.dim(0);
  MutexLock lock(mutex_);
  if (!id.has_value()) id = next_id_++;
  while (!stop_) {
    // Route and hand off under one lock hold: the replica's enqueue never
    // blocks, and its lock is always taken after the pool's, never the
    // reverse. A decline does not shop around; it charges nothing.
    const RouteDecision decision = route_locked(req);
    AsyncEngine& replica = *engines_[decision.target];
    if (replica.submit(req, reply, id)) {
      charge_locked(decision, tokens);
      return true;
    }
    if (!wait) return false;
    // The pick is full: wait for room there outside the pool lock, so
    // routing to every other replica goes on, then route again (the loads
    // have moved meanwhile). A stopped pick means the pool is stopping.
    lock.unlock();
    const bool open = replica.wait_for_space();
    lock.lock();
    if (!open) break;
  }
  if (wait) throw ShutdownError("EnginePool::submit: pool is stopped");
  return false;
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
  return router_.pinned(session);
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
