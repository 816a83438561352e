#include "serving/service.h"

#include <limits>
#include <utility>

#include "cache/prefix_cache.h"
#include "obs/metrics.h"

namespace bt::serving {

namespace {

std::future<Response> resolved_error_future(std::exception_ptr error) {
  std::promise<Response> promise;
  promise.set_exception(std::move(error));
  return promise.get_future();
}

// Unknown-model rejections never reach an AsyncEngine (the request enters
// no pool), so the scheduler-side failure counters cannot see them; count
// them here at the only place they happen.
obs::Counter& unknown_model_counter() {
  static obs::Counter& c =
      obs::MetricRegistry::global().counter("serving.errors.unknown_model");
  return c;
}

}  // namespace

Service::Service(ModelRegistry registry, ServiceOptions opts)
    : registry_(std::move(registry)) {
  if (registry_.empty()) {
    throw std::invalid_argument(
        "Service: registry must contain at least one model");
  }
  default_model_ =
      opts.default_model.empty() ? registry_.names().front() : opts.default_model;
  if (!registry_.contains(default_model_)) {
    throw std::invalid_argument("Service: default_model \"" + default_model_ +
                                "\" is not a registered model");
  }
  pools_.reserve(registry_.size());
  for (const std::string& name : registry_.names()) {
    const ModelSpec& spec = registry_.spec(name);
    EnginePoolOptions pool_opts = spec.pool;
    // Response::model must report the registry key the request resolved to,
    // whatever label (usually none) the spec carried.
    pool_opts.model_name = name;
    if (opts.prefix_cache_bytes > 0 &&
        pool_opts.engine.engine.flags.causal &&
        pool_opts.engine.engine.flags.zero_padding &&
        spec.model->config().kind != core::ModelKind::kDeberta) {
      // One cache shared across every eligible model: cross-model byte
      // pressure lands on a single LRU, and entries are scoped by the
      // registry name (the replicas' cache_scope) so models stay isolated.
      if (prefix_cache_ == nullptr) {
        prefix_cache_ =
            std::make_shared<cache::PrefixCache>(opts.prefix_cache_bytes);
      }
      pool_opts.engine.engine.prefix_cache = prefix_cache_;
    }
    index_.emplace(name, pools_.size());
    pools_.push_back(std::make_unique<EnginePool>(spec.model, pool_opts));
  }
}

Service::~Service() { stop(); }

std::future<Response> Service::submit(Request req) {
  // Reference, not copy: the common sessionless/default-model submit must
  // not allocate on the dispatch path.
  const std::string& name =
      req.model.has_value() ? *req.model : default_model_;
  EnginePool* pool = nullptr;
  {
    MutexLock lock(mutex_);
    if (stop_) {
      throw ShutdownError("Service::submit: service is stopped");
    }
    // Model-independent programming errors (malformed tensor, duplicate id)
    // throw on the caller thread even when the model name is unknown —
    // otherwise a typo in the name would mask the real bug as a routing
    // error. Only the hidden-width check must wait for model resolution.
    validate_request_shape("Service::submit", req.hidden, /*hidden_dim=*/-1);
    validate_request_id("Service::submit", req.id, ids_);
    const auto it = index_.find(name);
    if (it == index_.end()) {
      // Routing error, not a programming error: resolve the future the
      // caller already awaits instead of throwing, and burn no request id
      // (the request never entered any pool).
      unknown_model_counter().inc();
      return resolved_error_future(std::make_exception_ptr(UnknownModelError(
          "Service::submit: unknown model \"" + name + "\"")));
    }
    pool = pools_[it->second].get();
    // The resolved model defines the hidden width — the one check that had
    // to wait. The id was validated above under this same lock hold, so
    // reserve directly (no second tracker lookup): service-wide ids mean
    // the same caller-supplied id is rejected even across different
    // models, and the pool sees an id its own tracker cannot collide on.
    validate_request_shape("Service::submit", req.hidden, pool->hidden());
    req.id = ids_.reserve(req.id);
  }
  // Hand off outside the service lock: one model's full replica queue must
  // not stall dispatch (or id assignment) for every other model.
  return pool->submit(std::move(req));
}

std::future<Response> Service::submit(Tensor<fp16_t> hidden) {
  Request req;
  req.hidden = std::move(hidden);
  return submit(std::move(req));
}

std::optional<std::future<Response>> Service::try_submit(Request req) {
  const std::string& name =
      req.model.has_value() ? *req.model : default_model_;
  MutexLock lock(mutex_);
  // Programming errors throw even when the request would be declined (the
  // try_submit contract of every tier below).
  validate_request_shape("Service::try_submit", req.hidden, /*hidden_dim=*/-1);
  validate_request_id("Service::try_submit", req.id, ids_);
  if (stop_) return std::nullopt;
  const auto it = index_.find(name);
  if (it == index_.end()) {
    unknown_model_counter().inc();
    return resolved_error_future(std::make_exception_ptr(UnknownModelError(
        "Service::try_submit: unknown model \"" + name + "\"")));
  }
  EnginePool* pool = pools_[it->second].get();
  validate_request_shape("Service::try_submit", req.hidden, pool->hidden());
  // Two-phase id reservation, like EnginePool::try_submit: reserve the
  // service-wide id only once the pool accepted, so a declined caller-
  // supplied id can be resubmitted. Holding the service lock across the
  // pool call is safe — the whole chain below is non-blocking, and pool
  // locks are always taken after the service's, never the reverse. The
  // hand-off cannot stall other models' blocking submits either: those
  // release the service lock before their (blocking) pool hand-off.
  const RequestId id = req.id >= 0 ? req.id : ids_.next();
  if (id == std::numeric_limits<RequestId>::max()) {
    throw std::invalid_argument("Service: request id space exhausted");
  }
  req.id = id;
  auto fut = pool->try_submit(std::move(req));
  if (fut.has_value()) ids_.mark(id);
  return fut;
}

void Service::stop() {
  {
    MutexLock lock(mutex_);
    stop_ = true;
  }
  // Outside the service lock: each pool's stop() drains its replicas, and
  // observers (pending/stats) must stay callable meanwhile.
  for (auto& pool : pools_) pool->stop();
}

bool Service::stopped() const {
  MutexLock lock(mutex_);
  return stop_;
}

const EnginePool& Service::pool_at(std::string_view model) const {
  const auto it = index_.find(model);
  if (it == index_.end()) {
    throw std::out_of_range("Service: unknown model \"" + std::string(model) +
                            "\"");
  }
  return *pools_[it->second];
}

EngineStats Service::stats() const {
  EngineStats total;
  for (const auto& pool : pools_) obs::merge_fields(total, pool->stats());
  return total;
}

EngineStats Service::stats(std::string_view model) const {
  return pool_at(model).stats();
}

const EnginePool& Service::pool(std::string_view model) const {
  return pool_at(model);
}

void Service::publish_stats() const {
  auto& reg = obs::MetricRegistry::global();
  stats().publish(reg, "serving.stats");
  obs::publish_fields(reg, "serving.route", session_route_stats());
  reg.gauge("serving.pending").set(static_cast<double>(pending()));
  if (prefix_cache_ != nullptr) {
    obs::publish_fields(reg, "cache.prefix", prefix_cache_->stats());
  }
  for (std::size_t i = 0; i < pools_.size(); ++i) {
    const EnginePool& pool = *pools_[i];
    const std::string prefix = "serving.model." + registry_.names()[i];
    pool.stats().publish(reg, prefix);
    obs::publish_fields(reg, prefix, pool.session_route_stats());
    obs::publish_fields(reg, prefix, pool.breaker_stats());
    reg.gauge(prefix + ".pending").set(static_cast<double>(pool.pending()));
    reg.gauge(prefix + ".unique_sessions").set(pool.unique_sessions());
    reg.gauge(prefix + ".replicas").set(static_cast<double>(pool.replicas()));
  }
}

EnginePool::SessionRouteStats Service::session_route_stats() const {
  EnginePool::SessionRouteStats total;
  for (const auto& pool : pools_) {
    obs::merge_fields(total, pool->session_route_stats());
  }
  return total;
}

std::size_t Service::pending() const {
  std::size_t total = 0;
  for (const auto& pool : pools_) total += pool->pending();
  return total;
}

long long Service::pending_tokens() const {
  long long total = 0;
  for (const auto& pool : pools_) total += pool->pending_tokens();
  return total;
}

}  // namespace bt::serving
