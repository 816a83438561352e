#include "serving/service.h"

#include <utility>

#include "cache/prefix_cache.h"
#include "obs/metrics.h"

namespace bt::serving {

namespace {

// Runs `reply` with UnknownModelError. Unknown-model rejections never
// reach an AsyncEngine (the request enters no pool), so the scheduler-side
// failure counters cannot see them; count them here at the only place they
// happen.
void reply_unknown_model(const Reply& reply, const char* who,
                         const std::string& name) {
  static obs::Counter& counter =
      obs::MetricRegistry::global().counter("serving.errors.unknown_model");
  counter.inc();
  reply(Response{}, std::make_exception_ptr(UnknownModelError(
                        std::string(who) + ": unknown model \"" + name + "\"")));
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
    pool_opts.engine.engine.model_name = name;
    if (opts.prefix_cache_bytes > 0 &&
        pool_opts.engine.engine.flags.causal &&
        pool_opts.engine.engine.flags.zero_padding &&
        spec.model->config().kind != core::ModelKind::kDeberta) {
      // One cache shared across every eligible model: cross-model byte
      // pressure lands on a single LRU, and entries are scoped by the
      // registry name (the replicas' model_name) so models stay isolated.
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
  FutureReply r = future_reply();
  submit(std::move(req), std::move(r.reply), /*wait=*/true);
  return std::move(r.future);
}

std::future<Response> Service::submit(Tensor<fp16_t> hidden) {
  return submit(Request{std::move(hidden)});
}

bool Service::try_submit(Request req, Reply reply) {
  return submit(std::move(req), std::move(reply), /*wait=*/false);
}

bool Service::submit(Request req, Reply reply, bool wait) {
  const char* who = wait ? "Service::submit" : "Service::try_submit";
  // Reference, not copy: the common sessionless/default-model submit must
  // not allocate on the dispatch path.
  const std::string& name =
      req.model.has_value() ? *req.model : default_model_;
  // Model-independent programming errors throw on the caller thread even
  // when the model name is unknown (or the request would be declined) —
  // otherwise a typo in the name would mask the real bug as a routing
  // error. Only the hidden-width check must wait for model resolution.
  validate_request_shape(who, req.hidden, /*hidden_dim=*/-1);
  EnginePool* pool = find_pool(name);
  if (pool != nullptr) validate_request_shape(who, req.hidden, pool->hidden());
  RequestId id = 0;
  {
    MutexLock lock(mutex_);
    if (wait && stop_) {
      throw ShutdownError("Service::submit: service is stopped");
    }
    if (stop_) return false;
    // An unknown model burns no request id: the request enters no pool.
    if (pool != nullptr) id = next_id_++;
  }
  if (pool == nullptr) {
    // Routing error, not a programming error: reply with it (a future
    // caller sees it resolved) instead of throwing.
    reply_unknown_model(reply, who, name);
    return true;
  }
  // Hand off outside the service lock: one model's full replica queue must
  // not stall dispatch (or id assignment) for every other model.
  return pool->submit(std::move(req), std::move(reply), id, wait);
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

EnginePool* Service::find_pool(std::string_view model) const {
  const auto it = index_.find(model);
  return it == index_.end() ? nullptr : pools_[it->second].get();
}

const EnginePool& Service::pool_at(std::string_view model) const {
  const EnginePool* pool = find_pool(model);
  if (pool == nullptr) {
    throw std::out_of_range("Service: unknown model \"" + std::string(model) +
                            "\"");
  }
  return *pool;
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
