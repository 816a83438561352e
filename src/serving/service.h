// Multi-model, session-aware serving front-end — the top of the serving
// API.
//
// One EnginePool serves one model. Service is the tier above: a
// ModelRegistry (registry.h) names the fleet, Service builds one EnginePool
// replica group per registered model, and submit() dispatches each request
// by its Request::model key (std::nullopt = the default model). Sessions
// ride along: under RoutePolicy::kStickySession a model's router pins each
// Request::session to the replica that served its first request, and that
// replica's per-session workspace (EngineOptions::session_workspaces) makes
// the follow-up allocation-free.
//
//   serving::ModelRegistry registry;
//   registry.add("bert-base", base_model, pool_opts);
//   registry.add("bert-large", large_model, large_pool_opts);
//   serving::Service service(std::move(registry));
//
//   serving::Request req;
//   req.hidden = std::move(hidden);
//   req.model = "bert-large";        // nullopt -> default model
//   req.session = "conv-42";        // sticky routing + warm workspace
//   auto fut = service.submit(std::move(req));
//   serving::Response r = fut.get(); // r.model / r.replica / r.session
//   service.stop();                  // drains every model's pool
//
// Error contract
//   * Malformed tensors and duplicate request ids are programming errors:
//     submit() throws std::invalid_argument on the caller thread, exactly
//     like the tiers below — even when the request also names an unknown
//     model (the model-independent checks run first; only the hidden-width
//     check needs the resolved model, so a wrong-width tensor aimed at an
//     unknown model reports the unknown model). Ids are service-wide — the
//     same id cannot be reused across different models.
//   * An unknown model name is a routing error, not a programming error: it
//     travels the async path the caller already handles — submit() returns
//     a future already resolved with UnknownModelError (never a throw on a
//     scheduler thread, never a burned request id).
//   * submit() after stop() throws std::runtime_error.
//
// Single-model equivalence
//   A Service with one registered model adds a name lookup and a
//   service-level id, nothing else: per-request outputs are bitwise
//   identical to the same traffic on a bare EnginePool for every
//   BatchPolicy (tests/test_service.cc pins this under concurrent
//   submitters).
#pragma once

#include <cstddef>
#include <future>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/annotations.h"
#include "common/mutex.h"
#include "serving/pool.h"
#include "serving/registry.h"

namespace bt::cache {
class PrefixCache;  // cache/prefix_cache.h — ServiceOptions::prefix_cache_bytes
}

namespace bt::serving {

// UnknownModelError (resolved into the returned future when Request::model
// names nothing) now lives in serving/error.h with the rest of the typed
// serving errors and their stable ErrorCodes.

struct ServiceOptions {
  // The model serving requests without Request::model. Empty = the first
  // registered name. Must name a registered model otherwise.
  std::string default_model;
  // Byte budget for one service-wide prefix activation cache
  // (cache/prefix_cache.h); 0 (default) = no cache. The single cache is
  // shared by every eligible pool — cross-model byte pressure is arbitrated
  // by one LRU, and entries are scoped by model name so models never
  // exchange state. A pool is eligible when its engine flags carry
  // causal + zero_padding and its model is not DeBERTa; ineligible pools
  // simply serve uncached (mixed registries keep working).
  std::size_t prefix_cache_bytes = 0;
};

class Service {
 public:
  // Builds one EnginePool per registered model (each pool's model_name is
  // set to its registry key). Throws std::invalid_argument on an empty
  // registry or a default_model that is not registered; per-pool option
  // validation surfaces from the EnginePool constructors.
  explicit Service(ModelRegistry registry, ServiceOptions opts = {});
  ~Service();  // stop()

  Service(const Service&) = delete;
  Service& operator=(const Service&) = delete;

  // Dispatches the request to its model's replica group and returns the
  // future its Response resolves on (see the error contract above). Blocks
  // while the chosen replica's queue is full.
  std::future<Response> submit(Request req) BT_EXCLUDES(mutex_);
  std::future<Response> submit(Tensor<fp16_t> hidden) BT_EXCLUDES(mutex_);

  // Non-blocking variant — the submission path of callers that must never
  // block on a full replica queue (the wire front-end's event loop).
  // Returns std::nullopt when the routed replica's queue is full or the
  // service is stopped (the backpressure signal, same contract as
  // EnginePool/AsyncEngine::try_submit); programming errors still throw,
  // and an unknown model still comes back as an engaged future already
  // resolved with UnknownModelError. A declined request burns no service-
  // wide id — the same id can be resubmitted on retry.
  std::optional<std::future<Response>> try_submit(Request req)
      BT_EXCLUDES(mutex_);

  // Stops every model's pool in registration order (each drains: all
  // accepted futures resolve). Idempotent.
  void stop() BT_EXCLUDES(mutex_);
  bool stopped() const BT_EXCLUDES(mutex_);

  const std::vector<std::string>& models() const { return registry_.names(); }
  const std::string& default_model() const { return default_model_; }
  const ModelRegistry& registry() const { return registry_; }

  // Fleet-wide accounting, and the per-model / per-pool views (throws
  // std::out_of_range for unknown names — observability callers pass
  // trusted names).
  EngineStats stats() const;
  EngineStats stats(std::string_view model) const;
  const EnginePool& pool(std::string_view model) const;
  EnginePool::SessionRouteStats session_route_stats() const;

  // The service-wide prefix activation cache; nullptr when
  // ServiceOptions::prefix_cache_bytes was 0 (or no pool was eligible).
  const std::shared_ptr<cache::PrefixCache>& prefix_cache() const {
    return prefix_cache_;
  }

  // Publishes the fleet snapshot into the global MetricRegistry: the
  // aggregate EngineStats under "serving.stats.*", fleet session-route
  // gauges under "serving.route.*", the prefix cache's CacheStats under
  // "cache.prefix.*", and each model's full pool family under
  // "serving.model.<name>.*" — each struct through its field list. The
  // wire stats frame calls this before serializing, so `bt_stats` always
  // reports exactly what the getters would (docs/OBSERVABILITY.md).
  void publish_stats() const;

  std::size_t pending() const;       // across every model's pool
  long long pending_tokens() const;

 private:
  const EnginePool& pool_at(std::string_view model) const;

  // registry_, default_model_, pools_, and index_ are written only by the
  // constructor and immutable afterwards — concurrent submitters read them
  // without the lock by design (the model map never changes while the
  // service runs).
  ModelRegistry registry_;
  std::string default_model_;
  std::shared_ptr<cache::PrefixCache> prefix_cache_;  // may be nullptr
  std::vector<std::unique_ptr<EnginePool>> pools_;  // registry-name order
  // name -> pools_ slot (transparent hash: string_view lookups allocate
  // nothing on the submit path)
  std::unordered_map<std::string, std::size_t, StringKeyHash, std::equal_to<>>
      index_;

  // Service-wide id tracker + stop flag. Ordered before every pool's lock:
  // try_submit holds it across the (non-blocking) pool call, never the
  // reverse.
  mutable Mutex mutex_;
  RequestIdTracker ids_ BT_GUARDED_BY(mutex_);
  bool stop_ BT_GUARDED_BY(mutex_) = false;
};

}  // namespace bt::serving
