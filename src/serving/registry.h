// Model registry — the catalog behind multi-model serving.
//
// A ModelRegistry maps model names to ModelSpec{model, EnginePoolOptions}:
// which BertModel serves the name and how its replica group is shaped
// (replica count, batching policy, routing policy, SLO window). It is plain
// data — building one spins up nothing; handing it to serving::Service
// (service.h) constructs one EnginePool per registered model.
//
//   serving::ModelRegistry registry;
//   registry.add("bert-base", base_model, base_pool_opts)
//           .add("bert-large", large_model, large_pool_opts);
//   serving::Service service(std::move(registry));
//
// Weights stay shared: every spec holds a shared_ptr<const BertModel>, so
// registering the same model under two names (e.g. a latency-tier alias
// with a different replica shape) costs two replica groups, not two weight
// copies — the pack-once contract of core::ModelWeights holds per model,
// never globally.
#pragma once

#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "core/model.h"
#include "serving/pool.h"

namespace bt::serving {

// Heterogeneous string hashing for name-keyed maps, so string_view lookups
// (contains/spec/pool_at and the submit hot path) never allocate a
// temporary std::string. Same pattern as the sticky router's pin map.
struct StringKeyHash {
  using is_transparent = void;
  std::size_t operator()(std::string_view s) const {
    return std::hash<std::string_view>{}(s);
  }
};

struct ModelSpec {
  std::shared_ptr<const core::BertModel> model;
  // Replica-group shape for this model. Its engine.engine.model_name is
  // overwritten with the registry key by Service, so Response::model always
  // reports the name the request resolved to.
  EnginePoolOptions pool;
};

class ModelRegistry {
 public:
  // Registers `name` -> spec. Throws std::invalid_argument on an empty
  // name, a null model, or a duplicate name (silently replacing a model a
  // service might already be built on would be a deployment footgun).
  // Returns *this so registrations chain.
  ModelRegistry& add(std::string name, ModelSpec spec);
  ModelRegistry& add(std::string name,
                     std::shared_ptr<const core::BertModel> model,
                     EnginePoolOptions pool = {});

  bool contains(std::string_view name) const;
  // Throws std::out_of_range for unregistered names; use contains() first
  // when the name is untrusted.
  const ModelSpec& spec(std::string_view name) const;

  // Registration order — the first name is Service's default model when
  // ServiceOptions::default_model is empty.
  const std::vector<std::string>& names() const { return order_; }
  std::size_t size() const { return order_.size(); }
  bool empty() const { return order_.empty(); }

 private:
  std::vector<std::string> order_;
  std::unordered_map<std::string, ModelSpec, StringKeyHash, std::equal_to<>>
      specs_;
};

}  // namespace bt::serving
