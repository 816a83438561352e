// Service/ModelRegistry: single-model bitwise equivalence with a bare
// EnginePool per batching policy under concurrent submitters, multi-model
// dispatch with provenance, sticky-session routing onto allocation-free
// replica workspaces, the resolved-future error contract for unknown
// models, the service-wide id contract, and full-fleet shutdown drain.
#include <gtest/gtest.h>

#include <future>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/model.h"
#include "serving/service.h"
#include "tensor/tensor.h"

namespace bt::serving {
namespace {

core::BertConfig tiny_config() {
  core::BertConfig cfg;
  cfg.layers = 2;
  cfg.heads = 2;
  cfg.head_size = 16;
  return cfg;
}

std::shared_ptr<const core::BertModel> model_a() {
  static std::shared_ptr<const core::BertModel> model = [] {
    Rng rng(4242);
    return std::make_shared<const core::BertModel>(
        core::BertModel::random(tiny_config(), rng));
  }();
  return model;
}

std::shared_ptr<const core::BertModel> model_b() {
  static std::shared_ptr<const core::BertModel> model = [] {
    Rng rng(2424);
    return std::make_shared<const core::BertModel>(
        core::BertModel::random(tiny_config(), rng));
  }();
  return model;
}

struct PolicyCase {
  BatchPolicy policy;
  core::OptFlags flags;
  int group_size;
};

std::vector<PolicyCase> all_policies() {
  return {
      {BatchPolicy::kPadToMax, core::OptFlags::bias_gelu_fused(), 0},
      {BatchPolicy::kSortGroup, core::OptFlags::layernorm_fused(), 2},
      {BatchPolicy::kPacked, core::OptFlags::byte_transformer(), 0},
  };
}

EnginePoolOptions pool_options(const PolicyCase& pc, int replicas,
                               RoutePolicy route, int max_batch_requests,
                               double max_wait_seconds) {
  EnginePoolOptions opts;
  opts.engine.engine.policy = pc.policy;
  opts.engine.engine.flags = pc.flags;
  opts.engine.engine.group_size = pc.group_size > 0 ? pc.group_size : 4;
  opts.engine.engine.max_batch_requests = max_batch_requests;
  opts.engine.max_wait_seconds = max_wait_seconds;
  opts.replicas = replicas;
  opts.route = route;
  opts.threads_per_replica = 1;
  return opts;
}

void expect_bits_equal(const Tensor<fp16_t>& got, const Tensor<fp16_t>& want) {
  ASSERT_EQ(got.rank(), 2);
  ASSERT_EQ(got.dim(0), want.dim(0));
  ASSERT_EQ(got.dim(1), want.dim(1));
  for (std::int64_t s = 0; s < got.dim(0); ++s) {
    for (std::int64_t j = 0; j < got.dim(1); ++j) {
      ASSERT_EQ(got(s, j).bits(), want(s, j).bits())
          << "row " << s << " col " << j;
    }
  }
}

// ---- registry ---------------------------------------------------------------

TEST(ModelRegistry, RegistersInOrderAndValidates) {
  ModelRegistry registry;
  registry.add("a", model_a()).add("b", model_b());
  EXPECT_EQ(registry.size(), 2u);
  EXPECT_TRUE(registry.contains("a"));
  EXPECT_FALSE(registry.contains("c"));
  ASSERT_EQ(registry.names().size(), 2u);
  EXPECT_EQ(registry.names()[0], "a");
  EXPECT_EQ(registry.names()[1], "b");
  EXPECT_EQ(registry.spec("b").model.get(), model_b().get());
  EXPECT_THROW(registry.spec("c"), std::out_of_range);

  EXPECT_THROW(registry.add("a", model_a()), std::invalid_argument);  // dup
  EXPECT_THROW(registry.add("", model_a()), std::invalid_argument);   // empty
  EXPECT_THROW(registry.add("c", nullptr), std::invalid_argument);    // null
}

// Registering one model under two names shares the one physical weight copy
// (the pack-once contract holds per model, not per name).
TEST(ModelRegistry, AliasedNamesShareOneWeightCopy) {
  const PolicyCase pc = all_policies()[2];
  ModelRegistry registry;
  registry.add("fast", model_a(),
               pool_options(pc, 1, RoutePolicy::kLeastOutstandingTokens, 8,
                            0.0));
  registry.add("batch", model_a(),
               pool_options(pc, 2, RoutePolicy::kLeastOutstandingTokens, 8,
                            0.0));
  Service service(std::move(registry));
  EXPECT_EQ(service.pool("fast").model().weights_ptr().get(),
            service.pool("batch").model().weights_ptr().get());
  service.stop();
}

// ---- construction -----------------------------------------------------------

TEST(Service, RejectsInconsistentConfiguration) {
  EXPECT_THROW(Service(ModelRegistry{}), std::invalid_argument);  // empty

  {
    ModelRegistry registry;
    registry.add("a", model_a());
    ServiceOptions opts;
    opts.default_model = "missing";
    EXPECT_THROW(Service(std::move(registry), opts), std::invalid_argument);
  }
  {
    // Per-pool validation surfaces through the Service constructor.
    ModelRegistry registry;
    registry.add("a", model_a(),
                 pool_options(all_policies()[2], 0,
                              RoutePolicy::kLeastOutstandingTokens, 8, 0.0));
    EXPECT_THROW(Service(std::move(registry)), std::invalid_argument);
  }
}

TEST(Service, DefaultModelIsFirstRegisteredUnlessOverridden) {
  const PolicyCase pc = all_policies()[2];
  {
    ModelRegistry registry;
    registry.add("a", model_a(),
                 pool_options(pc, 1, RoutePolicy::kLeastOutstandingTokens, 8,
                              0.0));
    registry.add("b", model_b(),
                 pool_options(pc, 1, RoutePolicy::kLeastOutstandingTokens, 8,
                              0.0));
    Service service(std::move(registry));
    EXPECT_EQ(service.default_model(), "a");
    Rng rng(3);
    Response r = service
                     .submit(Tensor<fp16_t>::random_normal(
                         {4, service.pool("a").hidden()}, rng))
                     .get();
    EXPECT_EQ(r.model, "a");
    service.stop();
  }
  {
    ModelRegistry registry;
    registry.add("a", model_a(),
                 pool_options(pc, 1, RoutePolicy::kLeastOutstandingTokens, 8,
                              0.0));
    registry.add("b", model_b(),
                 pool_options(pc, 1, RoutePolicy::kLeastOutstandingTokens, 8,
                              0.0));
    ServiceOptions opts;
    opts.default_model = "b";
    Service service(std::move(registry), opts);
    EXPECT_EQ(service.default_model(), "b");
    Rng rng(3);
    Response r = service
                     .submit(Tensor<fp16_t>::random_normal(
                         {4, service.pool("b").hidden()}, rng))
                     .get();
    EXPECT_EQ(r.model, "b");
    service.stop();
  }
}

// ---- single-model bitwise equivalence ---------------------------------------

// The acceptance bar: a Service with one registered model and sticky
// sessions disabled adds a name lookup and a service-level id — outputs are
// bitwise identical to the same requests on a bare EnginePool, for every
// batching policy, under concurrent submitters.
TEST(Service, SingleModelBitMatchesBareEnginePoolPerPolicyUnderConcurrentSubmitters) {
  constexpr int kThreads = 3;
  constexpr int kPerThread = 4;
  constexpr int kTotal = kThreads * kPerThread;
  const std::int64_t h = model_a()->config().hidden();

  for (const PolicyCase& pc : all_policies()) {
    const EnginePoolOptions opts = pool_options(
        pc, /*replicas=*/2, RoutePolicy::kLeastOutstandingTokens,
        /*max_batch_requests=*/4, /*max_wait=*/0.0005);
    ModelRegistry registry;
    registry.add("only", model_a(), opts);
    Service service(std::move(registry));

    std::vector<Tensor<fp16_t>> inputs(kTotal);
    std::vector<std::future<Response>> futures(kTotal);
    std::vector<std::thread> submitters;
    for (int t = 0; t < kThreads; ++t) {
      submitters.emplace_back([&, t] {
        for (int j = 0; j < kPerThread; ++j) {
          const std::size_t slot = static_cast<std::size_t>(t * kPerThread + j);
          const int len = 2 + 3 * (static_cast<int>(slot) % 5);
          Rng rng(1000 + t * 100 + j);
          auto hidden = Tensor<fp16_t>::random_normal({len, h}, rng);
          inputs[slot] = hidden.clone();
          Request req;
          req.hidden = std::move(hidden);
          futures[slot] = service.submit(std::move(req));
        }
      });
    }
    for (auto& s : submitters) s.join();

    // Reference: identical request contents on a bare EnginePool with the
    // same options, its futures indexed by slot.
    EnginePool reference(model_a(), opts);
    std::vector<std::future<Response>> want(kTotal);
    for (int slot = 0; slot < kTotal; ++slot) {
      want[static_cast<std::size_t>(slot)] =
          reference.submit(inputs[static_cast<std::size_t>(slot)].clone());
    }

    for (int slot = 0; slot < kTotal; ++slot) {
      Response got = futures[static_cast<std::size_t>(slot)].get();
      Response ref = want[static_cast<std::size_t>(slot)].get();
      expect_bits_equal(got.output, ref.output);
      EXPECT_EQ(got.model, "only");  // provenance names the registry key
      EXPECT_GE(got.replica, 0);
      EXPECT_LT(got.replica, 2);
    }
    service.stop();
    reference.stop();
    EXPECT_EQ(service.stats().requests, kTotal);
    EXPECT_EQ(service.pending(), 0u);
  }
}

// ---- multi-model dispatch ---------------------------------------------------

// Request::model selects the replica group: the same input produces each
// model's own output (bit-matching a direct EnginePool on that model), and
// the per-model stats account separately.
TEST(Service, DispatchesByModelKeyWithPerModelAccounting) {
  const PolicyCase pc = all_policies()[2];
  const EnginePoolOptions opts =
      pool_options(pc, 1, RoutePolicy::kLeastOutstandingTokens, 8, 0.0);
  ModelRegistry registry;
  registry.add("a", model_a(), opts);
  registry.add("b", model_b(), opts);
  Service service(std::move(registry));
  const std::int64_t h = model_a()->config().hidden();

  Rng rng(11);
  const auto input = Tensor<fp16_t>::random_normal({6, h}, rng);
  Request to_a;
  to_a.hidden = input.clone();
  to_a.model = "a";
  Request to_b;
  to_b.hidden = input.clone();
  to_b.model = "b";
  Response ra = service.submit(std::move(to_a)).get();
  Response rb = service.submit(std::move(to_b)).get();
  EXPECT_EQ(ra.model, "a");
  EXPECT_EQ(rb.model, "b");

  EnginePool direct_a(model_a(), opts);
  EnginePool direct_b(model_b(), opts);
  expect_bits_equal(ra.output, direct_a.submit(input.clone()).get().output);
  expect_bits_equal(rb.output, direct_b.submit(input.clone()).get().output);
  direct_a.stop();
  direct_b.stop();

  EXPECT_EQ(service.stats("a").requests, 1);
  EXPECT_EQ(service.stats("b").requests, 1);
  EXPECT_EQ(service.stats().requests, 2);
  EXPECT_THROW(service.stats("c"), std::out_of_range);
  EXPECT_THROW(service.pool("c"), std::out_of_range);
  service.stop();
}

// ---- error paths ------------------------------------------------------------

// An unknown model is a routing error: submit() must not throw (and must
// not burn a request id) — the returned future is already resolved with
// UnknownModelError, the same async path every other per-request failure
// travels.
TEST(Service, UnknownModelResolvesTheFutureWithErrorInsteadOfThrowing) {
  ModelRegistry registry;
  registry.add("a", model_a(),
               pool_options(all_policies()[2], 1,
                            RoutePolicy::kLeastOutstandingTokens, 8, 0.0));
  Service service(std::move(registry));
  const std::int64_t h = service.pool("a").hidden();
  Rng rng(12);

  Request req;
  req.hidden = Tensor<fp16_t>::random_normal({4, h}, rng);
  req.model = "nope";
  std::future<Response> fut = service.submit(std::move(req));  // no throw
  ASSERT_EQ(fut.wait_for(std::chrono::seconds(0)), std::future_status::ready);
  EXPECT_THROW(fut.get(), UnknownModelError);

  // The rejected submit burned nothing: the next request gets id 0.
  Request retry;
  retry.hidden = Tensor<fp16_t>::random_normal({4, h}, rng);
  retry.model = "a";
  EXPECT_EQ(service.submit(std::move(retry)).get().id, 0);
  EXPECT_EQ(service.stats().requests, 1);

  // Programming errors are not masked by an unknown model name: the
  // model-independent shape check still throws.
  Request bad_shape;
  bad_shape.hidden = Tensor<fp16_t>::zeros({4});  // rank 1
  bad_shape.model = "nope";
  EXPECT_THROW(service.submit(std::move(bad_shape)), std::invalid_argument);
  service.stop();
}

// Ids are service-wide: requests to different models draw from one counter,
// so two models' responses never carry the same id, and ids follow
// submission order across models.
TEST(Service, IdsAreUniqueAcrossModels) {
  const EnginePoolOptions opts =
      pool_options(all_policies()[2], 1, RoutePolicy::kLeastOutstandingTokens,
                   8, 0.0);
  ModelRegistry registry;
  registry.add("a", model_a(), opts);
  registry.add("b", model_b(), opts);
  Service service(std::move(registry));
  const std::int64_t h = service.pool("a").hidden();
  Rng rng(13);

  std::vector<std::future<Response>> futures;
  for (int i = 0; i < 8; ++i) {
    Request req;
    req.hidden = Tensor<fp16_t>::random_normal({3, h}, rng);
    req.model = i % 3 == 0 ? "a" : "b";
    futures.push_back(service.submit(std::move(req)));
  }
  for (int i = 0; i < 8; ++i) {
    const Response r = futures[static_cast<std::size_t>(i)].get();
    EXPECT_EQ(r.id, i);
    EXPECT_EQ(r.model, i % 3 == 0 ? "a" : "b");
  }
  EXPECT_EQ(service.stats("a").requests, 3);
  EXPECT_EQ(service.stats("b").requests, 5);

  // Malformed tensors throw the Engine contract's error.
  EXPECT_THROW(service.submit(Tensor<fp16_t>::zeros({4})),
               std::invalid_argument);
  service.stop();
}

// ---- lifecycle --------------------------------------------------------------

TEST(Service, StopDrainsEveryRegisteredModelsPools) {
  const EnginePoolOptions opts = pool_options(
      all_policies()[2], 2, RoutePolicy::kLeastOutstandingTokens, 8,
      /*max_wait=*/30.0);
  ModelRegistry registry;
  registry.add("a", model_a(), opts);
  registry.add("b", model_b(), opts);
  Service service(std::move(registry));
  const std::int64_t h = service.pool("a").hidden();
  Rng rng(14);

  // Every replica of every model holds an open 30 s window: stop() must
  // drain them all before returning.
  std::vector<std::future<Response>> futures;
  for (int i = 0; i < 8; ++i) {
    Request req;
    req.hidden = Tensor<fp16_t>::random_normal({1 + i % 4, h}, rng);
    req.model = i % 2 == 0 ? "a" : "b";
    futures.push_back(service.submit(std::move(req)));
  }
  service.stop();
  service.stop();  // idempotent
  EXPECT_TRUE(service.stopped());
  for (auto& f : futures) {
    ASSERT_EQ(f.wait_for(std::chrono::seconds(0)), std::future_status::ready)
        << "stop() returned before some model's pool finished draining";
    f.get();
  }
  EXPECT_EQ(service.pending(), 0u);
  EXPECT_EQ(service.pending_tokens(), 0);
  EXPECT_EQ(service.stats().requests, 8);
  EXPECT_EQ(service.stats("a").requests, 4);
  EXPECT_EQ(service.stats("b").requests, 4);

  EXPECT_THROW(service.submit(Tensor<fp16_t>::random_normal({3, h}, rng)),
               std::runtime_error);
}

// ---- sticky sessions --------------------------------------------------------

// The session contract end to end: every request of a session lands on the
// replica that served its first request (Response::replica + the exposed
// pin agree), and follow-up rounds of the same geometry allocate nothing
// on the replica's one workspace.
TEST(Service, StickySessionPinsReplicaAndReusesItsWorkspace) {
  EnginePoolOptions opts =
      pool_options(all_policies()[2], /*replicas=*/2,
                   RoutePolicy::kStickySession, 8, /*max_wait=*/0.0);
  ModelRegistry registry;
  registry.add("a", model_a(), opts);
  Service service(std::move(registry));
  const std::int64_t h = service.pool("a").hidden();
  Rng rng(15);

  const auto turn = [&](const char* session, int len) {
    Request req;
    req.hidden = Tensor<fp16_t>::random_normal({len, h}, rng);
    req.session = session;
    return service.submit(std::move(req)).get();  // sequential: one round each
  };

  const Response r1 = turn("conv", 9);
  ASSERT_TRUE(r1.session.has_value());
  EXPECT_EQ(*r1.session, "conv");
  const auto pin = service.pool("a").pinned_replica("conv");
  ASSERT_TRUE(pin.has_value());
  EXPECT_EQ(static_cast<int>(*pin), r1.replica);
  const EngineStats s1 = service.stats();
  EXPECT_GT(s1.workspace_allocations, 0);

  for (int i = 0; i < 3; ++i) {
    const Response r = turn("conv", 9);
    EXPECT_EQ(r.replica, r1.replica) << "session hopped replicas";
  }
  const EngineStats s2 = service.stats();
  // The warm-workspace proof: three follow-up rounds, zero new allocations.
  EXPECT_EQ(s2.workspace_allocations, s1.workspace_allocations);

  const auto sr = service.session_route_stats();
  EXPECT_EQ(sr.session_requests, 4);
  EXPECT_EQ(sr.sticky_hits, 3);  // everything after the pin-creating first
  service.stop();
}

}  // namespace
}  // namespace bt::serving
