// Request-level serving engine — the public entry point of the runtime.
//
// The kernel-level API (core::BertModel::forward) wants a zero-padded hidden
// tensor, a SeqOffsets descriptor, and a caller-managed Workspace; every
// call site used to re-wire that plumbing by hand. Engine is the serving
// facade in front of it: callers submit per-request hidden states and get
// per-request outputs back, while batch formation (via the pluggable
// scheduler BatchPolicy), gathering each micro-batch into one packed pass
// (cache hits included), workspace reuse, and padded-token accounting all
// live behind this API.
//
//   auto engine = serving::Engine(std::move(model), opts);
//   auto id = engine.submit(std::move(hidden));   // [len, hidden] rows
//   for (auto& r : engine.drain()) { ... r.output, r.compute_seconds ... }
//
// Synchronous by design: run_batch() executes one scheduling round on the
// calling thread (the engine's Device parallelizes the kernels), and the
// object is not thread-safe — one thread owns it. For online traffic use
// serving::AsyncEngine (serving/async_engine.h), the pipelined executor
// that runs this Engine behind a background scheduler thread; replicated
// and multi-model serving stack EnginePool (serving/pool.h) and Service
// (serving/service.h) on top of the same Request/Response surface.
#pragma once

#include <chrono>
#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/timer.h"
#include "core/model.h"
#include "core/workspace.h"
#include "obs/fields.h"
#include "parallel/device.h"
#include "serving/error.h"
#include "serving/scheduler.h"
#include "tensor/tensor.h"

namespace bt::cache {
class PrefixCache;  // cache/prefix_cache.h — EngineOptions::prefix_cache
}

namespace bt::serving {

using RequestId = std::int64_t;

struct EngineOptions {
  core::OptFlags flags = core::OptFlags::byte_transformer();
  BatchPolicy policy = BatchPolicy::kPacked;
  int group_size = 4;            // kSortGroup: requests per group
  int max_batch_requests = 8;    // scheduling-round request cap
  long long max_batch_tokens = 0;  // valid-token cap per round, >= 0;
                                   // 0 = unlimited (always admits at least
                                   // one request)
  int threads = 0;               // engine Device workers; 0 = global pool
  // Prefix activation cache (cache/prefix_cache.h), default off. When set,
  // sessioned requests whose input extends a previously-encoded prefix skip
  // re-encoding it: the engine resumes from the cached per-layer state and
  // computes only the suffix — bitwise identical to the full encode.
  // Requires flags.causal (the exactness prerequisite; causal itself
  // requires fused_mha) + flags.zero_padding, and a non-DeBERTa model; the
  // Engine constructor throws otherwise. The cache may be shared by many
  // engines (EnginePool replicas, Service pools): it locks internally, and
  // entries are scoped by cache_scope so models never exchange state.
  std::shared_ptr<cache::PrefixCache> prefix_cache;
  // Key namespace for this engine's sessions, normally the registry model
  // name (AsyncEngine copies its model_name here when unset; a bare Engine
  // may leave it empty). Two engines serving the SAME weights may share a
  // scope; engines serving different models never may.
  std::string cache_scope;
};

// Absolute SLO deadline on the serving clock. All deadline comparisons run
// on steady_clock so they are immune to wall-clock adjustments.
using Deadline = std::chrono::steady_clock::time_point;

// Convenience: a deadline `seconds` from now.
inline Deadline deadline_in(double seconds) {
  return std::chrono::steady_clock::now() +
         std::chrono::duration_cast<std::chrono::steady_clock::duration>(
             std::chrono::duration<double>(seconds));
}

// DeadlineExceeded, the other typed serving errors, and the stable
// ErrorCode each of them carries live in serving/error.h (included above):
// one error vocabulary shared by every serving tier and the wire protocol.

// Request ids are assigned, never supplied: each tier's public submit
// stamps the next value of its own counter, and an owning tier (Service ->
// EnginePool -> AsyncEngine -> Engine) hands its id down through a private
// entry point only it can reach. Response::id is therefore unique across
// the whole stack and increases in submission order at the entry tier.
struct Request {
  Tensor<fp16_t> hidden;   // [length, hidden] valid rows only (no padding)
  // Optional SLO deadline. The synchronous Engine processes its queue in
  // submission order and ignores it; AsyncEngine (and EnginePool replicas)
  // pop earliest-deadline-first whenever any queued request carries one, a
  // near/past deadline closes the batching window early, and a request whose
  // deadline passed before compute is shed with DeadlineExceeded. With no
  // deadlines anywhere the admission order is bitwise-identical to strict
  // FIFO.
  std::optional<Deadline> deadline = std::nullopt;
  // Registry key for multi-model serving. Consumed by serving::Service
  // (std::nullopt = the service's default model); Engine/AsyncEngine/
  // EnginePool ignore it — they serve exactly one model by construction.
  std::optional<std::string> model = std::nullopt;
  // Session identity for conversational traffic. Under
  // RoutePolicy::kStickySession the session is pinned to the replica that
  // served its first request, and with EngineOptions::prefix_cache set its
  // follow-ups resume from the cached prefix state. Sessionless requests
  // behave exactly as before.
  std::optional<std::string> session = std::nullopt;
};

// The submission shape contract shared by every serving tier: `hidden` must
// be a rank-2 [length >= 1, hidden_dim] tensor (hidden_dim < 0 = "any
// width", for Service before it has resolved which model the request is
// for). Throws std::invalid_argument with `who` naming the API.
void validate_request_shape(const char* who, const Tensor<fp16_t>& hidden,
                            std::int64_t hidden_dim);

struct Response {
  RequestId id = -1;
  // Always kOk on a Response delivered through the C++ API — failures
  // travel as exceptions there. The field exists so surfaces that cannot
  // throw across their boundary (the wire protocol's response frames)
  // report the identical stable code instead of a stringly-typed error.
  ErrorCode error = ErrorCode::kOk;
  Tensor<fp16_t> output;       // [length, hidden] valid rows only
  double queue_seconds = 0;    // submit -> scheduling-round start
  double compute_seconds = 0;  // wall time of the owning micro-batch forward
  long long round = -1;        // 0-based scheduling round that served this
                               // request (dispatch order is observable:
                               // promises resolve in non-decreasing rounds)
  StageTimes stages;           // stage breakdown of the owning micro-batch
  // Provenance: which registered model / replica served the request, and
  // the session it belonged to. `model` is the registry name the serving
  // tier was built under (empty on a bare Engine/AsyncEngine/EnginePool);
  // `replica` is the EnginePool replica index (-1 outside a pool);
  // `session` echoes Request::session.
  std::string model;
  int replica = -1;
  std::optional<std::string> session = std::nullopt;
};

// Cumulative accounting across every scheduling round of the engine.
// `requests`/token counters cover requests that actually computed; shed
// requests (deadline passed before compute) appear only in deadline_shed.
struct EngineStats {
  long long requests = 0;
  long long batches = 0;         // scheduling rounds that did work
  long long micro_batches = 0;   // one per packed pass (a micro-batch of
                                 // the plan, hits included)
  long long valid_tokens = 0;
  long long processed_tokens = 0;  // per-policy padded-token accounting
  double compute_seconds = 0;

  // Workspace::allocations() of the engine's one workspace as of the last
  // round: flat once the workspace has grown to the largest round.
  long long workspace_allocations = 0;

  // Deadline accounting (AsyncEngine-maintained; the synchronous Engine
  // ignores deadlines and leaves these zero): responses resolved before /
  // after their deadline, and requests shed before compute.
  long long deadline_met = 0;
  long long deadline_missed = 0;
  long long deadline_shed = 0;

  // Prefix-cache accounting (zero when EngineOptions::prefix_cache unset):
  // requests resumed from cached state vs. sessioned requests that probed
  // and full-encoded; on hits, the suffix tokens actually computed and the
  // prefix tokens served from cache (the compute NOT done — token counters
  // above only ever count computed tokens, so throughput math stays honest).
  long long cache_hits = 0;
  long long cache_misses = 0;
  long long cache_hit_suffix_tokens = 0;
  long long cache_saved_tokens = 0;

  long long padding_tokens() const { return processed_tokens - valid_tokens; }

  static constexpr std::tuple kFields{
      obs::Field{"requests", &EngineStats::requests},
      obs::Field{"batches", &EngineStats::batches},
      obs::Field{"micro_batches", &EngineStats::micro_batches},
      obs::Field{"valid_tokens", &EngineStats::valid_tokens},
      obs::Field{"processed_tokens", &EngineStats::processed_tokens},
      obs::Field{"padding_tokens", &EngineStats::padding_tokens},
      obs::Field{"compute_seconds", &EngineStats::compute_seconds},
      obs::Field{"workspace_allocations",
                 &EngineStats::workspace_allocations},
      obs::Field{"deadline_met", &EngineStats::deadline_met},
      obs::Field{"deadline_missed", &EngineStats::deadline_missed},
      obs::Field{"deadline_shed", &EngineStats::deadline_shed},
      obs::Field{"cache_hits", &EngineStats::cache_hits},
      obs::Field{"cache_misses", &EngineStats::cache_misses},
      obs::Field{"cache_hit_suffix_tokens",
                 &EngineStats::cache_hit_suffix_tokens},
      obs::Field{"cache_saved_tokens", &EngineStats::cache_saved_tokens},
  };

  // Service::publish_stats() publishes the fleet aggregate under
  // "serving.stats" and each model under "serving.model.<name>".
  void publish(obs::MetricRegistry& reg, const std::string& prefix) const {
    obs::publish_fields(reg, prefix, *this);
  }
};

class Engine {
 public:
  // Throws std::invalid_argument on inconsistent options: flags that fail
  // OptFlags::validate(), a kPacked policy without the zero_padding pipeline
  // (the padded pipeline would silently re-introduce the waste the policy
  // claims to remove), a non-positive group_size under kSortGroup, a
  // non-positive max_batch_requests, or a negative max_batch_tokens.
  Engine(std::shared_ptr<const core::BertModel> model, EngineOptions opts);
  Engine(core::BertModel model, EngineOptions opts);

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  // Enqueues a request; `hidden` must be a rank-2 [length, hidden] tensor
  // with at least one row (throws std::invalid_argument otherwise). Returns
  // the id responses will carry: the next sequential one.
  RequestId submit(Request req);
  RequestId submit(Tensor<fp16_t> hidden);

  // Runs one scheduling round over the queue front (bounded by
  // max_batch_requests / max_batch_tokens) and returns the responses in
  // submission order. Empty queue -> empty vector.
  std::vector<Response> run_batch();

  // Runs rounds until the queue is empty; responses in submission order.
  std::vector<Response> drain();

  // Drops every queued (not yet computed) request and returns how many were
  // discarded. Used by AsyncEngine to clear the engine after a round failed
  // mid-compute, so the leftovers cannot bleed into the next round's
  // responses.
  std::size_t discard_pending();

  std::size_t pending() const { return queue_.size(); }
  const EngineStats& stats() const { return stats_; }
  const core::BertModel& model() const { return *model_; }
  const EngineOptions& options() const { return opts_; }
  int hidden() const { return model_->config().hidden(); }

 private:
  friend class AsyncEngine;  // hands down the id it assigned

  RequestId submit(Request req, RequestId id);

  struct Pending {
    RequestId id;
    Tensor<fp16_t> hidden;
    Timer queued;
    std::optional<std::string> session;
  };

  EngineOptions opts_;
  std::shared_ptr<const core::BertModel> model_;
  par::Device dev_;
  core::Workspace ws_;  // every round, whatever its sessions, runs on it
  std::deque<Pending> queue_;
  RequestId next_id_ = 0;
  EngineStats stats_;
};

}  // namespace bt::serving
