#include "serving/engine.h"

#include <algorithm>
#include <cstring>
#include <stdexcept>
#include <string>
#include <utility>

#include "cache/prefix_cache.h"
#include "core/padding.h"

namespace bt::serving {

namespace {

void validate_options(const EngineOptions& opts) {
  if (const std::string err = opts.flags.validate(); !err.empty()) {
    throw std::invalid_argument(err);
  }
  if (opts.policy == BatchPolicy::kPacked && !opts.flags.zero_padding) {
    throw std::invalid_argument(
        "EngineOptions: BatchPolicy::kPacked requires flags.zero_padding; "
        "without the padding-free pipeline the \"packed\" batch would still "
        "process every padded token");
  }
  if (opts.policy == BatchPolicy::kSortGroup && opts.group_size <= 0) {
    throw std::invalid_argument(
        "EngineOptions: BatchPolicy::kSortGroup needs group_size > 0 "
        "(use kPadToMax for a single whole-batch group)");
  }
  if (opts.max_batch_requests <= 0) {
    throw std::invalid_argument(
        "EngineOptions: max_batch_requests must be positive");
  }
  if (opts.max_batch_tokens < 0) {
    throw std::invalid_argument(
        "EngineOptions: max_batch_tokens must be >= 0 (0 = unlimited)");
  }
}

}  // namespace

Engine::Engine(std::shared_ptr<const core::BertModel> model,
               EngineOptions opts)
    : opts_(opts),
      model_(std::move(model)),
      dev_(opts.threads) {
  if (model_ == nullptr) {
    throw std::invalid_argument("Engine: model must not be null");
  }
  validate_options(opts_);
  if (opts_.prefix_cache != nullptr) {
    // causal is the exactness prerequisite (bidirectional prefix state can
    // never be reused); causal itself requires fused_mha via
    // OptFlags::validate, and the fused kernels require packed rows.
    if (!opts_.flags.causal || !opts_.flags.zero_padding) {
      throw std::invalid_argument(
          "EngineOptions: prefix_cache requires flags.causal and "
          "flags.zero_padding — prefix reuse is only exact under causal "
          "attention on the padding-free pipeline");
    }
    if (model_->config().kind == core::ModelKind::kDeberta) {
      throw std::invalid_argument(
          "EngineOptions: prefix_cache does not support DeBERTa "
          "(disentangled attention has no reusable per-layer prefix state)");
    }
  }
}

Engine::Engine(core::BertModel model, EngineOptions opts)
    : Engine(std::make_shared<const core::BertModel>(std::move(model)),
             opts) {}

void validate_request_shape(const char* who, const Tensor<fp16_t>& hidden,
                            std::int64_t hidden_dim) {
  if (hidden.rank() != 2 || hidden.dim(0) < 1 ||
      (hidden_dim >= 0 && hidden.dim(1) != hidden_dim)) {
    throw std::invalid_argument(
        std::string(who) + ": hidden must be [length >= 1, " +
        (hidden_dim >= 0 ? std::to_string(hidden_dim) : "hidden") + "]");
  }
}

RequestId Engine::submit(Request req) {
  return submit(std::move(req), next_id_++);
}

RequestId Engine::submit(Request req, RequestId id) {
  validate_request_shape("Engine::submit", req.hidden, hidden());
  queue_.push_back(
      Pending{id, std::move(req.hidden), Timer(), std::move(req.session)});
  return id;
}

RequestId Engine::submit(Tensor<fp16_t> hidden) {
  return submit(Request{std::move(hidden)});
}

std::vector<Response> Engine::run_batch() {
  if (queue_.empty()) return {};

  const std::size_t count = admit_count(
      queue_.size(), opts_.max_batch_requests, opts_.max_batch_tokens,
      [&](std::size_t i) { return queue_[i].hidden.dim(0); });

  std::vector<double> queue_secs(count);
  for (std::size_t i = 0; i < count; ++i) {
    queue_secs[i] = queue_[i].queued.seconds();
  }

  const std::int64_t h = hidden();
  const int layers = model_->config().layers;
  std::vector<Response> responses(count);

  // Prefix-cache probe. A sessioned request whose input extends a cached
  // prefix is a hit: it computes only its suffix, resuming from the cached
  // per-layer state. Hits and misses are planned together, at their full
  // lengths, and share the micro-batches of the plan.
  struct Cached {
    std::string key;  // empty: not cache-tracked (sessionless, cache off)
    std::shared_ptr<const cache::PrefixEntry> entry;  // null: miss
    std::int64_t prefix() const { return entry ? entry->length : 0; }
  };
  std::vector<Cached> cached(count);
  std::vector<int> lengths(count);
  long long saved_tokens = 0;
  for (std::size_t i = 0; i < count; ++i) {
    const Pending& p = queue_[i];
    lengths[i] = static_cast<int>(p.hidden.dim(0));
    if (opts_.prefix_cache == nullptr || !p.session.has_value()) continue;
    Cached& c = cached[i];
    c.key = cache::PrefixCache::session_key(opts_.cache_scope, *p.session);
    c.entry = opts_.prefix_cache->probe(c.key, p.hidden.data(), lengths[i]);
    if (c.entry == nullptr) {
      stats_.cache_misses += 1;
      continue;
    }
    stats_.cache_hits += 1;
    stats_.cache_hit_suffix_tokens += lengths[i] - c.prefix();
    stats_.cache_saved_tokens += c.prefix();
    saved_tokens += c.prefix();
  }
  const BatchPlan plan = plan_batch(opts_.policy, lengths, opts_.group_size);

  for (const MicroBatch& mb : plan.micro) {
    StageTimes stages;
    Timer t;
    if (opts_.flags.zero_padding) {
      // One packed pass (core/model.h forward_packed): members sorted by
      // length, so each attention regime is one contiguous run; hits add
      // their suffix rows, misses their whole input.
      std::vector<int> order(mb.indices);
      std::stable_sort(order.begin(), order.end(), [&](int a, int b) {
        return lengths[static_cast<std::size_t>(a)] <
               lengths[static_cast<std::size_t>(b)];
      });
      std::vector<core::BertModel::PackedSeq> seqs;
      std::int64_t rows = 0;
      bool cache_tracked = false;
      for (int i : order) {
        const Cached& c = cached[static_cast<std::size_t>(i)];
        seqs.push_back({c.entry ? c.entry->qkv.data() : nullptr,
                        static_cast<int>(c.prefix()),
                        lengths[static_cast<std::size_t>(i)]});
        rows += lengths[static_cast<std::size_t>(i)] - c.prefix();
        cache_tracked |= !c.key.empty();
      }
      auto in = ws_.get<fp16_t>("engine.in", rows * h);
      auto out = ws_.get<fp16_t>("engine.out", rows * h);
      // Every cache insert and extend reads this pass's QKV stream.
      fp16_t* stream = nullptr;
      if (cache_tracked) {
        stream = ws_.get<fp16_t>("engine.qkv_stream", layers * rows * 3 * h).data();
      }
      std::int64_t row = 0;
      for (int i : order) {
        const Tensor<fp16_t>& src = queue_[static_cast<std::size_t>(i)].hidden;
        const std::int64_t prefix = cached[static_cast<std::size_t>(i)].prefix();
        std::memcpy(in.data() + row * h, src.data() + prefix * h,
                    static_cast<std::size_t>((src.dim(0) - prefix) * h) *
                        sizeof(fp16_t));
        row += src.dim(0) - prefix;
      }

      model_->forward_packed(dev_, seqs, in.data(), out.data(), stream,
                             opts_.flags, ws_, &stages);

      row = 0;
      for (int i : order) {
        const auto pos = static_cast<std::size_t>(i);
        const Pending& p = queue_[pos];
        Cached& c = cached[pos];
        const std::int64_t total = p.hidden.dim(0);
        const std::int64_t prefix = c.prefix();
        const fp16_t* fresh_out = out.data() + row * h;
        Tensor<fp16_t>& output = responses[pos].output;
        output = Tensor<fp16_t>({total, h});
        // A hit's prefix output rows come straight from the cache.
        if (prefix > 0) {
          std::memcpy(output.data(), c.entry->output.data(),
                      static_cast<std::size_t>(prefix * h) * sizeof(fp16_t));
        }
        std::memcpy(output.data() + prefix * h, fresh_out,
                    static_cast<std::size_t>((total - prefix) * h) *
                        sizeof(fp16_t));
        if (c.entry != nullptr) {
          opts_.prefix_cache->extend(c.key, c.entry, p.hidden.data() + prefix * h,
                                     total, stream + row * 3 * h, rows,
                                     fresh_out);
          // The cache now holds the extended sibling: drop the base before
          // the next hit's extension allocates, so a round never holds both
          // copies of every hit.
          c.entry.reset();
        } else if (!c.key.empty()) {
          opts_.prefix_cache->insert(c.key, p.hidden.data(), total, layers, h,
                                     stream + row * 3 * h, rows, fresh_out);
        }
        row += total - prefix;
      }
    } else {
      // Padded baseline: zero-padded gather, where request i's valid rows
      // form the prefix of padded row-block i (build_seq_offsets' prefix-mask
      // convention), then a scatter back to valid-rows-only tensors. No
      // cache is possible here (the constructor requires zero_padding).
      const std::int64_t rows =
          static_cast<std::int64_t>(mb.indices.size()) * mb.max_len;
      auto in = ws_.get<fp16_t>("engine.in", rows * h);
      auto out = ws_.get<fp16_t>("engine.out", rows * h);
      std::memset(in.data(), 0, static_cast<std::size_t>(rows * h) * sizeof(fp16_t));
      std::vector<int> mb_lens;
      for (std::size_t j = 0; j < mb.indices.size(); ++j) {
        const Tensor<fp16_t>& src =
            queue_[static_cast<std::size_t>(mb.indices[j])].hidden;
        mb_lens.push_back(static_cast<int>(src.dim(0)));
        std::memcpy(in.data() + static_cast<std::int64_t>(j) * mb.max_len * h,
                    src.data(), static_cast<std::size_t>(src.size()) * sizeof(fp16_t));
      }
      const core::SeqOffsets off = core::build_seq_offsets(dev_, mb_lens, mb.max_len);
      model_->forward(dev_, in.data(), out.data(), off, opts_.flags, ws_, &stages);
      for (std::size_t j = 0; j < mb.indices.size(); ++j) {
        Tensor<fp16_t>& output =
            responses[static_cast<std::size_t>(mb.indices[j])].output;
        output = Tensor<fp16_t>({mb_lens[j], h});
        std::memcpy(output.data(),
                    out.data() + static_cast<std::int64_t>(j) * mb.max_len * h,
                    static_cast<std::size_t>(output.size()) * sizeof(fp16_t));
      }
    }
    const double compute = t.seconds();
    stats_.compute_seconds += compute;

    for (int i : mb.indices) {
      const auto pos = static_cast<std::size_t>(i);
      Response& r = responses[pos];
      r.id = queue_[pos].id;
      r.queue_seconds = queue_secs[pos];
      r.compute_seconds = compute;
      r.round = stats_.batches;  // 0-based: incremented after the round
      r.stages = stages;
      r.session = std::move(queue_[pos].session);
    }
  }

  queue_.erase(queue_.begin(),
               queue_.begin() + static_cast<std::ptrdiff_t>(count));
  stats_.requests += static_cast<long long>(count);
  stats_.batches += 1;
  stats_.micro_batches += static_cast<long long>(plan.micro.size());
  // Token counters count COMPUTED tokens only: a hit's cached prefix was
  // not processed this round, which is the whole point.
  stats_.valid_tokens += plan.valid_tokens - saved_tokens;
  stats_.processed_tokens += plan.processed_tokens - saved_tokens;
  stats_.workspace_allocations = static_cast<long long>(ws_.allocations());
  return responses;
}

std::size_t Engine::discard_pending() {
  const std::size_t n = queue_.size();
  queue_.clear();
  return n;
}

std::vector<Response> Engine::drain() {
  std::vector<Response> all;
  while (!queue_.empty()) {
    std::vector<Response> round = run_batch();
    all.insert(all.end(), std::make_move_iterator(round.begin()),
               std::make_move_iterator(round.end()));
  }
  return all;
}

}  // namespace bt::serving
