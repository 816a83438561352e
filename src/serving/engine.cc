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

namespace {

// Stages each layer's packed QKV rows into one [layers, rows, 3*hidden]
// buffer during a forward pass, so the engine can slice per-request row
// ranges out afterwards and insert them into the prefix cache.
class StagingCaptureSink final : public core::QkvCaptureSink {
 public:
  StagingCaptureSink(fp16_t* buf, std::int64_t rows, std::int64_t hidden)
      : buf_(buf), rows_(rows), hidden_(hidden) {}

  void on_layer_qkv(int layer, const fp16_t* qkv) override {
    std::memcpy(buf_ + static_cast<std::int64_t>(layer) * rows_ * 3 * hidden_,
                qkv,
                static_cast<std::size_t>(rows_ * 3 * hidden_) *
                    sizeof(fp16_t));
  }

 private:
  fp16_t* buf_;
  std::int64_t rows_;
  std::int64_t hidden_;
};

}  // namespace

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

  // Prefix-cache probe: sessioned requests whose input extends a cached
  // prefix are peeled out of the batch and resumed together in one packed
  // pass; everything else (sessionless, cache miss, cache off) runs the
  // batched path below.
  struct CacheHit {
    std::size_t pos;  // queue / responses position
    std::string key;
    std::shared_ptr<const cache::PrefixEntry> entry;
  };
  std::vector<CacheHit> hits;
  std::vector<std::size_t> miss;  // miss-local index -> queue position
  miss.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    const Pending& p = queue_[i];
    if (opts_.prefix_cache != nullptr && p.session.has_value()) {
      std::string key =
          cache::PrefixCache::session_key(opts_.cache_scope, *p.session);
      auto entry =
          opts_.prefix_cache->probe(key, p.hidden.data(), p.hidden.dim(0));
      if (entry != nullptr) {
        hits.push_back(CacheHit{i, std::move(key), std::move(entry)});
        continue;
      }
      stats_.cache_misses += 1;
    }
    miss.push_back(i);
  }

  // Resumed requests: every hit of the round runs in ONE packed model pass
  // that encodes only the suffixes (core/model.h forward_resume). Each
  // result is bitwise identical to a full single-sequence re-encode, and
  // each extended state goes straight back into the cache for the next
  // round. Shortest first, so each attention regime is one contiguous run.
  if (!hits.empty()) {
    std::stable_sort(hits.begin(), hits.end(),
                     [&](const CacheHit& a, const CacheHit& b) {
                       return queue_[a.pos].hidden.dim(0) <
                              queue_[b.pos].hidden.dim(0);
                     });
    std::vector<core::BertModel::ResumeSeq> seqs;
    std::int64_t suffix_rows = 0;
    for (const CacheHit& hit : hits) {
      const std::int64_t total = queue_[hit.pos].hidden.dim(0);
      seqs.push_back({hit.entry->qkv.data(), static_cast<int>(hit.entry->length),
                      static_cast<int>(total)});
      suffix_rows += total - hit.entry->length;
    }
    auto in = ws_.get<fp16_t>("engine.resume_in", suffix_rows * h);
    auto out = ws_.get<fp16_t>("engine.resume_out", suffix_rows * h);
    auto suffix_qkv = ws_.get<fp16_t>("engine.cache_suffix_qkv",
                                      layers * suffix_rows * 3 * h);
    std::int64_t row = 0;
    for (const CacheHit& hit : hits) {
      const Tensor<fp16_t>& hidden_rows = queue_[hit.pos].hidden;
      const std::int64_t prefix = hit.entry->length;
      const std::int64_t suffix = hidden_rows.dim(0) - prefix;
      std::memcpy(in.data() + row * h, hidden_rows.data() + prefix * h,
                  static_cast<std::size_t>(suffix * h) * sizeof(fp16_t));
      row += suffix;
    }

    StageTimes stages;
    Timer t;
    model_->forward_resume(dev_, seqs, in.data(), out.data(),
                           suffix_qkv.data(), opts_.flags, ws_, &stages);
    const double compute = t.seconds();
    stats_.compute_seconds += compute;
    stats_.micro_batches += 1;

    row = 0;
    for (CacheHit& hit : hits) {
      Pending& p = queue_[hit.pos];
      const std::int64_t total = p.hidden.dim(0);
      const std::int64_t prefix = hit.entry->length;
      const std::int64_t suffix = total - prefix;
      Response& r = responses[hit.pos];
      r.id = p.id;
      r.output = Tensor<fp16_t>({total, h});
      // Prefix output rows come straight from the cache — zero compute.
      std::memcpy(r.output.data(), hit.entry->output.data(),
                  static_cast<std::size_t>(prefix * h) * sizeof(fp16_t));
      std::memcpy(r.output.data() + prefix * h, out.data() + row * h,
                  static_cast<std::size_t>(suffix * h) * sizeof(fp16_t));
      opts_.prefix_cache->extend(hit.key, hit.entry,
                                 p.hidden.data() + prefix * h, total,
                                 suffix_qkv.data() + row * 3 * h, suffix_rows,
                                 out.data() + row * h);
      // The cache now holds the extended sibling: drop the base before the
      // next hit's extension allocates, so a round never holds both copies
      // of every hit.
      hit.entry.reset();
      row += suffix;

      r.queue_seconds = queue_secs[hit.pos];
      r.compute_seconds = compute;
      r.round = stats_.batches;
      r.stages = stages;
      r.session = std::move(p.session);
      // Token counters count COMPUTED tokens only: the prefix was not
      // processed this round, which is the whole point.
      stats_.valid_tokens += suffix;
      stats_.processed_tokens += suffix;
      stats_.cache_hits += 1;
      stats_.cache_hit_suffix_tokens += suffix;
      stats_.cache_saved_tokens += prefix;
    }
  }

  // Batched path over the misses (the entire round when the cache is off).
  BatchPlan plan;
  if (!miss.empty()) {
    std::vector<int> lengths(miss.size());
    for (std::size_t i = 0; i < miss.size(); ++i) {
      lengths[i] = static_cast<int>(queue_[miss[i]].hidden.dim(0));
    }
    plan = plan_batch(opts_.policy, lengths, opts_.group_size);

    for (const MicroBatch& mb : plan.micro) {
      const std::int64_t gb = static_cast<std::int64_t>(mb.indices.size());
      const std::int64_t rows = gb * mb.max_len;
      auto in = ws_.get<fp16_t>("engine.in", rows * h);
      auto out = ws_.get<fp16_t>("engine.out", rows * h);

      // Zero-padded gather: request i's valid rows form the prefix of padded
      // row-block i, matching build_seq_offsets' prefix-mask convention.
      std::memset(in.data(), 0, static_cast<std::size_t>(rows * h) * sizeof(fp16_t));
      std::vector<int> mb_lens(mb.indices.size());
      bool capture_wanted = false;
      for (std::size_t i = 0; i < mb.indices.size(); ++i) {
        const Pending& p =
            queue_[miss[static_cast<std::size_t>(mb.indices[i])]];
        mb_lens[i] = static_cast<int>(p.hidden.dim(0));
        std::memcpy(in.data() + static_cast<std::int64_t>(i) * mb.max_len * h,
                    p.hidden.data(),
                    static_cast<std::size_t>(p.hidden.size()) * sizeof(fp16_t));
        capture_wanted |=
            opts_.prefix_cache != nullptr && p.session.has_value();
      }
      const core::SeqOffsets off = core::build_seq_offsets(dev_, mb_lens, mb.max_len);

      // Sessioned misses populate the cache from this very forward pass:
      // the sink stages every layer's packed QKV rows, and the insert loop
      // below slices each request's row range out by its packed offset.
      std::optional<StagingCaptureSink> sink;
      std::span<fp16_t> capture;
      if (capture_wanted) {
        capture = ws_.get<fp16_t>("engine.cache_capture",
                                  layers * off.valid_count * 3 * h);
        sink.emplace(capture.data(), off.valid_count, h);
      }

      StageTimes stages;
      Timer t;
      model_->forward(dev_, in.data(), out.data(), off, opts_.flags, ws_,
                      &stages, capture_wanted ? &*sink : nullptr);
      const double compute = t.seconds();
      stats_.compute_seconds += compute;

      // Per-request scatter back to valid-rows-only tensors.
      for (std::size_t i = 0; i < mb.indices.size(); ++i) {
        const std::size_t pos =
            miss[static_cast<std::size_t>(mb.indices[i])];
        Response& r = responses[pos];
        r.id = queue_[pos].id;
        r.output = Tensor<fp16_t>({mb_lens[i], h});
        std::memcpy(r.output.data(),
                    out.data() + static_cast<std::int64_t>(i) * mb.max_len * h,
                    static_cast<std::size_t>(r.output.size()) * sizeof(fp16_t));
        if (capture_wanted && queue_[pos].session.has_value()) {
          const Pending& p = queue_[pos];
          opts_.prefix_cache->insert(
              cache::PrefixCache::session_key(opts_.cache_scope, *p.session),
              p.hidden.data(), mb_lens[i], layers, h,
              capture.data() +
                  off.batch_offset[static_cast<std::size_t>(i)] * 3 * h,
              off.valid_count, r.output.data());
        }
        r.queue_seconds = queue_secs[pos];
        r.compute_seconds = compute;
        r.round = stats_.batches;  // 0-based: incremented after the round
        r.stages = stages;
        r.session = std::move(queue_[pos].session);  // each pos scatters once
      }
    }
  }

  queue_.erase(queue_.begin(),
               queue_.begin() + static_cast<std::ptrdiff_t>(count));
  stats_.requests += static_cast<long long>(count);
  stats_.batches += 1;
  stats_.micro_batches += static_cast<long long>(plan.micro.size());
  stats_.valid_tokens += plan.valid_tokens;
  stats_.processed_tokens += plan.processed_tokens;
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
