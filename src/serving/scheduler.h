// Batch scheduling: turns the lengths of a set of queued requests into a
// concrete execution plan under a batching policy.
//
// The three policies mirror the serving strategies the paper compares:
//   * kPadToMax  — one micro-batch, every sequence padded to the batch max
//                  (conventional frameworks);
//   * kSortGroup — sort by length, chunk into groups of `group_size`, pad
//                  each group to its own max (TurboTransformer SmartBatch);
//   * kPacked    — one micro-batch run through the padding-free pipeline,
//                  so the compute processes exactly the valid tokens
//                  (ByteTransformer).
// The policy decides only the grouping. Whether a micro-batch is padded is
// the pipeline's choice (OptFlags::zero_padding): under packed flags the
// Engine runs every micro-batch padding-free, so kPadToMax and kPacked give
// one plan and no policy reports padding it never computed.
//
// The plan is pure geometry — request indices, pad targets, and token
// accounting — so it is unit-testable without a model and reusable by both
// the Engine and the benches.
#pragma once

#include <cstddef>
#include <span>
#include <vector>


namespace bt::serving {

enum class BatchPolicy { kPadToMax, kSortGroup, kPacked };

constexpr const char* batch_policy_name(BatchPolicy p) {
  switch (p) {
    case BatchPolicy::kPadToMax: return "pad-to-max";
    case BatchPolicy::kSortGroup: return "sort+group";
    case BatchPolicy::kPacked: return "packed";
  }
  return "?";
}

// One model invocation: which requests ride together and the pad target.
struct MicroBatch {
  std::vector<int> indices;  // positions into the scheduled length span
  int max_len = 0;           // pad target for this invocation
  bool packed = false;       // padding-free pipeline: compute sees valid rows
  long long valid_tokens = 0;

  // Tokens the compute pipeline processes for this invocation: the padded
  // grid for padded geometry, exactly the valid tokens when packed.
  long long processed_tokens() const {
    return packed ? valid_tokens
                  : static_cast<long long>(indices.size()) * max_len;
  }
};

struct BatchPlan {
  BatchPolicy policy = BatchPolicy::kPacked;
  std::vector<MicroBatch> micro;
  long long valid_tokens = 0;
  long long processed_tokens = 0;

  // The waste metric: tokens processed beyond the valid ones.
  long long padding_tokens() const { return processed_tokens - valid_tokens; }
};

// Builds the execution plan for `lengths` under `policy`. `group_size` is
// only meaningful for kSortGroup (<= 0 degenerates to one group, i.e.
// pad-to-max geometry). `packed` marks every micro-batch padding-free (pass
// the pipeline's zero_padding flag). Empty lengths yield an empty plan.
BatchPlan plan_batch(BatchPolicy policy, std::span<const int> lengths,
                     int group_size, bool packed);

// Admission rule shared by Engine::run_batch and AsyncEngine's batching
// window: queue-front requests up to the request cap, stopping at the token
// cap but always admitting at least one (so an oversized request cannot
// wedge the queue). `len_at(i)` returns the length of the i-th queued
// request; keeping the rule in one place guarantees the async scheduler's
// round-fullness predicate and the engine's actual round agree. When
// `admitted_tokens_out` is non-null it receives the admitted prefix's token
// total (the async scheduler uses it to recognize a token-saturated round).
template <typename LenAt>
std::size_t admit_count(std::size_t queued, int max_requests,
                        long long max_tokens, LenAt&& len_at,
                        long long* admitted_tokens_out = nullptr) {
  std::size_t count = 0;
  long long admitted_tokens = 0;
  while (count < queued && count < static_cast<std::size_t>(max_requests)) {
    const long long len = len_at(count);
    if (count > 0 && max_tokens > 0 && admitted_tokens + len > max_tokens) {
      break;
    }
    admitted_tokens += len;
    ++count;
  }
  if (admitted_tokens_out != nullptr) *admitted_tokens_out = admitted_tokens;
  return count;
}

}  // namespace bt::serving
