#include "serving/scheduler.h"

#include <algorithm>
#include <numeric>

namespace bt::serving {

namespace {

MicroBatch whole_batch(std::span<const int> lengths) {
  MicroBatch mb;
  mb.indices.resize(lengths.size());
  std::iota(mb.indices.begin(), mb.indices.end(), 0);
  mb.max_len = *std::max_element(lengths.begin(), lengths.end());
  mb.valid_tokens = std::accumulate(lengths.begin(), lengths.end(), 0LL);
  return mb;
}

// kSortGroup geometry: sort by descending length, chunk into micro-batches
// of at most `group_size` requests, each padded to its own longest request.
// group_size <= 0 means one group (pad-to-max geometry).
std::vector<MicroBatch> group_by_length(std::span<const int> lengths,
                                        int group_size) {
  std::vector<int> order(lengths.size());
  std::iota(order.begin(), order.end(), 0);
  // stable_sort over the iota order: equal-length requests keep ascending
  // submission-index order, so micro-batch composition is identical across
  // platforms (std::sort leaves ties implementation-defined).
  std::stable_sort(order.begin(), order.end(), [&](int a, int b) {
    return lengths[static_cast<std::size_t>(a)] >
           lengths[static_cast<std::size_t>(b)];
  });
  if (group_size <= 0) group_size = static_cast<int>(lengths.size());

  std::vector<MicroBatch> groups;
  for (std::size_t i = 0; i < order.size();
       i += static_cast<std::size_t>(group_size)) {
    MicroBatch mb;
    const std::size_t end =
        std::min(order.size(), i + static_cast<std::size_t>(group_size));
    mb.indices.assign(order.begin() + static_cast<std::ptrdiff_t>(i),
                      order.begin() + static_cast<std::ptrdiff_t>(end));
    mb.max_len = lengths[static_cast<std::size_t>(mb.indices.front())];
    for (int idx : mb.indices) {
      mb.valid_tokens += lengths[static_cast<std::size_t>(idx)];
    }
    groups.push_back(std::move(mb));
  }
  return groups;
}

}  // namespace

BatchPlan plan_batch(BatchPolicy policy, std::span<const int> lengths,
                     int group_size, bool packed) {
  BatchPlan plan;
  plan.policy = policy;
  if (lengths.empty()) return plan;

  switch (policy) {
    case BatchPolicy::kPadToMax:
    case BatchPolicy::kPacked:
      plan.micro.push_back(whole_batch(lengths));
      break;
    case BatchPolicy::kSortGroup:
      plan.micro = group_by_length(lengths, group_size);
      break;
  }

  for (MicroBatch& mb : plan.micro) {
    mb.packed = packed;
    plan.valid_tokens += mb.valid_tokens;
    plan.processed_tokens += mb.processed_tokens();
  }
  return plan;
}

}  // namespace bt::serving
