// Grow-only keyed scratch allocator.
//
// TurboTransformer highlights run-time memory scheduling as a throughput
// lever; this workspace plays that role here: buffers are reused across
// layers/iterations so steady-state inference performs no allocations. Keys
// are stable strings ("mha.scores", "ffn.inner", ...).
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <span>
#include <string>
#include <unordered_map>

#include "common/numeric.h"

namespace bt::core {

class Workspace {
 public:
  Workspace() = default;
  Workspace(const Workspace&) = delete;
  Workspace& operator=(const Workspace&) = delete;
  Workspace(Workspace&&) = default;
  Workspace& operator=(Workspace&&) = default;

  // Returns a buffer of at least `count` elements, reusing (and growing)
  // the keyed allocation. Contents are unspecified.
  template <typename T>
  std::span<T> get(const std::string& key, std::int64_t count) {
    const std::size_t bytes =
        static_cast<std::size_t>(round_up(static_cast<std::int64_t>(
                                              count * static_cast<std::int64_t>(sizeof(T))),
                                          static_cast<std::int64_t>(kCacheLine)));
    Buffer& buf = buffers_[key];
    if (buf.bytes < bytes) {
      buf.data.reset(static_cast<std::byte*>(std::aligned_alloc(kCacheLine, bytes)));
      buf.bytes = bytes;
      ++allocations_;
    }
    return {reinterpret_cast<T*>(buf.data.get()), static_cast<std::size_t>(count)};
  }

  std::size_t total_bytes() const {
    std::size_t total = 0;
    for (const auto& [k, b] : buffers_) total += b.bytes;
    return total;
  }

  // Cumulative count of (re)allocations performed by get(). Steady-state
  // reuse holds this constant — the observable behind
  // EngineStats::workspace_allocations (a round no larger than one already
  // served must not allocate).
  std::size_t allocations() const { return allocations_; }

 private:
  struct FreeDeleter {
    void operator()(std::byte* p) const noexcept { std::free(p); }
  };
  struct Buffer {
    std::unique_ptr<std::byte, FreeDeleter> data;
    std::size_t bytes = 0;
  };
  std::unordered_map<std::string, Buffer> buffers_;
  std::size_t allocations_ = 0;
};

}  // namespace bt::core
