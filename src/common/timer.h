// Wall-clock timing utilities for the benchmark harness and the Fig. 3
// pipeline breakdown instrumentation.
#pragma once

#include <array>
#include <chrono>
#include <cstddef>
#include <cstdint>

namespace bt {

class Timer {
 public:
  Timer() : start_(clock::now()) {}

  void reset() { start_ = clock::now(); }

  double seconds() const {
    return std::chrono::duration<double>(clock::now() - start_).count();
  }
  double millis() const { return seconds() * 1e3; }

 private:
  using clock = std::chrono::steady_clock;
  clock::time_point start_;
};

// The modules the paper profiles in one encoder layer (Fig. 3), in pipeline
// order, plus the pack/unpack of the zero-padding path. Split/merge
// transposes count as kAttention; kAddBiasGelu runs only when bias+GELU is
// not fused into GEMM #2.
enum class Stage : std::uint8_t {
  kPadding,
  kGemm0,
  kAttention,
  kGemm1,
  kLayernorm0,
  kGemm2,
  kAddBiasGelu,
  kGemm3,
  kLayernorm1,
};

inline constexpr std::size_t kStageCount =
    static_cast<std::size_t>(Stage::kLayernorm1) + 1;

// Every stage in pipeline order, for walking a StageTimes.
inline constexpr std::array<Stage, kStageCount> kStages = {
    Stage::kPadding, Stage::kGemm0, Stage::kAttention,
    Stage::kGemm1, Stage::kLayernorm0, Stage::kGemm2,
    Stage::kAddBiasGelu, Stage::kGemm3, Stage::kLayernorm1,
};

constexpr const char* stage_name(Stage stage) {
  constexpr const char* kNames[kStageCount] = {
      "padding", "gemm0",         "attention", "gemm1",     "layernorm0",
      "gemm2",   "add_bias_gelu", "gemm3",     "layernorm1",
  };
  return kNames[static_cast<std::size_t>(stage)];
}

// Seconds per stage, summed over every layer and pass that recorded into
// it. A plain array: copying one into each Response allocates nothing.
class StageTimes {
 public:
  void add(Stage stage, double seconds) {
    seconds_[static_cast<std::size_t>(stage)] += seconds;
  }
  double operator[](Stage stage) const {
    return seconds_[static_cast<std::size_t>(stage)];
  }
  void clear() { seconds_ = {}; }

  double total_seconds() const {
    double s = 0;
    for (double v : seconds_) s += v;
    return s;
  }

 private:
  std::array<double, kStageCount> seconds_{};
};

// RAII stage scope: adds elapsed time to `(*times)[stage]` on destruction.
// A null StageTimes pointer turns instrumentation off with zero overhead in
// the hot path beyond one branch.
class StageScope {
 public:
  StageScope(StageTimes* times, Stage stage) : times_(times), stage_(stage) {}
  ~StageScope() {
    if (times_ != nullptr) times_->add(stage_, timer_.seconds());
  }
  StageScope(const StageScope&) = delete;
  StageScope& operator=(const StageScope&) = delete;

 private:
  StageTimes* times_;
  Stage stage_;
  Timer timer_;
};

}  // namespace bt
