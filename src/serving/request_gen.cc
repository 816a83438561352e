#include "serving/request_gen.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cmath>
#include <stdexcept>
#include <thread>
#include <utility>

namespace bt::serving {

std::vector<int> gen_lengths(int batch, int max_seq, double alpha, Rng& rng) {
  assert(alpha > 0.0 && alpha <= 1.0);
  int lo = 1;
  int hi = max_seq;
  if (alpha <= 0.5) {
    hi = std::max(1, static_cast<int>(std::lround(2.0 * alpha * max_seq)));
  } else {
    lo = std::min(max_seq,
                  std::max(1, static_cast<int>(std::lround(
                                  (2.0 * alpha - 1.0) * max_seq))));
  }
  std::vector<int> lens(static_cast<std::size_t>(batch));
  for (int& l : lens) l = rng.uniform_int(lo, hi);
  return lens;
}

std::vector<double> gen_arrivals(int count, double requests_per_second,
                                 Rng& rng) {
  std::vector<double> t(static_cast<std::size_t>(count));
  double now = 0.0;
  for (double& x : t) {
    // Exponential inter-arrival times.
    const double u = std::max(1e-12, static_cast<double>(rng.uniform(0.0f, 1.0f)));
    now += -std::log(u) / requests_per_second;
    x = now;
  }
  return t;
}

ReplayResult replay_trace(
    std::span<const double> arrivals, std::vector<Request> requests,
    const std::function<std::future<Response>(Request)>& submit,
    const std::atomic<bool>* interrupt) {
  using clock = std::chrono::steady_clock;
  constexpr auto kPollPeriod = std::chrono::microseconds(200);
  if (arrivals.size() != requests.size()) {
    // Enforced in every build: a shorter arrivals span would otherwise be
    // indexed out of bounds over requests.size() iterations.
    throw std::invalid_argument(
        "replay_trace: arrivals and requests must have the same length");
  }
  const std::size_t n = requests.size();

  ReplayResult result;
  result.done_seconds.assign(n, -1.0);
  result.failed.assign(n, 0);

  // Shared, so each future's state outlives the catch that reads a failure:
  // ThreadSanitizer does not see libsupc++'s exception refcount, and a plain
  // future::get() drops the state before the error is read.
  std::vector<std::shared_future<Response>> futures(n);
  std::size_t submitted = 0;
  std::size_t resolved = 0;
  const auto start = clock::now();
  const auto poll = [&] {
    for (std::size_t i = 0; i < submitted; ++i) {
      if (result.done_seconds[i] < 0 &&
          futures[i].wait_for(std::chrono::seconds(0)) ==
              std::future_status::ready) {
        result.done_seconds[i] =
            std::chrono::duration<double>(clock::now() - start).count();
        ++resolved;
        try {
          futures[i].get();
        } catch (...) {
          result.failed[i] = 1;  // e.g. DeadlineExceeded on a shed request
        }
      }
    }
  };

  const auto interrupted = [&] {
    return interrupt != nullptr && interrupt->load(std::memory_order_relaxed);
  };

  for (std::size_t i = 0; i < n && !interrupted(); ++i) {
    const auto due = start + std::chrono::duration_cast<clock::duration>(
                                 std::chrono::duration<double>(arrivals[i]));
    while (clock::now() < due && !interrupted()) {
      poll();
      std::this_thread::sleep_for(
          std::min<clock::duration>(kPollPeriod, due - clock::now()));
    }
    if (interrupted()) break;
    futures[i] = submit(std::move(requests[i])).share();
    ++submitted;
  }
  // Drain what was submitted — even on interrupt, so the partial result is
  // consistent and in-flight work is accounted before the caller tears the
  // serving stack down.
  while (resolved < submitted) {
    poll();
    if (resolved < submitted) std::this_thread::sleep_for(kPollPeriod);
  }
  result.submitted = submitted;
  for (double d : result.done_seconds) {
    result.last_done_seconds = std::max(result.last_done_seconds, d);
  }
  return result;
}

}  // namespace bt::serving
