// Variable-length request generation and trace replay for the benches and
// the serving example.
//
// The paper draws sequence lengths "randomly based on a uniform distribution
// with a range from 1 to the maximum length" and sweeps the
// average-to-maximum ratio (alpha) from 0.1 to 1.0 with a default of 0.6.
// gen_lengths produces a uniform integer distribution whose mean is
// alpha * max_seq: U[1, 2*alpha*max] for alpha <= 0.5 and
// U[(2*alpha-1)*max, max] for alpha > 0.5.
//
// replay_trace is the real-time driver of serving_simulator and bench_obs:
// submit each request when its Poisson timestamp comes due, and stamp
// completions by polling readiness across every outstanding future — with
// several replicas futures resolve out of submission order, so an in-order
// get() loop would credit an early completion with a lower-index
// straggler's finish time and inflate the multi-replica percentiles.
#pragma once

#include <atomic>
#include <functional>
#include <future>
#include <span>
#include <vector>

#include "common/rng.h"
#include "serving/engine.h"

namespace bt::serving {

std::vector<int> gen_lengths(int batch, int max_seq, double alpha, Rng& rng);

// Poisson-process arrival offsets (seconds) for the online-serving example.
std::vector<double> gen_arrivals(int count, double requests_per_second,
                                 Rng& rng);

// Per-request outcome of one real-time replay.
struct ReplayResult {
  // Completion time of each request, seconds since replay start (stamped by
  // a readiness poll; the poll period quantization is ~200 us, noise
  // against ms-scale latencies). Failed requests are stamped too — the
  // moment their future resolved with an exception.
  std::vector<double> done_seconds;
  // True where the future resolved with an exception (e.g. a shed request's
  // DeadlineExceeded) instead of a Response.
  std::vector<char> failed;
  double last_done_seconds = 0;  // completion time of the final request
  // How many requests were actually submitted. Equal to requests.size()
  // on a full replay; smaller when an interrupt cut the replay short —
  // entries at index >= submitted have done_seconds == -1 and failed == 0.
  std::size_t submitted = 0;

  long long failures() const {
    long long n = 0;
    for (char f : failed) n += f ? 1 : 0;
    return n;
  }
};

// Replays `requests` against `submit` in real time: request i is submitted
// when arrivals[i] (seconds since replay start) comes due; between and
// after submissions, outstanding futures are polled for readiness.
// `arrivals` must be non-decreasing and the same length as `requests`.
// `submit` is called on the replay thread and may block (backpressure).
//
// `interrupt`, when non-null, makes the replay cancellable from a signal
// handler or another thread: once it reads true, no further requests are
// submitted, but every future already in flight is still drained — so the
// partial result is internally consistent and a report can be printed for
// exactly the traffic that ran (see ReplayResult::submitted).
ReplayResult replay_trace(
    std::span<const double> arrivals, std::vector<Request> requests,
    const std::function<std::future<Response>(Request)>& submit,
    const std::atomic<bool>* interrupt = nullptr);

}  // namespace bt::serving
