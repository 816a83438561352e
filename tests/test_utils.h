// Shared helpers for the test suite: FP64 reference implementations of every
// pipeline stage, tensor conversion utilities, input generators, and the
// error code a serving future resolved with.
#pragma once

#include <cmath>
#include <exception>
#include <span>
#include <string>
#include <vector>

#include "attention/attention.h"
#include "common/half.h"
#include "common/numeric.h"
#include "common/rng.h"
#include "core/padding.h"
#include "core/weights.h"
#include "kernels/layernorm.h"
#include "serving/error.h"
#include "tensor/tensor.h"

namespace bt::test {

// ---- conversions ----------------------------------------------------------

template <typename T>
std::vector<double> to_f64(std::span<const T> src) {
  std::vector<double> out(src.size());
  for (std::size_t i = 0; i < src.size(); ++i) {
    out[i] = static_cast<double>(load_f32(src[i]));
  }
  return out;
}

template <typename T>
std::vector<double> to_f64(const Tensor<T>& t) {
  return to_f64(t.view());
}

inline double max_abs_diff_span(std::span<const double> a,
                                std::span<const double> b) {
  double m = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    m = std::max(m, std::abs(a[i] - b[i]));
  }
  return m;
}

// ---- input generators ------------------------------------------------------

// Padded hidden states [batch*max_seq, hidden] with zero padding rows, plus
// offsets, from explicit lengths.
struct VarLenInput {
  core::SeqOffsets off;
  Tensor<fp16_t> padded;  // [batch*max_seq, hidden]
};

inline VarLenInput make_varlen_input(par::Device& dev,
                                     std::span<const int> seq_lens,
                                     int max_seq, int hidden, Rng& rng,
                                     float stddev = 1.0f) {
  VarLenInput in;
  in.off = core::build_seq_offsets(dev, seq_lens, max_seq);
  in.padded = Tensor<fp16_t>::zeros(
      {static_cast<std::int64_t>(seq_lens.size()) * max_seq, hidden});
  for (std::int64_t v = 0; v < in.off.valid_count; ++v) {
    const std::int64_t row = in.off.packed_to_padded[static_cast<std::size_t>(v)];
    for (int j = 0; j < hidden; ++j) {
      in.padded(row, j) = fp16_t(rng.normal(0.0f, stddev));
    }
  }
  return in;
}

// ---- FP64 references -------------------------------------------------------

// C[m,n] = A[m,k] @ B[k,n] (+bias per column, optional tanh-GELU).
inline void ref_gemm_rows(const std::vector<double>& a,
                          const std::vector<double>& b, std::vector<double>& c,
                          std::int64_t m, std::int64_t n, std::int64_t k,
                          const std::vector<double>* bias = nullptr,
                          bool gelu = false) {
  c.assign(static_cast<std::size_t>(m * n), 0.0);
  for (std::int64_t i = 0; i < m; ++i) {
    for (std::int64_t p = 0; p < k; ++p) {
      const double av = a[static_cast<std::size_t>(i * k + p)];
      if (av == 0.0) continue;
      for (std::int64_t j = 0; j < n; ++j) {
        c[static_cast<std::size_t>(i * n + j)] +=
            av * b[static_cast<std::size_t>(p * n + j)];
      }
    }
  }
  if (bias != nullptr) {
    for (std::int64_t i = 0; i < m; ++i) {
      for (std::int64_t j = 0; j < n; ++j) {
        double v = c[static_cast<std::size_t>(i * n + j)] +
                   (*bias)[static_cast<std::size_t>(j)];
        if (gelu) {
          // Must match the kernels' tanh approximation, not erf.
          const double x = v;
          v = 0.5 * x *
              (1.0 + std::tanh(0.7978845608028654 *
                               (x + 0.044715 * x * x * x)));
        }
        c[static_cast<std::size_t>(i * n + j)] = v;
      }
    }
  }
}

// out = layernorm(x + bias + residual) * gamma + beta, rows x hidden.
inline void ref_add_bias_residual_layernorm(
    const std::vector<double>& x, const std::vector<double>& residual,
    const std::vector<double>& bias, const std::vector<double>& gamma,
    const std::vector<double>& beta, std::vector<double>& out,
    std::int64_t rows, std::int64_t hidden) {
  out.assign(static_cast<std::size_t>(rows * hidden), 0.0);
  for (std::int64_t r = 0; r < rows; ++r) {
    double mean = 0;
    std::vector<double> buf(static_cast<std::size_t>(hidden));
    for (std::int64_t j = 0; j < hidden; ++j) {
      buf[static_cast<std::size_t>(j)] =
          x[static_cast<std::size_t>(r * hidden + j)] +
          bias[static_cast<std::size_t>(j)] +
          residual[static_cast<std::size_t>(r * hidden + j)];
      mean += buf[static_cast<std::size_t>(j)];
    }
    mean /= static_cast<double>(hidden);
    double var = 0;
    for (std::int64_t j = 0; j < hidden; ++j) {
      const double d = buf[static_cast<std::size_t>(j)] - mean;
      var += d * d;
    }
    var /= static_cast<double>(hidden);
    const double inv = 1.0 / std::sqrt(var + kernels::kLayerNormEps);
    for (std::int64_t j = 0; j < hidden; ++j) {
      out[static_cast<std::size_t>(r * hidden + j)] =
          (buf[static_cast<std::size_t>(j)] - mean) * inv *
              gamma[static_cast<std::size_t>(j)] +
          beta[static_cast<std::size_t>(j)];
    }
  }
}

// FP64 reference of a full BERT encoder layer on the *padded* layout.
// Weights are read from the FP16 LayerWeights (so the reference sees exactly
// the same rounded weights the kernels do). Padding rows of `input` must be
// zero; padding rows of the returned tensor carry whatever the padded
// pipeline would produce and must not be compared (compare valid rows only).
std::vector<double> ref_encoder_layer(const core::BertConfig& cfg,
                                      const core::LayerWeights& w,
                                      const std::vector<double>& input,
                                      const core::SeqOffsets& off);

// Compares only valid-token rows between a padded FP16 tensor and a padded
// FP64 reference; returns the max abs diff over valid rows.
inline double max_diff_valid_rows(const Tensor<fp16_t>& got,
                                  const std::vector<double>& want,
                                  const core::SeqOffsets& off,
                                  std::int64_t hidden) {
  double m = 0;
  for (std::int64_t v = 0; v < off.valid_count; ++v) {
    const std::int64_t r = off.packed_to_padded[static_cast<std::size_t>(v)];
    for (std::int64_t j = 0; j < hidden; ++j) {
      m = std::max(m, std::abs(static_cast<double>(load_f32(
                                   got.data()[r * hidden + j])) -
                               want[static_cast<std::size_t>(r * hidden + j)]));
    }
  }
  return m;
}

// ---- serving futures -------------------------------------------------------

// Waits for `f` and returns the stable code it resolved with: kOk for a
// value, else the typed serving error's code, with its what() in *message.
// The error is read through a shared_future that holds the future's state
// until the read is done: ThreadSanitizer does not see libsupc++'s
// exception refcount, so a resolving thread that drops the state last must
// be ordered after the read by the state's own count.
template <typename Future>
serving::ErrorCode resolved_code(Future&& f, std::string* message = nullptr) {
  const auto state = f.share();
  try {
    state.get();
    return serving::ErrorCode::kOk;
  } catch (...) {
    return serving::error_code_of(std::current_exception(),
                                  serving::ErrorCode::kInternal, message);
  }
}

}  // namespace bt::test
