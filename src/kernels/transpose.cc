#include "kernels/transpose.h"

#include <algorithm>
#include <cstring>
#include <vector>

namespace bt::kernels {

namespace {

// Bias widened once per call, so each split row is one whole-row add.
template <typename T>
std::vector<float> widen_bias(const T* bias, std::int64_t n) {
  std::vector<float> out(static_cast<std::size_t>(n));
  convert_row_f32(bias, out.data(), n);
  return out;
}

// dst[j] = src[j] + bias[j], j in [0, n): widened a chunk at a time and
// narrowed whole-row (the same RNE rounding as a per-element store).
template <typename T>
void add_bias_row(const T* src, const float* bias, T* dst, std::int64_t n) {
  constexpr std::int64_t kChunk = 64;
  float buf[kChunk];
  for (std::int64_t j0 = 0; j0 < n; j0 += kChunk) {
    const std::int64_t c = std::min(kChunk, n - j0);
    convert_row_f32(src + j0, buf, c);
    for (std::int64_t j = 0; j < c; ++j) buf[j] += bias[j0 + j];
    convert_row_from_f32(buf, dst + j0, c);
  }
}

template <typename T>
void split_padded_impl(par::Device& dev, const T* qkv, const T* qkv_bias,
                       T* q, T* k, T* v, int batch, int max_seq, int heads,
                       int head_size) {
  const std::int64_t hidden = static_cast<std::int64_t>(heads) * head_size;
  const std::int64_t tokens = static_cast<std::int64_t>(batch) * max_seq;
  const std::vector<float> bias_f = widen_bias(qkv_bias, 3 * hidden);
  // q/k/v laid out [batch, heads, max_seq, head_size]; for token (b, s) the
  // head-h row is ((b*heads + h)*max_seq + s).
  dev.parallel_for(0, tokens, /*grain=*/8, [&](std::int64_t t) {
    const std::int64_t b = t / max_seq;
    const std::int64_t s = t % max_seq;
    const T* src = qkv + t * 3 * hidden;
    T* outs[3] = {q, k, v};
    for (int which = 0; which < 3; ++which) {
      for (int h = 0; h < heads; ++h) {
        const std::int64_t col = which * hidden + h * head_size;
        add_bias_row(src + col, bias_f.data() + col,
                     outs[which] + ((b * heads + h) * max_seq + s) * head_size,
                     head_size);
      }
    }
  });
}

template <typename T>
void split_rebuild_impl(par::Device& dev, const T* qkv, const T* qkv_bias,
                        T* q, T* k, T* v, const core::SeqOffsets& off,
                        int heads, int head_size) {
  const std::int64_t hidden = static_cast<std::int64_t>(heads) * head_size;
  const std::int64_t max_seq = off.max_seq;
  // Zero-fill the padded outputs first (rebuild padding), then scatter valid
  // tokens. Zeroing is fused here rather than a separate pipeline step.
  T* outs[3] = {q, k, v};
  for (int which = 0; which < 3; ++which) {
    T* dst = outs[which];
    dev.parallel_for(0, off.batch * static_cast<std::int64_t>(heads),
                     /*grain=*/1, [&](std::int64_t row) {
                       std::memset(dst + row * max_seq * head_size, 0,
                                   sizeof(T) * static_cast<std::size_t>(
                                                   max_seq * head_size));
                     });
  }
  const std::vector<float> bias_f = widen_bias(qkv_bias, 3 * hidden);
  dev.parallel_for(0, off.valid_count, /*grain=*/8, [&](std::int64_t t) {
    const std::int64_t padded = off.packed_to_padded[static_cast<std::size_t>(t)];
    const std::int64_t b = padded / max_seq;
    const std::int64_t s = padded % max_seq;
    const T* src = qkv + t * 3 * hidden;
    for (int which = 0; which < 3; ++which) {
      for (int h = 0; h < heads; ++h) {
        const std::int64_t col = which * hidden + h * head_size;
        add_bias_row(src + col, bias_f.data() + col,
                     outs[which] + ((b * heads + h) * max_seq + s) * head_size,
                     head_size);
      }
    }
  });
}

template <typename T>
void split_packed_impl(par::Device& dev, const T* qkv, const T* qkv_bias,
                       T* q, T* k, T* v, std::int64_t valid, int heads,
                       int head_size) {
  const std::int64_t hidden = static_cast<std::int64_t>(heads) * head_size;
  T* outs[3] = {q, k, v};
  const std::vector<float> bias_f = widen_bias(qkv_bias, 3 * hidden);
  dev.parallel_for(0, valid, /*grain=*/8, [&](std::int64_t t) {
    const T* src = qkv + t * 3 * hidden;
    for (int which = 0; which < 3; ++which) {
      add_bias_row(src + which * hidden, bias_f.data() + which * hidden,
                   outs[which] + t * hidden, hidden);
    }
  });
}

template <typename T>
void merge_padded_impl(par::Device& dev, const T* ctx, T* out, int batch,
                       int max_seq, int heads, int head_size) {
  const std::int64_t hidden = static_cast<std::int64_t>(heads) * head_size;
  const std::int64_t tokens = static_cast<std::int64_t>(batch) * max_seq;
  dev.parallel_for(0, tokens, /*grain=*/8, [&](std::int64_t t) {
    const std::int64_t b = t / max_seq;
    const std::int64_t s = t % max_seq;
    T* dst = out + t * hidden;
    for (int h = 0; h < heads; ++h) {
      const T* src = ctx + ((b * heads + h) * max_seq + s) * head_size;
      std::memcpy(dst + static_cast<std::int64_t>(h) * head_size, src,
                  sizeof(T) * static_cast<std::size_t>(head_size));
    }
  });
}

template <typename T>
void merge_remove_impl(par::Device& dev, const T* ctx, T* out,
                       const core::SeqOffsets& off, int heads, int head_size) {
  const std::int64_t hidden = static_cast<std::int64_t>(heads) * head_size;
  const std::int64_t max_seq = off.max_seq;
  dev.parallel_for(0, off.valid_count, /*grain=*/8, [&](std::int64_t t) {
    const std::int64_t padded = off.packed_to_padded[static_cast<std::size_t>(t)];
    const std::int64_t b = padded / max_seq;
    const std::int64_t s = padded % max_seq;
    T* dst = out + t * hidden;
    for (int h = 0; h < heads; ++h) {
      const T* src = ctx + ((b * heads + h) * max_seq + s) * head_size;
      std::memcpy(dst + static_cast<std::int64_t>(h) * head_size, src,
                  sizeof(T) * static_cast<std::size_t>(head_size));
    }
  });
}

}  // namespace

void split_qkv_add_bias_padded(par::Device& dev, const fp16_t* qkv,
                               const fp16_t* qkv_bias, fp16_t* q, fp16_t* k,
                               fp16_t* v, int batch, int max_seq, int heads,
                               int head_size) {
  split_padded_impl(dev, qkv, qkv_bias, q, k, v, batch, max_seq, heads,
                    head_size);
}
void split_qkv_add_bias_padded(par::Device& dev, const float* qkv,
                               const float* qkv_bias, float* q, float* k,
                               float* v, int batch, int max_seq, int heads,
                               int head_size) {
  split_padded_impl(dev, qkv, qkv_bias, q, k, v, batch, max_seq, heads,
                    head_size);
}

void split_qkv_add_bias_rebuild_padding(par::Device& dev, const fp16_t* qkv,
                                        const fp16_t* qkv_bias, fp16_t* q,
                                        fp16_t* k, fp16_t* v,
                                        const core::SeqOffsets& off, int heads,
                                        int head_size) {
  split_rebuild_impl(dev, qkv, qkv_bias, q, k, v, off, heads, head_size);
}
void split_qkv_add_bias_rebuild_padding(par::Device& dev, const float* qkv,
                                        const float* qkv_bias, float* q,
                                        float* k, float* v,
                                        const core::SeqOffsets& off, int heads,
                                        int head_size) {
  split_rebuild_impl(dev, qkv, qkv_bias, q, k, v, off, heads, head_size);
}

void split_qkv_add_bias_packed(par::Device& dev, const fp16_t* qkv,
                               const fp16_t* qkv_bias, fp16_t* q, fp16_t* k,
                               fp16_t* v, std::int64_t valid, int heads,
                               int head_size) {
  split_packed_impl(dev, qkv, qkv_bias, q, k, v, valid, heads, head_size);
}
void split_qkv_add_bias_packed(par::Device& dev, const float* qkv,
                               const float* qkv_bias, float* q, float* k,
                               float* v, std::int64_t valid, int heads,
                               int head_size) {
  split_packed_impl(dev, qkv, qkv_bias, q, k, v, valid, heads, head_size);
}

void merge_heads_padded(par::Device& dev, const fp16_t* ctx, fp16_t* out,
                        int batch, int max_seq, int heads, int head_size) {
  merge_padded_impl(dev, ctx, out, batch, max_seq, heads, head_size);
}
void merge_heads_padded(par::Device& dev, const float* ctx, float* out,
                        int batch, int max_seq, int heads, int head_size) {
  merge_padded_impl(dev, ctx, out, batch, max_seq, heads, head_size);
}

void merge_heads_remove_padding(par::Device& dev, const fp16_t* ctx,
                                fp16_t* out, const core::SeqOffsets& off,
                                int heads, int head_size) {
  merge_remove_impl(dev, ctx, out, off, heads, head_size);
}
void merge_heads_remove_padding(par::Device& dev, const float* ctx,
                                float* out, const core::SeqOffsets& off,
                                int heads, int head_size) {
  merge_remove_impl(dev, ctx, out, off, heads, head_size);
}

}  // namespace bt::kernels
