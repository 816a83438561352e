#include "kernels/activation.h"

#include <algorithm>
#include <vector>

#include "common/numeric.h"

namespace bt::kernels {

namespace {

// x[r, :] = RowFn(x[r, :], bias) through the same FP32 row helpers the
// fused GEMM epilogues run (common/numeric.h). The bias is widened once per
// call; each row is widened into a stack buffer (1024 columns at a time, so
// any width fits), transformed by one loop, and narrowed back.
template <auto RowFn, typename T>
void bias_rows(par::Device& dev, T* x, const T* bias, std::int64_t rows,
               std::int64_t cols) {
  std::vector<float> bias_f32(static_cast<std::size_t>(cols));
  convert_row_f32(bias, bias_f32.data(), cols);
  dev.parallel_for(0, rows, /*grain=*/8, [&](std::int64_t r) {
    T* row = x + r * cols;
    constexpr std::int64_t kChunk = 1024;
    float buf[kChunk];
    for (std::int64_t j0 = 0; j0 < cols; j0 += kChunk) {
      const std::int64_t n = std::min(kChunk, cols - j0);
      convert_row_f32(row + j0, buf, n);
      RowFn(buf, bias_f32.data() + j0, n);
      convert_row_from_f32(buf, row + j0, n);
    }
  });
}

}  // namespace

void add_bias(par::Device& dev, fp16_t* x, const fp16_t* bias,
              std::int64_t rows, std::int64_t cols) {
  bias_rows<add_bias_row>(dev, x, bias, rows, cols);
}
void add_bias(par::Device& dev, float* x, const float* bias,
              std::int64_t rows, std::int64_t cols) {
  bias_rows<add_bias_row>(dev, x, bias, rows, cols);
}
void add_bias_gelu(par::Device& dev, fp16_t* x, const fp16_t* bias,
                   std::int64_t rows, std::int64_t cols) {
  bias_rows<bias_gelu_row>(dev, x, bias, rows, cols);
}
void add_bias_gelu(par::Device& dev, float* x, const float* bias,
                   std::int64_t rows, std::int64_t cols) {
  bias_rows<bias_gelu_row>(dev, x, bias, rows, cols);
}

}  // namespace bt::kernels
