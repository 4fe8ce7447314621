#pragma once
// Retained naive GEMM reference kernels — the bitwise ground truth.
//
// Serial, untiled i-k-j loops that state the numeric contract of the
// blocked kernels in tensor.cpp (DESIGN.md §11.1). Per output element the
// k-terms accumulate in ascending order, one FMA-contracted `+=` each, and
// a zero left operand skips its whole j-pass (`a(i,k) == 0.0f` for matmul
// and matmul_bt, `a(k,i) == 0.0f` for matmul_at): NaN/Inf in a masked row
// of b (of b^T for matmul_bt) never propagates, and untouched outputs stay
// +0.0f bits.
//
// test_gemm_kernel memcmp-compares every optimized kernel against these,
// and bench/gemm_bench reports the speedup against them. Do not
// "optimize" them.
#include "nn/tensor.hpp"

namespace gp::nn {

inline void matmul_ref(const Tensor& a, const Tensor& b, Tensor& out) {
  check_arg(a.cols() == b.rows(), "matmul_ref inner dimension mismatch");
  if (out.rows() != a.rows() || out.cols() != b.cols()) out.resize(a.rows(), b.cols());
  out.zero();
  const std::size_t K = a.cols();
  const std::size_t N = b.cols();
  for (std::size_t i = 0; i < a.rows(); ++i) {
    const float* arow = a.row(i);
    float* orow = out.row(i);
    for (std::size_t k = 0; k < K; ++k) {
      const float aik = arow[k];
      if (aik == 0.0f) continue;
      const float* brow = b.row(k);
      for (std::size_t j = 0; j < N; ++j) orow[j] += aik * brow[j];
    }
  }
}

inline void matmul_bt_ref(const Tensor& a, const Tensor& b, Tensor& out) {
  check_arg(a.cols() == b.cols(), "matmul_bt_ref inner dimension mismatch");
  if (out.rows() != a.rows() || out.cols() != b.rows()) out.resize(a.rows(), b.rows());
  out.zero();
  const std::size_t K = a.cols();
  const std::size_t N = b.rows();
  for (std::size_t i = 0; i < a.rows(); ++i) {
    const float* arow = a.row(i);
    float* orow = out.row(i);
    for (std::size_t k = 0; k < K; ++k) {
      const float aik = arow[k];
      if (aik == 0.0f) continue;
      for (std::size_t j = 0; j < N; ++j) orow[j] += aik * b.at(j, k);
    }
  }
}

inline void matmul_at_ref(const Tensor& a, const Tensor& b, Tensor& out) {
  check_arg(a.rows() == b.rows(), "matmul_at_ref inner dimension mismatch");
  if (out.rows() != a.cols() || out.cols() != b.cols()) out.resize(a.cols(), b.cols());
  out.zero();
  const std::size_t K = a.rows();
  const std::size_t N = b.cols();
  for (std::size_t k = 0; k < K; ++k) {
    const float* arow = a.row(k);
    const float* brow = b.row(k);
    for (std::size_t i = 0; i < a.cols(); ++i) {
      const float aki = arow[i];
      if (aki == 0.0f) continue;
      float* orow = out.row(i);
      for (std::size_t j = 0; j < N; ++j) orow[j] += aki * brow[j];
    }
  }
}

}  // namespace gp::nn
