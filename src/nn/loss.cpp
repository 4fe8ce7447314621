#include "nn/loss.hpp"

#include <algorithm>
#include <cmath>

namespace gp::nn {

void softmax_into(const Tensor& logits, Tensor& out) {
  out.resize(logits.rows(), logits.cols());
  for (std::size_t i = 0; i < logits.rows(); ++i) {
    const float* in = logits.row(i);
    float* o = out.row(i);
    float max_logit = in[0];
    for (std::size_t j = 1; j < logits.cols(); ++j) max_logit = std::max(max_logit, in[j]);
    double denom = 0.0;
    for (std::size_t j = 0; j < logits.cols(); ++j) {
      const double e = std::exp(static_cast<double>(in[j] - max_logit));
      o[j] = static_cast<float>(e);
      denom += e;
    }
    const float inv = static_cast<float>(1.0 / denom);
    for (std::size_t j = 0; j < logits.cols(); ++j) o[j] *= inv;
  }
}

LossResult softmax_cross_entropy(const Tensor& logits, const std::vector<int>& labels,
                                 double weight) {
  check_arg(logits.rows() == labels.size(), "label count mismatch");
  check_arg(logits.rows() > 0, "empty batch");

  LossResult result;
  softmax_into(logits, result.probabilities);
  result.grad = result.probabilities;

  const double inv_n = 1.0 / static_cast<double>(logits.rows());
  double loss = 0.0;
  for (std::size_t i = 0; i < logits.rows(); ++i) {
    const int label = labels[i];
    check_arg(label >= 0 && static_cast<std::size_t>(label) < logits.cols(),
              "label out of range");
    const double p = std::max(static_cast<double>(result.probabilities.at(i, label)), 1e-12);
    loss -= std::log(p);
    result.grad.at(i, static_cast<std::size_t>(label)) -= 1.0f;
  }
  result.loss = weight * loss * inv_n;
  result.grad *= static_cast<float>(weight * inv_n);
  return result;
}

double accuracy(const Tensor& logits, const std::vector<int>& labels) {
  check_arg(logits.rows() == labels.size(), "label count mismatch");
  if (logits.rows() == 0) return 0.0;
  std::size_t correct = 0;
  for (std::size_t i = 0; i < logits.rows(); ++i) {
    const float* row = logits.row(i);
    std::size_t best = 0;
    for (std::size_t j = 1; j < logits.cols(); ++j) {
      if (row[j] > row[best]) best = j;
    }
    if (static_cast<int>(best) == labels[i]) ++correct;
  }
  return static_cast<double>(correct) / static_cast<double>(logits.rows());
}

}  // namespace gp::nn
