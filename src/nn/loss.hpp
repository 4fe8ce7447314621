// Classification losses and probability utilities.
#pragma once

#include <cstddef>
#include <vector>

#include "nn/tensor.hpp"

namespace gp::nn {

/// Row-wise softmax of logits, written into `out` (reusing its buffer when
/// the shape already matches).
void softmax_into(const Tensor& logits, Tensor& out);

struct LossResult {
  double loss = 0.0;     ///< mean cross-entropy over the batch
  Tensor grad;           ///< dL/d(logits), already divided by batch size
  Tensor probabilities;  ///< row-wise softmax (useful for metrics)
};

/// Mean softmax cross-entropy with integer labels. `weight` scales the
/// contribution of the whole batch (used for the auxiliary loss term).
LossResult softmax_cross_entropy(const Tensor& logits, const std::vector<int>& labels,
                                 double weight = 1.0);

/// Fraction of rows whose argmax equals the label.
double accuracy(const Tensor& logits, const std::vector<int>& labels);

}  // namespace gp::nn
