#include "nn/layers.hpp"

#include <cmath>

#define GP_RESTRICT __restrict__

namespace gp::nn {

// ---- Linear --------------------------------------------------------------

Linear::Linear(std::size_t in_features, std::size_t out_features, Rng& rng, std::string name) {
  check_arg(in_features > 0 && out_features > 0, "Linear feature counts must be positive");
  weight_.name = name + ".weight";
  weight_.value = Tensor(out_features, in_features);
  // Kaiming-normal initialisation for ReLU networks.
  weight_.value.randn(rng, std::sqrt(2.0 / static_cast<double>(in_features)));
  weight_.grad = Tensor(out_features, in_features);
  bias_.name = name + ".bias";
  bias_.value = Tensor(1, out_features);
  bias_.grad = Tensor(1, out_features);
}

Tensor Linear::forward(const Tensor& input, bool /*training*/) {
  check_arg(input.cols() == weight_.value.cols(), "Linear input width mismatch");
  cached_input_ = input;
  Tensor out;
  matmul_bt(input, weight_.value, out);  // (N x in) * (out x in)^T
  for (std::size_t i = 0; i < out.rows(); ++i) {
    float* row = out.row(i);
    const float* b = bias_.value.row(0);
    for (std::size_t j = 0; j < out.cols(); ++j) row[j] += b[j];
  }
  return out;
}

Tensor Linear::backward(const Tensor& grad_output) {
  check_arg(grad_output.rows() == cached_input_.rows(), "Linear backward batch mismatch");
  check_arg(grad_output.cols() == weight_.value.rows(), "Linear backward width mismatch");

  // dW += g^T x ; db += sum_rows(g) ; dx = g W.
  Tensor dw;
  matmul_at(grad_output, cached_input_, dw);
  weight_.grad += dw;
  for (std::size_t i = 0; i < grad_output.rows(); ++i) {
    const float* row = grad_output.row(i);
    float* b = bias_.grad.row(0);
    for (std::size_t j = 0; j < grad_output.cols(); ++j) b[j] += row[j];
  }
  Tensor dx;
  matmul(grad_output, weight_.value, dx);
  return dx;
}

std::vector<Parameter*> Linear::parameters() { return {&weight_, &bias_}; }

// ---- ReLU ----------------------------------------------------------------

Tensor ReLU::forward(const Tensor& input, bool /*training*/) {
  mask_ = Tensor(input.rows(), input.cols());
  Tensor out(input.rows(), input.cols());
  const float* GP_RESTRICT x = input.vec().data();
  float* GP_RESTRICT y = out.vec().data();
  float* GP_RESTRICT m = mask_.vec().data();
  // One branch-free pass; NaN and -0.0 fail `> 0` and map to +0 / mask 0.
  for (std::size_t i = 0; i < out.numel(); ++i) {
    const bool live = x[i] > 0.0f;
    y[i] = live ? x[i] : 0.0f;
    m[i] = live ? 1.0f : 0.0f;
  }
  return out;
}

Tensor ReLU::backward(const Tensor& grad_output) {
  check_arg(grad_output.numel() == mask_.numel(), "ReLU backward shape mismatch");
  Tensor dx = grad_output;
  for (std::size_t i = 0; i < dx.numel(); ++i) dx.vec()[i] *= mask_.vec()[i];
  return dx;
}

// ---- Dropout ---------------------------------------------------------------

Dropout::Dropout(double p, Rng& rng) : p_(p), rng_(&rng) {
  check_arg(p >= 0.0 && p < 1.0, "dropout p must be in [0,1)");
}

Tensor Dropout::forward(const Tensor& input, bool training) {
  if (!training || p_ == 0.0) {
    mask_ = Tensor(input.rows(), input.cols(), 1.0f);
    return input;
  }
  mask_ = Tensor(input.rows(), input.cols());
  const float keep_scale = static_cast<float>(1.0 / (1.0 - p_));
  Tensor out = input;
  for (std::size_t i = 0; i < out.numel(); ++i) {
    if (rng_->bernoulli(p_)) {
      mask_.vec()[i] = 0.0f;
      out.vec()[i] = 0.0f;
    } else {
      mask_.vec()[i] = keep_scale;
      out.vec()[i] *= keep_scale;
    }
  }
  return out;
}

Tensor Dropout::backward(const Tensor& grad_output) {
  check_arg(grad_output.numel() == mask_.numel(), "dropout backward shape mismatch");
  Tensor dx = grad_output;
  for (std::size_t i = 0; i < dx.numel(); ++i) dx.vec()[i] *= mask_.vec()[i];
  return dx;
}

// ---- BatchNorm1d -----------------------------------------------------------

BatchNorm1d::BatchNorm1d(std::size_t num_features, Rng& /*rng*/, double momentum, double eps,
                         std::string name)
    : features_(num_features), momentum_(momentum), eps_(eps) {
  gamma_.name = name + ".gamma";
  gamma_.value = Tensor(1, num_features, 1.0f);
  gamma_.grad = Tensor(1, num_features);
  beta_.name = name + ".beta";
  beta_.value = Tensor(1, num_features);
  beta_.grad = Tensor(1, num_features);
  running_mean_.name = name + ".running_mean";
  running_mean_.value = Tensor(1, num_features);
  running_var_.name = name + ".running_var";
  running_var_.value = Tensor(1, num_features, 1.0f);
}

// Both passes walk the [N, C] tensor row-major. Per-column statistics
// live in double accumulators that still sum their column in ascending row
// order, so every value matches the column-at-a-time formulation bit for
// bit (tests/test_nn.cpp keeps that formulation as a differential oracle).

Tensor BatchNorm1d::forward(const Tensor& input, bool training) {
  check_arg(input.cols() == features_, "BatchNorm input width mismatch");
  const std::size_t n = input.rows();
  const std::size_t C = features_;
  Tensor out(n, C);
  x_hat_ = Tensor(n, C);
  batch_var_ = Tensor(1, C);
  trained_with_batch_ = training && n > 1;

  std::vector<double> mean(C, 0.0);
  std::vector<double> inv_std(C, 0.0);  // holds the variance until the last pass
  double* GP_RESTRICT m = mean.data();
  double* GP_RESTRICT v = inv_std.data();
  if (trained_with_batch_) {
    for (std::size_t i = 0; i < n; ++i) {
      const float* GP_RESTRICT x = input.row(i);
      for (std::size_t c = 0; c < C; ++c) m[c] += x[c];
    }
    for (std::size_t c = 0; c < C; ++c) m[c] /= static_cast<double>(n);
    for (std::size_t i = 0; i < n; ++i) {
      const float* GP_RESTRICT x = input.row(i);
      for (std::size_t c = 0; c < C; ++c) {
        const double d = x[c] - m[c];
        v[c] += d * d;
      }
    }
    float* GP_RESTRICT rm = running_mean_.value.row(0);
    float* GP_RESTRICT rv = running_var_.value.row(0);
    for (std::size_t c = 0; c < C; ++c) {
      v[c] /= static_cast<double>(n);
      rm[c] = static_cast<float>((1.0 - momentum_) * rm[c] + momentum_ * m[c]);
      rv[c] = static_cast<float>((1.0 - momentum_) * rv[c] + momentum_ * v[c]);
    }
  } else {
    for (std::size_t c = 0; c < C; ++c) {
      m[c] = running_mean_.value.at(0, c);
      v[c] = running_var_.value.at(0, c);
    }
  }
  for (std::size_t c = 0; c < C; ++c) {
    batch_var_.at(0, c) = static_cast<float>(v[c]);
    v[c] = 1.0 / std::sqrt(v[c] + eps_);
  }

  const float* GP_RESTRICT gamma = gamma_.value.row(0);
  const float* GP_RESTRICT beta = beta_.value.row(0);
  for (std::size_t i = 0; i < n; ++i) {
    const float* GP_RESTRICT x = input.row(i);
    float* GP_RESTRICT xh_row = x_hat_.row(i);
    float* GP_RESTRICT y = out.row(i);
    for (std::size_t c = 0; c < C; ++c) {
      const double xh = (x[c] - m[c]) * v[c];
      xh_row[c] = static_cast<float>(xh);
      y[c] = static_cast<float>(gamma[c] * xh + beta[c]);
    }
  }
  return out;
}

Tensor BatchNorm1d::backward(const Tensor& grad_output) {
  check_arg(grad_output.rows() == x_hat_.rows() && grad_output.cols() == features_,
            "BatchNorm backward shape mismatch");
  const std::size_t n = grad_output.rows();
  const std::size_t C = features_;
  Tensor dx(n, C);

  std::vector<double> inv_std(C);
  std::vector<double> sum_g(C, 0.0);
  std::vector<double> sum_gx(C, 0.0);
  double* GP_RESTRICT is = inv_std.data();
  double* GP_RESTRICT sg = sum_g.data();
  double* GP_RESTRICT sgx = sum_gx.data();
  const float* GP_RESTRICT gamma = gamma_.value.row(0);
  for (std::size_t c = 0; c < C; ++c) {
    is[c] = 1.0 / std::sqrt(static_cast<double>(batch_var_.at(0, c)) + eps_);
  }

  float* GP_RESTRICT dgamma = gamma_.grad.row(0);
  float* GP_RESTRICT dbeta = beta_.grad.row(0);
  for (std::size_t i = 0; i < n; ++i) {
    const float* GP_RESTRICT g = grad_output.row(i);
    const float* GP_RESTRICT xh = x_hat_.row(i);
    for (std::size_t c = 0; c < C; ++c) {
      const double gc = g[c];
      sg[c] += gc;
      sgx[c] += gc * xh[c];
      dgamma[c] += static_cast<float>(gc * xh[c]);
      dbeta[c] += static_cast<float>(gc);
    }
  }

  if (!trained_with_batch_) {
    // Inference statistics were used: the normalisation is a per-element
    // affine map, so the gradient is a plain scale.
    for (std::size_t i = 0; i < n; ++i) {
      const float* GP_RESTRICT g = grad_output.row(i);
      float* GP_RESTRICT d = dx.row(i);
      for (std::size_t c = 0; c < C; ++c) {
        d[c] = static_cast<float>(g[c] * static_cast<double>(gamma[c]) * is[c]);
      }
    }
    return dx;
  }

  // inv_n * sum_g is rounded on its own before the row pass, as the
  // loop-invariant it was in the column-at-a-time loop.
  const double inv_n = 1.0 / static_cast<double>(n);
  std::vector<double> mean_g(C);
  double* GP_RESTRICT mg = mean_g.data();
  for (std::size_t c = 0; c < C; ++c) mg[c] = inv_n * sg[c];
  for (std::size_t i = 0; i < n; ++i) {
    const float* GP_RESTRICT g = grad_output.row(i);
    const float* GP_RESTRICT xh = x_hat_.row(i);
    float* GP_RESTRICT d = dx.row(i);
    for (std::size_t c = 0; c < C; ++c) {
      const double x = xh[c];
      d[c] = static_cast<float>(static_cast<double>(gamma[c]) * is[c] *
                                (g[c] - mg[c] - x * inv_n * sgx[c]));
    }
  }
  return dx;
}

std::vector<Parameter*> BatchNorm1d::parameters() { return {&gamma_, &beta_}; }

std::vector<Parameter*> BatchNorm1d::buffers() { return {&running_mean_, &running_var_}; }

// ---- Sequential ------------------------------------------------------------

Tensor Sequential::forward(const Tensor& input, bool training) {
  Tensor x = input;
  for (auto& layer : layers_) x = layer->forward(x, training);
  return x;
}

Tensor Sequential::backward(const Tensor& grad_output) {
  Tensor g = grad_output;
  for (auto it = layers_.rbegin(); it != layers_.rend(); ++it) g = (*it)->backward(g);
  return g;
}

std::vector<Parameter*> Sequential::parameters() {
  std::vector<Parameter*> out;
  for (auto& layer : layers_) {
    for (Parameter* p : layer->parameters()) out.push_back(p);
  }
  return out;
}

std::vector<Parameter*> Sequential::buffers() {
  std::vector<Parameter*> out;
  for (auto& layer : layers_) {
    for (Parameter* p : layer->buffers()) out.push_back(p);
  }
  return out;
}

std::unique_ptr<Sequential> make_mlp(std::size_t in_features,
                                     const std::vector<std::size_t>& hidden, Rng& rng,
                                     bool batch_norm, const std::string& name) {
  check_arg(!hidden.empty(), "make_mlp needs at least one layer");
  auto mlp = std::make_unique<Sequential>();
  std::size_t in = in_features;
  for (std::size_t i = 0; i < hidden.size(); ++i) {
    const std::string lname = name + ".l" + std::to_string(i);
    mlp->emplace<Linear>(in, hidden[i], rng, lname);
    if (batch_norm) mlp->emplace<BatchNorm1d>(hidden[i], rng, 0.1, 1e-5, lname);
    mlp->emplace<ReLU>();
    in = hidden[i];
  }
  return mlp;
}

}  // namespace gp::nn
