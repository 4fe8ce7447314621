// Neural-network library tests: tensor kernels, layer semantics, loss
// values, optimiser behaviour, and serialization. Exact-gradient checks
// live in test_nn_gradcheck.cpp.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <iterator>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "nn/layers.hpp"
#include "nn/loss.hpp"
#include "nn/optimizer.hpp"
#include "nn/serialize_nn.hpp"
#include "nn/tensor.hpp"

namespace gp::nn {
namespace {

TEST(Tensor, ConstructionAndAccess) {
  Tensor t(2, 3, 1.5f);
  EXPECT_EQ(t.rows(), 2u);
  EXPECT_EQ(t.cols(), 3u);
  EXPECT_EQ(t.numel(), 6u);
  t.at(1, 2) = 7.0f;
  EXPECT_FLOAT_EQ(t.at(1, 2), 7.0f);
  EXPECT_FLOAT_EQ(t.at(0, 0), 1.5f);
}

TEST(Tensor, MatmulKnownValues) {
  Tensor a(2, 2);
  a.at(0, 0) = 1;
  a.at(0, 1) = 2;
  a.at(1, 0) = 3;
  a.at(1, 1) = 4;
  Tensor b(2, 2);
  b.at(0, 0) = 5;
  b.at(0, 1) = 6;
  b.at(1, 0) = 7;
  b.at(1, 1) = 8;
  Tensor c;
  matmul(a, b, c);
  EXPECT_FLOAT_EQ(c.at(0, 0), 19);
  EXPECT_FLOAT_EQ(c.at(0, 1), 22);
  EXPECT_FLOAT_EQ(c.at(1, 0), 43);
  EXPECT_FLOAT_EQ(c.at(1, 1), 50);
}

TEST(Tensor, MatmulVariantsAgree) {
  Rng rng(1);
  Tensor a(4, 6);
  a.randn(rng, 1.0);
  Tensor b(6, 5);
  b.randn(rng, 1.0);

  Tensor direct;
  matmul(a, b, direct);

  // matmul_bt: c = a * bt^T where bt = b^T.
  Tensor bt(5, 6);
  for (std::size_t i = 0; i < 6; ++i) {
    for (std::size_t j = 0; j < 5; ++j) bt.at(j, i) = b.at(i, j);
  }
  Tensor via_bt;
  matmul_bt(a, bt, via_bt);
  for (std::size_t i = 0; i < direct.numel(); ++i) {
    EXPECT_NEAR(via_bt.vec()[i], direct.vec()[i], 1e-4);
  }

  // matmul_at: c = at^T * b where at = a^T.
  Tensor at(6, 4);
  for (std::size_t i = 0; i < 4; ++i) {
    for (std::size_t j = 0; j < 6; ++j) at.at(j, i) = a.at(i, j);
  }
  Tensor via_at;
  matmul_at(at, b, via_at);
  for (std::size_t i = 0; i < direct.numel(); ++i) {
    EXPECT_NEAR(via_at.vec()[i], direct.vec()[i], 1e-4);
  }
}

TEST(Tensor, ShapeMismatchThrows) {
  Tensor a(2, 3);
  Tensor b(4, 5);
  Tensor c;
  EXPECT_THROW(matmul(a, b, c), InvalidArgument);
}

TEST(Linear, ForwardAppliesWeightsAndBias) {
  Rng rng(2);
  Linear layer(2, 3, rng);
  layer.weight().value.fill(0.0f);
  layer.weight().value.at(0, 0) = 1.0f;  // out0 = in0
  layer.weight().value.at(1, 1) = 2.0f;  // out1 = 2*in1
  layer.bias().value.at(0, 2) = 5.0f;    // out2 = 5

  Tensor x(1, 2);
  x.at(0, 0) = 3.0f;
  x.at(0, 1) = 4.0f;
  const Tensor y = layer.forward(x, true);
  EXPECT_FLOAT_EQ(y.at(0, 0), 3.0f);
  EXPECT_FLOAT_EQ(y.at(0, 1), 8.0f);
  EXPECT_FLOAT_EQ(y.at(0, 2), 5.0f);
}

TEST(ReLU, ClampsAndMasksGradient) {
  ReLU relu;
  Tensor x(1, 4);
  x.at(0, 0) = -1.0f;
  x.at(0, 1) = 2.0f;
  x.at(0, 2) = 0.0f;
  x.at(0, 3) = -3.0f;
  const Tensor y = relu.forward(x, true);
  EXPECT_FLOAT_EQ(y.at(0, 0), 0.0f);
  EXPECT_FLOAT_EQ(y.at(0, 1), 2.0f);

  Tensor g(1, 4, 1.0f);
  const Tensor dx = relu.backward(g);
  EXPECT_FLOAT_EQ(dx.at(0, 0), 0.0f);
  EXPECT_FLOAT_EQ(dx.at(0, 1), 1.0f);
  EXPECT_FLOAT_EQ(dx.at(0, 3), 0.0f);
}

TEST(Dropout, InferenceIsIdentity) {
  Rng rng(3);
  Dropout dropout(0.5, rng);
  Tensor x(4, 4, 2.0f);
  const Tensor y = dropout.forward(x, false);
  for (std::size_t i = 0; i < y.numel(); ++i) EXPECT_FLOAT_EQ(y.vec()[i], 2.0f);
}

TEST(Dropout, TrainingKeepsExpectationAndZeroesSome) {
  Rng rng(4);
  Dropout dropout(0.4, rng);
  Tensor x(100, 10, 1.0f);
  const Tensor y = dropout.forward(x, true);
  std::size_t zeros = 0;
  double sum = 0.0;
  for (std::size_t i = 0; i < y.numel(); ++i) {
    if (y.vec()[i] == 0.0f) ++zeros;
    sum += y.vec()[i];
  }
  EXPECT_NEAR(static_cast<double>(zeros) / y.numel(), 0.4, 0.05);
  EXPECT_NEAR(sum / y.numel(), 1.0, 0.08);  // inverted dropout preserves mean
}

TEST(BatchNorm, NormalisesBatchStatistics) {
  Rng rng(5);
  BatchNorm1d bn(3, rng);
  Tensor x(64, 3);
  x.randn(rng, 4.0);
  for (std::size_t i = 0; i < 64; ++i) x.at(i, 1) += 10.0f;  // shifted channel

  const Tensor y = bn.forward(x, true);
  for (std::size_t c = 0; c < 3; ++c) {
    double mean = 0.0;
    for (std::size_t i = 0; i < 64; ++i) mean += y.at(i, c);
    mean /= 64.0;
    double var = 0.0;
    for (std::size_t i = 0; i < 64; ++i) var += (y.at(i, c) - mean) * (y.at(i, c) - mean);
    var /= 64.0;
    EXPECT_NEAR(mean, 0.0, 1e-4);
    EXPECT_NEAR(var, 1.0, 1e-2);
  }
}

TEST(BatchNorm, RunningStatsUsedAtInference) {
  Rng rng(6);
  BatchNorm1d bn(1, rng);
  // Feed many training batches with mean 5.
  for (int step = 0; step < 200; ++step) {
    Tensor x(32, 1);
    for (std::size_t i = 0; i < 32; ++i) x.at(i, 0) = 5.0f + static_cast<float>(rng.gaussian());
    bn.forward(x, true);
  }
  // At inference a value of 5 should map near 0.
  Tensor probe(1, 1);
  probe.at(0, 0) = 5.0f;
  const Tensor y = bn.forward(probe, false);
  EXPECT_NEAR(y.at(0, 0), 0.0, 0.15);
}

// ---- Row-major BatchNorm/ReLU vs their column-at-a-time formulation -------
//
// The layers walk [N, C] tensors row-major; these references are the
// original column-major loops, kept verbatim so a memcmp pins every output,
// cached statistic and gradient to the same bits.

bool bitwise_equal(const Tensor& a, const Tensor& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         (a.vec().empty() ||
          std::memcmp(a.vec().data(), b.vec().data(), a.vec().size() * sizeof(float)) == 0);
}

struct ColumnMajorBatchNorm {
  std::size_t features;
  double momentum = 0.1;
  double eps = 1e-5;
  Tensor gamma, beta, gamma_grad, beta_grad, running_mean, running_var;
  Tensor x_hat, batch_var;
  bool trained_with_batch = false;

  explicit ColumnMajorBatchNorm(std::size_t c)
      : features(c),
        gamma(1, c, 1.0f),
        beta(1, c),
        gamma_grad(1, c),
        beta_grad(1, c),
        running_mean(1, c),
        running_var(1, c, 1.0f) {}

  Tensor forward(const Tensor& input, bool training) {
    const std::size_t n = input.rows();
    Tensor out(n, features);
    x_hat = Tensor(n, features);
    batch_var = Tensor(1, features);
    for (std::size_t c = 0; c < features; ++c) {
      double m = 0.0;
      double v = 0.0;
      if (training && n > 1) {
        for (std::size_t i = 0; i < n; ++i) m += input.at(i, c);
        m /= static_cast<double>(n);
        for (std::size_t i = 0; i < n; ++i) {
          const double d = input.at(i, c) - m;
          v += d * d;
        }
        v /= static_cast<double>(n);
        running_mean.at(0, c) =
            static_cast<float>((1.0 - momentum) * running_mean.at(0, c) + momentum * m);
        running_var.at(0, c) =
            static_cast<float>((1.0 - momentum) * running_var.at(0, c) + momentum * v);
      } else {
        m = running_mean.at(0, c);
        v = running_var.at(0, c);
      }
      batch_var.at(0, c) = static_cast<float>(v);
      const double inv_std = 1.0 / std::sqrt(v + eps);
      for (std::size_t i = 0; i < n; ++i) {
        const double xh = (input.at(i, c) - m) * inv_std;
        x_hat.at(i, c) = static_cast<float>(xh);
        out.at(i, c) = static_cast<float>(gamma.at(0, c) * xh + beta.at(0, c));
      }
    }
    trained_with_batch = training && n > 1;
    return out;
  }

  Tensor backward(const Tensor& grad_output) {
    const std::size_t n = grad_output.rows();
    Tensor dx(n, features);
    for (std::size_t c = 0; c < features; ++c) {
      const double inv_std = 1.0 / std::sqrt(static_cast<double>(batch_var.at(0, c)) + eps);
      const double g_c = gamma.at(0, c);
      double sum_g = 0.0;
      double sum_gx = 0.0;
      for (std::size_t i = 0; i < n; ++i) {
        const double g = grad_output.at(i, c);
        sum_g += g;
        sum_gx += g * x_hat.at(i, c);
        gamma_grad.at(0, c) += static_cast<float>(g * x_hat.at(i, c));
        beta_grad.at(0, c) += static_cast<float>(g);
      }
      if (!trained_with_batch) {
        for (std::size_t i = 0; i < n; ++i) {
          dx.at(i, c) = static_cast<float>(grad_output.at(i, c) * g_c * inv_std);
        }
        continue;
      }
      const double inv_n = 1.0 / static_cast<double>(n);
      for (std::size_t i = 0; i < n; ++i) {
        const double g = grad_output.at(i, c);
        const double xh = x_hat.at(i, c);
        dx.at(i, c) =
            static_cast<float>(g_c * inv_std * (g - inv_n * sum_g - xh * inv_n * sum_gx));
      }
    }
    return dx;
  }
};

/// Runs `steps` forward/backward rounds through both implementations with
/// identical parameters and inputs, comparing everything bit for bit.
void expect_batchnorm_matches_reference(std::size_t n, std::size_t c,
                                        const std::vector<bool>& training_per_step,
                                        std::uint64_t seed) {
  Rng rng(seed);
  BatchNorm1d bn(c, rng);
  ColumnMajorBatchNorm ref(c);
  ASSERT_EQ(ref.eps, bn.eps());
  bn.gamma().value.randn(rng, 1.0);
  bn.beta().value.randn(rng, 0.5);
  bn.running_mean().randn(rng, 0.3);
  for (float& v : bn.running_var().vec()) v = 0.5f + static_cast<float>(rng.uniform());
  ref.gamma = bn.gamma().value;
  ref.beta = bn.beta().value;
  ref.running_mean = bn.running_mean();
  ref.running_var = bn.running_var();

  for (std::size_t step = 0; step < training_per_step.size(); ++step) {
    const bool training = training_per_step[step];
    Tensor x(n, c);
    x.randn(rng, 2.0);
    for (std::size_t i = 0; i < n; ++i) x.at(i, 0) += 3.0f;  // off-centre column
    // The last column also carries +-2^40 pairs that cancel: its double
    // sums round at ~2^-12, so any change of accumulation order shows.
    for (std::size_t i = 0; i + 1 < n; i += 4) {
      x.at(i, c - 1) = std::ldexp(1.0f + std::fabs(x.at(i, c - 1)), 40);
      x.at(i + 1, c - 1) = -x.at(i, c - 1);
    }
    Tensor g(n, c);
    g.randn(rng, 1.0);
    const std::string where = "n=" + std::to_string(n) + " c=" + std::to_string(c) +
                              " step=" + std::to_string(step) +
                              (training ? " train" : " eval");

    EXPECT_TRUE(bitwise_equal(bn.forward(x, training), ref.forward(x, training)))
        << "output " << where;
    EXPECT_TRUE(bitwise_equal(bn.x_hat(), ref.x_hat)) << "x_hat " << where;
    EXPECT_TRUE(bitwise_equal(bn.running_mean(), ref.running_mean)) << "running_mean " << where;
    EXPECT_TRUE(bitwise_equal(bn.running_var(), ref.running_var)) << "running_var " << where;
    EXPECT_TRUE(bitwise_equal(bn.backward(g), ref.backward(g))) << "dx " << where;
    EXPECT_TRUE(bitwise_equal(bn.gamma().grad, ref.gamma_grad)) << "gamma grad " << where;
    EXPECT_TRUE(bitwise_equal(bn.beta().grad, ref.beta_grad)) << "beta grad " << where;
  }
}

TEST(BatchNorm, RowMajorMatchesColumnMajorReferenceInTraining) {
  expect_batchnorm_matches_reference(64, 32, {true, true, true}, 21);
  expect_batchnorm_matches_reference(37, 19, {true, true}, 22);  // odd C
  expect_batchnorm_matches_reference(5, 1, {true, true}, 23);
}

TEST(BatchNorm, RowMajorMatchesColumnMajorReferenceInEval) {
  expect_batchnorm_matches_reference(48, 24, {false, false}, 24);
  expect_batchnorm_matches_reference(9, 7, {false}, 25);
}

TEST(BatchNorm, RowMajorMatchesColumnMajorReferenceForSingleRow) {
  // n == 1 in training falls back to running statistics.
  expect_batchnorm_matches_reference(1, 16, {true, true}, 26);
  expect_batchnorm_matches_reference(1, 5, {true, false}, 27);
}

TEST(BatchNorm, RowMajorMatchesColumnMajorReferenceAcrossModeSwitches) {
  // Backward after an eval-mode forward uses the plain-scale gradient; the
  // next training step must pick the batch path back up.
  expect_batchnorm_matches_reference(33, 13, {true, false, true, false}, 28);
}

TEST(ReLU, BranchFreeMatchesMaskedReference) {
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float inf = std::numeric_limits<float>::infinity();
  Rng rng(29);
  Tensor x(7, 13);
  x.randn(rng, 1.0);
  const float specials[] = {0.0f, -0.0f, nan, -nan, inf, -inf,
                            std::numeric_limits<float>::denorm_min(),
                            -std::numeric_limits<float>::denorm_min()};
  for (std::size_t i = 0; i < std::size(specials); ++i) x.vec()[i * 5] = specials[i];
  Tensor g(7, 13);
  g.randn(rng, 1.0);
  g.vec()[3] = -g.vec()[3];

  // Reference: the original masked loop.
  Tensor ref_mask(x.rows(), x.cols());
  Tensor ref_out = x;
  for (std::size_t i = 0; i < ref_out.numel(); ++i) {
    if (ref_out.vec()[i] > 0.0f) {
      ref_mask.vec()[i] = 1.0f;
    } else {
      ref_out.vec()[i] = 0.0f;
    }
  }
  Tensor ref_dx = g;
  for (std::size_t i = 0; i < ref_dx.numel(); ++i) ref_dx.vec()[i] *= ref_mask.vec()[i];

  ReLU relu;
  EXPECT_TRUE(bitwise_equal(relu.forward(x, true), ref_out));
  EXPECT_TRUE(bitwise_equal(relu.backward(g), ref_dx));
}

TEST(Sequential, ComposesLayers) {
  Rng rng(7);
  Sequential seq;
  seq.emplace<Linear>(4, 8, rng);
  seq.emplace<ReLU>();
  seq.emplace<Linear>(8, 2, rng);
  EXPECT_EQ(seq.size(), 3u);
  EXPECT_EQ(seq.parameters().size(), 4u);  // two Linear layers x (W, b)

  Tensor x(5, 4);
  x.randn(rng, 1.0);
  const Tensor y = seq.forward(x, true);
  EXPECT_EQ(y.rows(), 5u);
  EXPECT_EQ(y.cols(), 2u);
}

TEST(Loss, SoftmaxRowsSumToOne) {
  Rng rng(8);
  Tensor logits(6, 4);
  logits.randn(rng, 3.0);
  Tensor p;
  softmax_into(logits, p);
  for (std::size_t i = 0; i < 6; ++i) {
    double sum = 0.0;
    for (std::size_t c = 0; c < 4; ++c) {
      sum += p.at(i, c);
      EXPECT_GE(p.at(i, c), 0.0f);
    }
    EXPECT_NEAR(sum, 1.0, 1e-6);
  }
}

TEST(Loss, CrossEntropyOfUniformIsLogK) {
  Tensor logits(3, 5, 0.0f);  // uniform distribution
  const LossResult result = softmax_cross_entropy(logits, {0, 2, 4});
  EXPECT_NEAR(result.loss, std::log(5.0), 1e-6);
}

TEST(Loss, GradPointsTowardCorrectClass) {
  Tensor logits(1, 3, 0.0f);
  const LossResult result = softmax_cross_entropy(logits, {1});
  // grad = p - onehot: (1/3, 1/3-1, 1/3).
  EXPECT_NEAR(result.grad.at(0, 0), 1.0 / 3.0, 1e-6);
  EXPECT_NEAR(result.grad.at(0, 1), 1.0 / 3.0 - 1.0, 1e-6);
}

TEST(Loss, WeightScalesLossAndGrad) {
  Rng rng(9);
  Tensor logits(4, 3);
  logits.randn(rng, 1.0);
  const std::vector<int> labels{0, 1, 2, 0};
  const LossResult full = softmax_cross_entropy(logits, labels, 1.0);
  const LossResult half = softmax_cross_entropy(logits, labels, 0.5);
  EXPECT_NEAR(half.loss, 0.5 * full.loss, 1e-9);
  EXPECT_NEAR(half.grad.at(2, 1), 0.5 * full.grad.at(2, 1), 1e-7);
}

TEST(Loss, AccuracyCountsArgmaxMatches) {
  Tensor logits(3, 2);
  logits.at(0, 0) = 2.0f;  // pred 0
  logits.at(1, 1) = 2.0f;  // pred 1
  logits.at(2, 0) = 2.0f;  // pred 0
  EXPECT_NEAR(accuracy(logits, {0, 1, 1}), 2.0 / 3.0, 1e-9);
}

TEST(Optimizer, SgdDescendsQuadratic) {
  // Minimise f(w) = (w - 3)^2 via manual gradient feeding.
  Parameter w;
  w.value = Tensor(1, 1, 0.0f);
  w.grad = Tensor(1, 1);
  Sgd opt({&w}, 0.1);
  for (int i = 0; i < 200; ++i) {
    w.grad.at(0, 0) = 2.0f * (w.value.at(0, 0) - 3.0f);
    opt.step();
  }
  EXPECT_NEAR(w.value.at(0, 0), 3.0f, 1e-3);
}

TEST(Optimizer, AdamDescendsIllConditionedQuadratic) {
  Parameter w;
  w.value = Tensor(1, 2);
  w.value.at(0, 0) = 4.0f;
  w.value.at(0, 1) = -2.0f;
  w.grad = Tensor(1, 2);
  Adam opt({&w}, 0.05);
  for (int i = 0; i < 800; ++i) {
    w.grad.at(0, 0) = 100.0f * w.value.at(0, 0);  // steep axis
    w.grad.at(0, 1) = 0.1f * w.value.at(0, 1);    // shallow axis
    opt.step();
  }
  EXPECT_NEAR(w.value.at(0, 0), 0.0f, 1e-2);
  EXPECT_NEAR(w.value.at(0, 1), 0.0f, 0.15);
}

TEST(Optimizer, StepClearsGradients) {
  Parameter w;
  w.value = Tensor(1, 1, 1.0f);
  w.grad = Tensor(1, 1, 2.0f);
  Adam opt({&w}, 0.01);
  opt.step();
  EXPECT_FLOAT_EQ(w.grad.at(0, 0), 0.0f);
}

TEST(SerializeNn, RoundTripRestoresWeights) {
  Rng rng(10);
  Sequential a;
  a.emplace<Linear>(3, 4, rng, "l0");
  a.emplace<BatchNorm1d>(4, rng, 0.1, 1e-5, "l0");
  a.emplace<Linear>(4, 2, rng, "l1");

  std::stringstream buffer;
  save_parameters(buffer, a.parameters());

  Rng rng2(999);  // different init
  Sequential b;
  b.emplace<Linear>(3, 4, rng2, "l0");
  b.emplace<BatchNorm1d>(4, rng2, 0.1, 1e-5, "l0");
  b.emplace<Linear>(4, 2, rng2, "l1");
  load_parameters(buffer, b.parameters());

  const auto pa = a.parameters();
  const auto pb = b.parameters();
  ASSERT_EQ(pa.size(), pb.size());
  for (std::size_t i = 0; i < pa.size(); ++i) {
    ASSERT_EQ(pa[i]->value.numel(), pb[i]->value.numel());
    for (std::size_t j = 0; j < pa[i]->value.numel(); ++j) {
      EXPECT_FLOAT_EQ(pa[i]->value.vec()[j], pb[i]->value.vec()[j]);
    }
  }
}

TEST(SerializeNn, RejectsLayoutMismatch) {
  Rng rng(11);
  Sequential a;
  a.emplace<Linear>(3, 4, rng, "l0");
  std::stringstream buffer;
  save_parameters(buffer, a.parameters());

  Sequential b;
  b.emplace<Linear>(3, 5, rng, "l0");  // different width
  EXPECT_THROW(load_parameters(buffer, b.parameters()), SerializationError);
}

}  // namespace
}  // namespace gp::nn
