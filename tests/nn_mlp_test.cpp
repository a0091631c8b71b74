/// Tests for the float MLP: shapes, forward math, and a finite-difference
/// check of the reference backprop gradients.

#include "pnm/nn/mlp.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "pnm/nn/trainer.hpp"
#include "trainer_reference.hpp"

namespace pnm {
namespace {

Mlp tiny_fixed_net() {
  // 2 -> 2 (ReLU) -> 2 (identity) with hand-picked weights.
  DenseLayer l1;
  l1.weights = Matrix(2, 2, {1.0, -1.0, 0.5, 2.0});
  l1.bias = {0.0, -1.0};
  l1.act = Activation::kRelu;
  DenseLayer l2;
  l2.weights = Matrix(2, 2, {1.0, 1.0, -1.0, 0.0});
  l2.bias = {0.5, 0.0};
  l2.act = Activation::kIdentity;
  return Mlp({l1, l2});
}

TEST(Mlp, TopologyConstruction) {
  Rng rng(1);
  Mlp net({11, 6, 7}, rng);
  EXPECT_EQ(net.layer_count(), 2U);
  EXPECT_EQ(net.input_size(), 11U);
  EXPECT_EQ(net.output_size(), 7U);
  EXPECT_EQ(net.topology(), (std::vector<std::size_t>{11, 6, 7}));
  EXPECT_EQ(net.layer(0).act, Activation::kRelu);
  EXPECT_EQ(net.layer(1).act, Activation::kIdentity);
  EXPECT_EQ(net.weight_count(), 11U * 6U + 6U * 7U);
}

TEST(Mlp, ThreeLayerTopology) {
  Rng rng(2);
  Mlp net({4, 5, 3, 2}, rng);
  EXPECT_EQ(net.layer_count(), 3U);
  EXPECT_EQ(net.layer(0).act, Activation::kRelu);
  EXPECT_EQ(net.layer(1).act, Activation::kRelu);
  EXPECT_EQ(net.layer(2).act, Activation::kIdentity);
}

TEST(Mlp, RejectsDegenerateTopologies) {
  Rng rng(3);
  EXPECT_THROW(Mlp({5}, rng), std::invalid_argument);
  EXPECT_THROW(Mlp({5, 0, 2}, rng), std::invalid_argument);
}

TEST(Mlp, RejectsInconsistentLayers) {
  DenseLayer l1;
  l1.weights = Matrix(3, 2);
  l1.bias = {0, 0, 0};
  DenseLayer l2;
  l2.weights = Matrix(2, 4);  // expects 4 inputs, but l1 gives 3
  l2.bias = {0, 0};
  EXPECT_THROW(Mlp({l1, l2}), std::invalid_argument);
}

TEST(Mlp, ForwardMatchesHandComputation) {
  const Mlp net = tiny_fixed_net();
  // x = (1, 2): layer1 pre = (1-2, 0.5+4-1) = (-1, 3.5) -> relu (0, 3.5)
  // layer2 = (0 + 3.5 + 0.5, -0 + 0) = (4.0, 0.0)
  const auto out = net.forward({1.0, 2.0});
  ASSERT_EQ(out.size(), 2U);
  EXPECT_NEAR(out[0], 4.0, 1e-12);
  EXPECT_NEAR(out[1], 0.0, 1e-12);
  EXPECT_EQ(net.predict({1.0, 2.0}), 0U);
}

TEST(Mlp, ForwardCachedMatchesForward) {
  Rng rng(4);
  Mlp net({3, 5, 4}, rng);
  const std::vector<double> x = {0.2, -0.7, 1.1};
  std::vector<std::vector<double>> acts;
  reference::forward_cached(net, x, acts);
  ASSERT_EQ(acts.size(), 3U);
  EXPECT_EQ(acts[0], x);
  const auto direct = net.forward(x);
  ASSERT_EQ(acts[2].size(), direct.size());
  for (std::size_t i = 0; i < direct.size(); ++i) EXPECT_NEAR(acts[2][i], direct[i], 1e-12);
}

TEST(Mlp, ArgmaxBreaksTiesLow) {
  EXPECT_EQ(argmax({1.0, 1.0, 0.5}), 0U);
  EXPECT_EQ(argmax({0.0, 2.0, 2.0}), 1U);
  EXPECT_THROW(argmax({}), std::invalid_argument);
}

TEST(Mlp, ZeroWeightCount) {
  Mlp net = tiny_fixed_net();
  EXPECT_EQ(net.zero_weight_count(), 1U);  // the 0.0 in layer 2
  net.layer(0).weights(0, 0) = 0.0;
  EXPECT_EQ(net.zero_weight_count(), 2U);
}

/// Finite-difference gradient check: the per-sample reference backprop's
/// (tests/trainer_reference.hpp) analytic gradients must match numeric
/// gradients of the softmax-CE loss.
TEST(MlpGradients, MatchFiniteDifferences) {
  Rng rng(6);
  Mlp net({3, 4, 3}, rng);
  const std::vector<double> x = {0.3, -0.5, 0.9};
  const std::size_t label = 2;

  Gradients grads = Gradients::zeros_like(net);
  reference::SampleScratch scratch;
  reference::backprop_sample(net, x, label, reference::Softmax::kFast, grads, scratch);

  const double eps = 1e-6;
  const double tol = 1e-5;
  auto loss_at = [&](Mlp& m) {
    const auto logits = m.forward(x);
    return reference::softmax_cross_entropy(logits, label, nullptr);
  };
  for (std::size_t li = 0; li < net.layer_count(); ++li) {
    auto& w = net.layer(li).weights.raw();
    for (std::size_t i = 0; i < w.size(); i += 3) {  // sample every 3rd weight
      const double saved = w[i];
      w[i] = saved + eps;
      const double up = loss_at(net);
      w[i] = saved - eps;
      const double down = loss_at(net);
      w[i] = saved;
      const double numeric = (up - down) / (2.0 * eps);
      EXPECT_NEAR(grads.w[li].raw()[i], numeric, tol) << "layer " << li << " w" << i;
    }
    auto& b = net.layer(li).bias;
    for (std::size_t i = 0; i < b.size(); ++i) {
      const double saved = b[i];
      b[i] = saved + eps;
      const double up = loss_at(net);
      b[i] = saved - eps;
      const double down = loss_at(net);
      b[i] = saved;
      const double numeric = (up - down) / (2.0 * eps);
      EXPECT_NEAR(grads.b[li][i], numeric, tol) << "layer " << li << " b" << i;
    }
  }
}

/// Gradient check across several widths/depths (property sweep).
class GradCheckSweep : public ::testing::TestWithParam<std::vector<std::size_t>> {};

TEST_P(GradCheckSweep, BackpropMatchesNumeric) {
  Rng rng(7);
  Mlp net(GetParam(), rng);
  std::vector<double> x(net.input_size());
  for (auto& v : x) v = rng.uniform(-1.0, 1.0);
  const std::size_t label = 0;

  Gradients grads = Gradients::zeros_like(net);
  reference::SampleScratch scratch;
  reference::backprop_sample(net, x, label, reference::Softmax::kFast, grads, scratch);

  const double eps = 1e-6;
  auto& w = net.layer(0).weights.raw();
  double max_err = 0.0;
  for (std::size_t i = 0; i < w.size(); i += 2) {
    const double saved = w[i];
    auto loss_at = [&]() {
      return reference::softmax_cross_entropy(net.forward(x), label, nullptr);
    };
    w[i] = saved + eps;
    const double up = loss_at();
    w[i] = saved - eps;
    const double down = loss_at();
    w[i] = saved;
    max_err = std::max(max_err, std::fabs(grads.w[0].raw()[i] - (up - down) / (2 * eps)));
  }
  EXPECT_LT(max_err, 1e-5);
}

INSTANTIATE_TEST_SUITE_P(Shapes, GradCheckSweep,
                         ::testing::Values(std::vector<std::size_t>{2, 3, 2},
                                           std::vector<std::size_t>{5, 8, 4},
                                           std::vector<std::size_t>{7, 4, 4, 3},
                                           std::vector<std::size_t>{11, 8, 7},
                                           std::vector<std::size_t>{16, 10, 10}));

}  // namespace
}  // namespace pnm
