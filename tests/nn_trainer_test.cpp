/// Tests for the trainer: the reference loss math, optimization progress,
/// and the two minimization hooks (weight view = STE/QAT, projector =
/// constraints).

#include "pnm/nn/trainer.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "pnm/data/scaler.hpp"
#include "pnm/data/synth.hpp"
#include "pnm/nn/metrics.hpp"
#include "trainer_reference.hpp"

namespace pnm {
namespace {

/// Small separable dataset for optimization tests, min-max scaled to [0,1]
/// like every real flow in this library (unscaled features make the loss
/// landscape needlessly hostile for short training runs).
Dataset easy_dataset(std::uint64_t seed = 100) {
  SynthConfig cfg;
  cfg.name = "easy";
  cfg.n_features = 4;
  cfg.n_classes = 3;
  cfg.n_samples = 300;
  cfg.class_separation = 3.0;
  Rng rng(seed);
  Dataset data = make_synthetic(cfg, rng);
  MinMaxScaler scaler;
  scaler.fit(data);
  return scaler.transform(data);
}

TEST(SoftmaxCrossEntropy, KnownValues) {
  // Uniform logits: loss = log(n).
  const double loss = reference::softmax_cross_entropy({0.0, 0.0, 0.0}, 1, nullptr);
  EXPECT_NEAR(loss, std::log(3.0), 1e-12);
}

TEST(SoftmaxCrossEntropy, GradientSumsToZero) {
  std::vector<double> grad;
  reference::softmax_cross_entropy({1.0, -2.0, 0.5, 3.0}, 2, &grad);
  double sum = 0.0;
  for (double g : grad) sum += g;
  EXPECT_NEAR(sum, 0.0, 1e-12);  // softmax sums to 1, onehot to 1
  EXPECT_LT(grad[2], 0.0);       // true-class gradient is negative
}

TEST(SoftmaxCrossEntropy, NumericallyStableForHugeLogits) {
  const double loss = reference::softmax_cross_entropy({1e4, 0.0}, 0, nullptr);
  EXPECT_NEAR(loss, 0.0, 1e-9);
  const double loss2 = reference::softmax_cross_entropy({-1e4, 0.0}, 0, nullptr);
  EXPECT_NEAR(loss2, 1e4, 1.0);
}

TEST(SoftmaxCrossEntropy, LabelOutOfRangeThrows) {
  EXPECT_THROW(reference::softmax_cross_entropy({0.0, 0.0}, 2, nullptr),
               std::invalid_argument);
}

TEST(Trainer, ConfigValidation) {
  TrainConfig bad;
  bad.epochs = 0;
  EXPECT_THROW(Trainer{bad}, std::invalid_argument);
  bad = TrainConfig{};
  bad.lr = 0.0;
  EXPECT_THROW(Trainer{bad}, std::invalid_argument);
  bad.lr = -1e-3;
  EXPECT_THROW(Trainer{bad}, std::invalid_argument);
}

/// A NaN or infinite learning rate would turn every weight into NaN after
/// one step; the constructor refuses it like a non-positive one.
TEST(Trainer, RejectsNonFiniteLearningRate) {
  for (const double lr : {std::numeric_limits<double>::quiet_NaN(),
                          std::numeric_limits<double>::infinity(),
                          -std::numeric_limits<double>::infinity()}) {
    TrainConfig bad;
    bad.lr = lr;
    EXPECT_THROW(Trainer{bad}, std::invalid_argument) << "lr " << lr;
  }
}

TEST(Trainer, LossDecreasesOnEasyTask) {
  const Dataset data = easy_dataset();
  Rng rng(1);
  Mlp net({4, 6, 3}, rng);
  const double before = reference::mean_cross_entropy(net, data);
  TrainConfig cfg;
  cfg.epochs = 30;
  Trainer trainer(cfg);
  trainer.fit(net, data, rng);
  EXPECT_LT(reference::mean_cross_entropy(net, data), 0.5 * before);
  EXPECT_GT(accuracy(net, data), 0.9);
}

TEST(Trainer, DeterministicGivenSeed) {
  const Dataset data = easy_dataset();
  TrainConfig cfg;
  cfg.epochs = 5;
  Mlp net1({4, 5, 3}, *std::make_unique<Rng>(3));
  Mlp net2({4, 5, 3}, *std::make_unique<Rng>(3));
  Rng rng1(77), rng2(77);
  Trainer(cfg).fit(net1, data, rng1);
  Trainer(cfg).fit(net2, data, rng2);
  for (std::size_t li = 0; li < net1.layer_count(); ++li) {
    EXPECT_EQ(net1.layer(li).weights, net2.layer(li).weights);
  }
}

/// One Trainer fitting a second model must leave it exactly as a fresh
/// Trainer would: the optimizer state is sized to, and zeroed for, every
/// fit — for an equal-shape refit (no carried-over moments or step count)
/// and for a wider model of the same depth (no writes past the state).
TEST(Trainer, RefitMatchesFreshTrainer) {
  const Dataset data = easy_dataset();
  for (const std::size_t width : {std::size_t{6}, std::size_t{13}}) {
    TrainConfig cfg;
    cfg.epochs = 3;
    Rng init_a(11);
    Mlp first({4, 6, 3}, init_a);
    Rng init_b(12);
    Mlp second({4, width, 3}, init_b);
    Mlp fresh = second;

    Trainer reused(cfg);
    Rng rng_a(13);
    reused.fit(first, data, rng_a);
    Rng rng_b(14);
    reused.fit(second, data, rng_b);
    Rng rng_f(14);
    Trainer(cfg).fit(fresh, data, rng_f);

    for (std::size_t li = 0; li < second.layer_count(); ++li) {
      EXPECT_EQ(second.layer(li).weights, fresh.layer(li).weights)
          << "layer " << li << " width " << width;
      EXPECT_EQ(second.layer(li).bias, fresh.layer(li).bias)
          << "layer " << li << " width " << width;
    }
  }
}

TEST(Trainer, ProjectorHoldsConstraintAfterEveryStep) {
  const Dataset data = easy_dataset();
  Rng rng(5);
  Mlp net({4, 6, 3}, rng);
  // Constraint: weight (0,0) of layer 0 is frozen at zero.
  net.layer(0).weights(0, 0) = 0.0;
  TrainConfig cfg;
  cfg.epochs = 30;
  cfg.lr = 0.01;
  Trainer trainer(cfg);
  trainer.set_projector([](Mlp& m) { m.layer(0).weights(0, 0) = 0.0; });
  trainer.fit(net, data, rng);
  EXPECT_EQ(net.layer(0).weights(0, 0), 0.0);
  EXPECT_GT(accuracy(net, data), 0.85);  // still learns around the constraint
}

TEST(Trainer, WeightViewReceivesMasterAndAffectsTraining) {
  const Dataset data = easy_dataset();
  Rng rng(6);
  Mlp net({4, 5, 3}, rng);
  TrainConfig cfg;
  cfg.epochs = 3;
  Trainer trainer(cfg);
  int view_calls = 0;
  trainer.set_weight_view([&view_calls](const Mlp& master, Mlp& view) {
    ++view_calls;
    // Crude 1-bit "quantization": sign * 0.5.  A view rewrites every
    // weight and bias (the WeightView contract).
    for (std::size_t li = 0; li < master.layer_count(); ++li) {
      auto& w = view.layer(li).weights.raw();
      const auto& mw = master.layer(li).weights.raw();
      for (std::size_t i = 0; i < w.size(); ++i) {
        w[i] = mw[i] > 0 ? 0.5 : (mw[i] < 0 ? -0.5 : 0.0);
      }
      view.layer(li).bias = master.layer(li).bias;
    }
  });
  trainer.fit(net, data, rng);
  EXPECT_GT(view_calls, 0);
  // Master weights stay float (not collapsed to +-0.5): STE semantics.
  bool any_non_half = false;
  for (double w : net.layer(0).weights.raw()) {
    if (w != 0.5 && w != -0.5 && w != 0.0) any_non_half = true;
  }
  EXPECT_TRUE(any_non_half);
}

TEST(Trainer, RejectsShapeMismatch) {
  const Dataset data = easy_dataset();
  Rng rng(7);
  Mlp net({5, 4, 3}, rng);  // dataset has 4 features
  TrainConfig cfg;
  cfg.epochs = 1;
  Trainer trainer(cfg);
  EXPECT_THROW(trainer.fit(net, data, rng), std::invalid_argument);
}

/// The softmax takes the output layer's values as logits, so fit refuses
/// an output layer that is not identity (the bespoke generator could not
/// lower one either), and leaves the model untouched.
TEST(Trainer, RejectsNonIdentityOutputLayer) {
  const Dataset data = easy_dataset();
  Rng rng(15);
  Mlp net({4, 5, 3}, rng);
  net.layers().back().act = Activation::kRelu;
  const Mlp before = net;
  TrainConfig cfg;
  cfg.epochs = 1;
  Trainer trainer(cfg);
  EXPECT_THROW(trainer.fit(net, data, rng), std::invalid_argument);
  for (std::size_t li = 0; li < net.layer_count(); ++li) {
    EXPECT_EQ(net.layer(li).weights, before.layer(li).weights);
  }
}

TEST(Trainer, RejectsEmptyDataset) {
  Dataset empty;
  empty.n_classes = 2;
  Rng rng(8);
  Mlp net({4, 3, 2}, rng);
  TrainConfig cfg;
  Trainer trainer(cfg);
  EXPECT_THROW(trainer.fit(net, empty, rng), std::invalid_argument);
}

TEST(Gradients, ZerosLikeShapesMatch) {
  Rng rng(9);
  Mlp net({3, 7, 2}, rng);
  auto g = Gradients::zeros_like(net);
  ASSERT_EQ(g.w.size(), 2U);
  EXPECT_EQ(g.w[0].rows(), 7U);
  EXPECT_EQ(g.w[0].cols(), 3U);
  EXPECT_EQ(g.b[1].size(), 2U);
}

TEST(Gradients, ScaleMultipliesEverything) {
  Rng rng(10);
  Mlp net({2, 2, 2}, rng);
  auto g = Gradients::zeros_like(net);
  g.w[0](0, 0) = 4.0;
  g.b[1][1] = -2.0;
  reference::scale(g, 0.5);
  EXPECT_EQ(g.w[0](0, 0), 2.0);
  EXPECT_EQ(g.b[1][1], -1.0);
}

}  // namespace
}  // namespace pnm
