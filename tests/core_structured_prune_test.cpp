/// Tests for structured (neuron-level) pruning, the §II-B alternative.

#include <gtest/gtest.h>

#include <cmath>

#include "pnm/core/prune.hpp"
#include "pnm/data/scaler.hpp"
#include "pnm/data/synth.hpp"
#include "pnm/nn/metrics.hpp"
#include "pnm/nn/trainer.hpp"

namespace pnm {
namespace {

Mlp random_net(std::uint64_t seed, std::vector<std::size_t> topo = {6, 8, 4}) {
  Rng rng(seed);
  return Mlp(topo, rng);
}

TEST(NeuronSaliency, ComputesNormProducts) {
  DenseLayer l1;
  l1.weights = Matrix(2, 2, {3.0, 4.0,    // neuron 0: norm 5
                             0.0, 1.0});  // neuron 1: norm 1
  l1.bias = {0, 0};
  l1.act = Activation::kRelu;
  DenseLayer l2;
  l2.weights = Matrix(1, 2, {2.0, 6.0});  // outgoing norms 2 and 6
  l2.bias = {0};
  l2.act = Activation::kIdentity;
  const Mlp net({l1, l2});
  const auto saliency = neuron_saliency(net, 0);
  ASSERT_EQ(saliency.size(), 2U);
  EXPECT_NEAR(saliency[0], 5.0 * 2.0, 1e-12);
  EXPECT_NEAR(saliency[1], 1.0 * 6.0, 1e-12);
}

TEST(NeuronSaliency, RejectsOutputLayer) {
  const Mlp net = random_net(1);
  EXPECT_THROW(neuron_saliency(net, 1), std::invalid_argument);
}

TEST(StructuredPrune, ShrinksTopologyAsRequested) {
  const Mlp net = random_net(2);
  const Mlp pruned = structured_prune(net, 0.5);
  EXPECT_EQ(pruned.topology(), (std::vector<std::size_t>{6, 4, 4}));
  const Mlp quarter = structured_prune(net, 0.25);
  EXPECT_EQ(quarter.topology(), (std::vector<std::size_t>{6, 6, 4}));
}

TEST(StructuredPrune, ZeroFractionIsIdentity) {
  const Mlp net = random_net(3);
  const Mlp same = structured_prune(net, 0.0);
  EXPECT_EQ(same.topology(), net.topology());
  for (std::size_t li = 0; li < net.layer_count(); ++li) {
    EXPECT_EQ(same.layer(li).weights, net.layer(li).weights);
  }
}

TEST(StructuredPrune, AlwaysKeepsAtLeastOneNeuron) {
  const Mlp net = random_net(4, {4, 3, 2});
  const Mlp pruned = structured_prune(net, 0.99);
  EXPECT_GE(pruned.topology()[1], 1U);
  EXPECT_EQ(pruned.input_size(), 4U);
  EXPECT_EQ(pruned.output_size(), 2U);
}

TEST(StructuredPrune, RejectsBadArguments) {
  const Mlp net = random_net(5);
  EXPECT_THROW(structured_prune(net, -0.1), std::invalid_argument);
  EXPECT_THROW(structured_prune(net, 1.0), std::invalid_argument);
}

TEST(StructuredPrune, DropsLowestSaliencyNeurons) {
  Mlp net = random_net(6, {3, 4, 2});
  // Make neuron 2 clearly the weakest.
  for (std::size_t c = 0; c < 3; ++c) net.layer(0).weights(2, c) = 1e-6;
  for (std::size_t r = 0; r < 2; ++r) net.layer(1).weights(r, 2) = 1e-6;
  const Mlp pruned = structured_prune(net, 0.25);
  ASSERT_EQ(pruned.topology()[1], 3U);
  // The surviving rows are the original neurons 0, 1, 3 in order.
  for (std::size_t c = 0; c < 3; ++c) {
    EXPECT_EQ(pruned.layer(0).weights(0, c), net.layer(0).weights(0, c));
    EXPECT_EQ(pruned.layer(0).weights(1, c), net.layer(0).weights(1, c));
    EXPECT_EQ(pruned.layer(0).weights(2, c), net.layer(0).weights(3, c));
  }
  EXPECT_EQ(pruned.layer(0).bias[2], net.layer(0).bias[3]);
  // And the next layer lost the matching column.
  EXPECT_EQ(pruned.layer(1).weights(0, 2), net.layer(1).weights(0, 3));
}

TEST(StructuredPrune, PrunedModelStillComputes) {
  const Mlp net = random_net(7);
  const Mlp pruned = structured_prune(net, 0.5);
  const std::vector<double> x = {0.1, 0.2, 0.3, 0.4, 0.5, 0.6};
  EXPECT_NO_THROW((void)pruned.predict(x));
}

TEST(StructuredPrune, MultiHiddenLayerNetworks) {
  const Mlp net = random_net(8, {5, 8, 6, 3});
  const Mlp pruned = structured_prune(net, 0.5);
  EXPECT_EQ(pruned.topology(), (std::vector<std::size_t>{5, 4, 3, 3}));
  EXPECT_NO_THROW((void)pruned.predict({0.1, 0.2, 0.3, 0.4, 0.5}));
}

TEST(StructuredPrune, UnstructuredIsAtLeastComparableAtMatchedLevel) {
  // §II-B prefers unstructured pruning ("higher accuracy for similar
  // sparsity").  On printed-scale networks with fine-tuning, both recover
  // well at 50%; the literature's unstructured advantage shows up at
  // higher compression and larger models, so here we pin the weaker
  // invariant: unstructured is never materially worse.  Averaged over
  // seeds to keep the comparison out of noise.
  SynthConfig cfg;
  cfg.n_features = 8;
  cfg.n_classes = 4;
  cfg.n_samples = 900;
  cfg.class_separation = 1.4;  // non-trivial task
  double unstructured_total = 0.0;
  double structured_total = 0.0;
  for (std::uint64_t seed = 0; seed < 3; ++seed) {
    Rng gen(40 + seed);
    Dataset data = make_synthetic(cfg, gen);
    Rng rng(50 + seed);
    DataSplit split = stratified_split(data, 0.7, 0.0, 0.3, rng);
    MinMaxScaler scaler;
    scale_split(split, scaler);
    Mlp net({8, 8, 4}, rng);
    TrainConfig tc;
    tc.epochs = 50;
    Trainer(tc).fit(net, split.train, rng);

    TrainConfig ft = tc;
    ft.epochs = 15;
    ft.lr = tc.lr * 0.3;

    Mlp unstructured = net;
    auto mask = magnitude_prune_global(unstructured, 0.5);
    {
      Trainer trainer(ft);
      trainer.set_projector([&mask](Mlp& m) { mask.apply(m); });
      Rng r(60 + seed);
      trainer.fit(unstructured, split.train, r);
    }
    Mlp structured = structured_prune(net, 0.5);
    {
      Trainer trainer(ft);
      Rng r(60 + seed);
      trainer.fit(structured, split.train, r);
    }
    unstructured_total += accuracy(unstructured, split.test);
    structured_total += accuracy(structured, split.test);
  }
  EXPECT_GE(unstructured_total / 3.0, structured_total / 3.0 - 0.03);
}

}  // namespace
}  // namespace pnm
