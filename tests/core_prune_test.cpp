/// Tests for unstructured magnitude pruning and mask-preserving fine-tuning.

#include "pnm/core/prune.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "pnm/data/synth.hpp"
#include "pnm/data/scaler.hpp"
#include "pnm/nn/metrics.hpp"
#include "pnm/nn/trainer.hpp"

namespace pnm {
namespace {

Mlp random_net(std::uint64_t seed) {
  Rng rng(seed);
  return Mlp({6, 8, 4}, rng);
}

TEST(PruneMask, OnesLikeKeepsEverything) {
  Mlp net = random_net(1);
  const auto mask = PruneMask::ones_like(net);
  EXPECT_EQ(mask.sparsity(), 0.0);
  EXPECT_TRUE(mask.satisfied_by(net));
}

TEST(PruneMask, FromNonzeroTracksZeros) {
  Mlp net = random_net(2);
  net.layer(0).weights(0, 0) = 0.0;
  net.layer(1).weights(1, 2) = 0.0;
  const auto mask = PruneMask::from_nonzero(net);
  EXPECT_NEAR(mask.sparsity(),
              2.0 / static_cast<double>(net.weight_count()), 1e-12);
  EXPECT_TRUE(mask.satisfied_by(net));
}

TEST(PruneMask, ApplyZeroesDroppedWeights) {
  Mlp net = random_net(3);
  auto mask = PruneMask::ones_like(net);
  mask.layer_mask(0)[5] = 0;
  mask.apply(net);
  EXPECT_EQ(net.layer(0).weights.raw()[5], 0.0);
  EXPECT_TRUE(mask.satisfied_by(net));
}

TEST(PruneMask, SatisfiedByDetectsViolation) {
  Mlp net = random_net(4);
  auto mask = PruneMask::ones_like(net);
  mask.layer_mask(0)[0] = 0;
  mask.apply(net);
  net.layer(0).weights.raw()[0] = 0.5;  // resurrect
  EXPECT_FALSE(mask.satisfied_by(net));
}

TEST(PruneMask, ApplyRejectsWrongShape) {
  Mlp net = random_net(5);
  Rng rng(6);
  Mlp other({3, 3, 2}, rng);
  const auto mask = PruneMask::ones_like(net);
  EXPECT_THROW(mask.apply(other), std::invalid_argument);
}

TEST(GlobalPrune, HitsExactSparsity) {
  for (double s : {0.2, 0.3, 0.4, 0.5, 0.6}) {
    Mlp net = random_net(7);
    const auto mask = magnitude_prune_global(net, s);
    const auto total = static_cast<double>(net.weight_count());
    EXPECT_NEAR(mask.sparsity(), s, 1.0 / total + 1e-9) << "s=" << s;
    EXPECT_NEAR(static_cast<double>(net.zero_weight_count()) / total, s,
                1.0 / total + 1e-9);
  }
}

TEST(GlobalPrune, DropsSmallestMagnitudesFirst) {
  Mlp net = random_net(8);
  Mlp original = net;
  magnitude_prune_global(net, 0.5);
  // Every surviving weight must be >= every pruned weight (by |.|).
  double min_kept = 1e9, max_dropped = 0.0;
  for (std::size_t li = 0; li < net.layer_count(); ++li) {
    const auto& pruned = net.layer(li).weights.raw();
    const auto& orig = original.layer(li).weights.raw();
    for (std::size_t i = 0; i < pruned.size(); ++i) {
      if (pruned[i] != 0.0) {
        min_kept = std::min(min_kept, std::fabs(orig[i]));
      } else {
        max_dropped = std::max(max_dropped, std::fabs(orig[i]));
      }
    }
  }
  EXPECT_GE(min_kept, max_dropped);
}

TEST(GlobalPrune, ZeroSparsityIsIdentity) {
  Mlp net = random_net(9);
  const Mlp original = net;
  magnitude_prune_global(net, 0.0);
  for (std::size_t li = 0; li < net.layer_count(); ++li) {
    EXPECT_EQ(net.layer(li).weights, original.layer(li).weights);
  }
}

TEST(GlobalPrune, RejectsBadSparsity) {
  Mlp net = random_net(10);
  EXPECT_THROW(magnitude_prune_global(net, -0.1), std::invalid_argument);
  EXPECT_THROW(magnitude_prune_global(net, 1.0), std::invalid_argument);
}

TEST(PerLayerPrune, EachLayerHitsItsOwnLevel) {
  Mlp net = random_net(11);
  magnitude_prune_per_layer(net, {0.5, 0.25});
  const auto& l0 = net.layer(0).weights;
  const auto& l1 = net.layer(1).weights;
  EXPECT_NEAR(static_cast<double>(l0.zero_count()) / static_cast<double>(l0.size()),
              0.5, 0.03);
  EXPECT_NEAR(static_cast<double>(l1.zero_count()) / static_cast<double>(l1.size()),
              0.25, 0.04);
}

TEST(PerLayerPrune, RejectsArityMismatch) {
  Mlp net = random_net(12);
  EXPECT_THROW(magnitude_prune_per_layer(net, {0.5}), std::invalid_argument);
}

TEST(PruneFineTune, MaskSurvivesTrainingAndAccuracyRecovers) {
  SynthConfig cfg;
  cfg.n_features = 6;
  cfg.n_classes = 4;
  cfg.n_samples = 600;
  cfg.class_separation = 2.2;
  Rng gen(20);
  Dataset data = make_synthetic(cfg, gen);
  Rng rng(21);
  DataSplit split = stratified_split(data, 0.7, 0.0, 0.3, rng);
  MinMaxScaler scaler;
  scale_split(split, scaler);

  Mlp net({6, 8, 4}, rng);
  TrainConfig tc;
  tc.epochs = 40;
  Trainer(tc).fit(net, split.train, rng);
  const double acc_dense = accuracy(net, split.test);

  auto mask = magnitude_prune_global(net, 0.5);
  const double acc_pruned = accuracy(net, split.test);

  TrainConfig ft = tc;
  ft.epochs = 15;
  ft.lr = tc.lr * 0.3;
  Trainer trainer(ft);
  trainer.set_projector([&mask](Mlp& m) { mask.apply(m); });
  trainer.fit(net, split.train, rng);
  const double acc_finetuned = accuracy(net, split.test);

  EXPECT_TRUE(mask.satisfied_by(net));  // no resurrection
  EXPECT_GE(acc_finetuned, acc_pruned - 0.02);
  EXPECT_GE(acc_finetuned, acc_dense - 0.08);  // 50% sparsity is survivable
}

/// Sparsity sweep (paper range 20-60%): pruning is monotone in zeros.
class SparsitySweep : public ::testing::TestWithParam<int> {};

TEST_P(SparsitySweep, MoreSparsityMoreZeros) {
  const double s = GetParam() / 100.0;
  Mlp a = random_net(30);
  Mlp b = random_net(30);
  magnitude_prune_global(a, s);
  magnitude_prune_global(b, std::min(0.95, s + 0.1));
  EXPECT_LE(a.zero_weight_count(), b.zero_weight_count());
}

INSTANTIATE_TEST_SUITE_P(PaperRange, SparsitySweep,
                         ::testing::Values(20, 30, 40, 50, 60));

}  // namespace
}  // namespace pnm
