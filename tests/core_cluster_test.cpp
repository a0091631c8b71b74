/// Tests for weight clustering: 1-D k-means quality, column-wise sharing
/// structure, zero pinning, and tied fine-tuning.

#include "pnm/core/cluster.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "pnm/core/prune.hpp"
#include "pnm/data/scaler.hpp"
#include "pnm/data/synth.hpp"
#include "pnm/nn/metrics.hpp"
#include "pnm/nn/trainer.hpp"

namespace pnm {
namespace {

Mlp random_net(std::uint64_t seed) {
  Rng rng(seed);
  return Mlp({6, 8, 4}, rng);
}

TEST(Kmeans1d, TrivialCases) {
  Rng rng(1);
  EXPECT_TRUE(kmeans_1d({}, 3, rng).empty());
  const auto one = kmeans_1d({5.0}, 3, rng);
  ASSERT_EQ(one.size(), 1U);
  EXPECT_EQ(one[0], 0);
  EXPECT_THROW(kmeans_1d({1.0}, 0, rng), std::invalid_argument);
}

TEST(Kmeans1d, SeparatedClustersAreFound) {
  Rng rng(2);
  std::vector<double> values;
  for (int i = 0; i < 20; ++i) values.push_back(0.0 + 0.01 * i);
  for (int i = 0; i < 20; ++i) values.push_back(10.0 + 0.01 * i);
  std::vector<double> centroids;
  const auto assign = kmeans_1d(values, 2, rng, &centroids);
  ASSERT_EQ(centroids.size(), 2U);
  // All low values share one label, all high values the other.
  const int low_label = assign[0];
  for (int i = 0; i < 20; ++i) EXPECT_EQ(assign[static_cast<std::size_t>(i)], low_label);
  const int high_label = assign[20];
  EXPECT_NE(high_label, low_label);
  for (int i = 20; i < 40; ++i) EXPECT_EQ(assign[static_cast<std::size_t>(i)], high_label);
  // Centroids near the cluster means.
  const double lo_c = std::min(centroids[0], centroids[1]);
  const double hi_c = std::max(centroids[0], centroids[1]);
  EXPECT_NEAR(lo_c, 0.095, 0.05);
  EXPECT_NEAR(hi_c, 10.095, 0.05);
}

TEST(Kmeans1d, AssignmentIsNearestCentroid) {
  Rng rng(3);
  std::vector<double> values;
  for (int i = 0; i < 50; ++i) values.push_back(rng.uniform(-2.0, 2.0));
  std::vector<double> centroids;
  const auto assign = kmeans_1d(values, 4, rng, &centroids);
  for (std::size_t i = 0; i < values.size(); ++i) {
    const double own =
        std::fabs(values[i] - centroids[static_cast<std::size_t>(assign[i])]);
    for (double c : centroids) {
      EXPECT_LE(own, std::fabs(values[i] - c) + 1e-12);
    }
  }
}

TEST(Kmeans1d, KLargerThanNIsFine) {
  Rng rng(4);
  const auto assign = kmeans_1d({1.0, 2.0, 3.0}, 10, rng);
  EXPECT_EQ(assign.size(), 3U);
}

TEST(ClusterWeights, BoundsDistinctValuesPerColumn) {
  Mlp net = random_net(5);
  Rng rng(6);
  cluster_weights(net, {3, 3}, rng, ClusterScope::kPerColumn);
  for (std::size_t li = 0; li < net.layer_count(); ++li) {
    for (std::size_t c = 0; c < net.layer(li).in_features(); ++c) {
      EXPECT_LE(ClusterAssignment::distinct_values_in_column(net, li, c), 3U)
          << "layer " << li << " col " << c;
    }
  }
}

TEST(ClusterWeights, PerLayerScopeBoundsLayerwideValues) {
  Mlp net = random_net(7);
  Rng rng(8);
  cluster_weights(net, {4, 4}, rng, ClusterScope::kPerLayer);
  for (std::size_t li = 0; li < net.layer_count(); ++li) {
    std::set<double> distinct;
    for (double w : net.layer(li).weights.raw()) {
      if (w != 0.0) distinct.insert(w);
    }
    EXPECT_LE(distinct.size(), 4U);
  }
}

TEST(ClusterWeights, ZeroDisablesLayer) {
  Mlp net = random_net(9);
  const Mlp original = net;
  Rng rng(10);
  cluster_weights(net, {0, 2}, rng);
  EXPECT_EQ(net.layer(0).weights, original.layer(0).weights);  // untouched
  EXPECT_NE(net.layer(1).weights, original.layer(1).weights);
}

TEST(ClusterWeights, ZerosStayPinned) {
  // Composition with pruning: clustering must not resurrect zeros.
  Mlp net = random_net(11);
  const auto mask = magnitude_prune_global(net, 0.4);
  Rng rng(12);
  const auto assignment = cluster_weights(net, {3, 3}, rng);
  EXPECT_TRUE(mask.satisfied_by(net));
  // And projection keeps them pinned.
  assignment.project(net);
  EXPECT_TRUE(mask.satisfied_by(net));
}

TEST(ClusterWeights, ProjectionIsIdempotent) {
  Mlp net = random_net(13);
  Rng rng(14);
  const auto assignment = cluster_weights(net, {2, 4}, rng);
  EXPECT_TRUE(assignment.satisfied_by(net));
  const Mlp after_once = net;
  assignment.project(net);
  for (std::size_t li = 0; li < net.layer_count(); ++li) {
    EXPECT_EQ(net.layer(li).weights, after_once.layer(li).weights);
  }
}

TEST(ClusterWeights, SatisfiedByDetectsBrokenTie) {
  Mlp net = random_net(15);
  Rng rng(16);
  const auto assignment = cluster_weights(net, {2, 2}, rng);
  ASSERT_TRUE(assignment.satisfied_by(net));
  // Perturb one member of a multi-member group (a singleton group would
  // trivially stay satisfied).
  for (const auto& group : assignment.layer_groups(0)) {
    if (group.members.size() >= 2) {
      net.layer(0).weights.raw()[group.members.front()] += 0.123;
      break;
    }
  }
  EXPECT_FALSE(assignment.satisfied_by(net));
}

TEST(ClusterWeights, RejectsBadArguments) {
  Mlp net = random_net(17);
  Rng rng(18);
  EXPECT_THROW(cluster_weights(net, {2}, rng), std::invalid_argument);
  EXPECT_THROW(cluster_weights(net, {-1, 2}, rng), std::invalid_argument);
}

TEST(ClusterWeights, ClusteringErrorShrinksWithK) {
  // More clusters => weights move less.
  auto distortion = [](int k) {
    Mlp net = random_net(19);
    const Mlp original = net;
    Rng rng(20);
    cluster_weights(net, {k, k}, rng);
    double err = 0.0;
    for (std::size_t li = 0; li < net.layer_count(); ++li) {
      const auto& a = net.layer(li).weights.raw();
      const auto& b = original.layer(li).weights.raw();
      for (std::size_t i = 0; i < a.size(); ++i) err += (a[i] - b[i]) * (a[i] - b[i]);
    }
    return err;
  };
  EXPECT_GT(distortion(1), distortion(3));
  EXPECT_GT(distortion(3), distortion(8));
}

TEST(ClusterFineTune, TiesHoldAndAccuracyRecovers) {
  SynthConfig cfg;
  cfg.n_features = 6;
  cfg.n_classes = 4;
  cfg.n_samples = 600;
  cfg.class_separation = 2.2;
  Rng gen(30);
  Dataset data = make_synthetic(cfg, gen);
  Rng rng(31);
  DataSplit split = stratified_split(data, 0.7, 0.0, 0.3, rng);
  MinMaxScaler scaler;
  scale_split(split, scaler);

  Mlp net({6, 8, 4}, rng);
  TrainConfig tc;
  tc.epochs = 40;
  Trainer(tc).fit(net, split.train, rng);

  auto assignment = cluster_weights(net, {2, 2}, rng);
  const double acc_clustered = accuracy(net, split.test);

  TrainConfig ft = tc;
  ft.epochs = 15;
  ft.lr = tc.lr * 0.3;
  Trainer trainer(ft);
  trainer.set_projector([&assignment](Mlp& m) { assignment.project(m); });
  trainer.fit(net, split.train, rng);

  EXPECT_TRUE(assignment.satisfied_by(net));
  EXPECT_GE(accuracy(net, split.test), acc_clustered - 0.02);
}

/// Cluster-count sweep: distinct column values never exceed k.
class ClusterCountSweep : public ::testing::TestWithParam<int> {};

TEST_P(ClusterCountSweep, ColumnBoundHolds) {
  const int k = GetParam();
  Mlp net = random_net(40);
  Rng rng(41);
  cluster_weights(net, {k, k}, rng);
  for (std::size_t li = 0; li < net.layer_count(); ++li) {
    for (std::size_t c = 0; c < net.layer(li).in_features(); ++c) {
      EXPECT_LE(ClusterAssignment::distinct_values_in_column(net, li, c),
                static_cast<std::size_t>(k));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(PaperRange, ClusterCountSweep,
                         ::testing::Values(1, 2, 3, 4, 6, 8));

}  // namespace
}  // namespace pnm
