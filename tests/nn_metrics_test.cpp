/// Tests for classification metrics.

#include "pnm/nn/metrics.hpp"

#include <gtest/gtest.h>

namespace pnm {
namespace {

Dataset four_samples() {
  Dataset d;
  d.name = "toy";
  d.n_classes = 2;
  d.x = {{0.0}, {1.0}, {2.0}, {3.0}};
  d.y = {0, 0, 1, 1};
  return d;
}

TEST(Metrics, AccuracyCountsCorrectPredictions) {
  const Dataset d = four_samples();
  // Threshold classifier at 1.5: perfect.
  const Predictor perfect = [](const std::vector<double>& x) {
    return static_cast<std::size_t>(x[0] > 1.5 ? 1 : 0);
  };
  EXPECT_EQ(accuracy(perfect, d), 1.0);
  // Constant classifier: half right.
  const Predictor constant = [](const std::vector<double>&) { return std::size_t{0}; };
  EXPECT_EQ(accuracy(constant, d), 0.5);
}

TEST(Metrics, AccuracyRejectsEmptyDataset) {
  Dataset empty;
  empty.n_classes = 2;
  const Predictor p = [](const std::vector<double>&) { return std::size_t{0}; };
  EXPECT_THROW(accuracy(p, empty), std::invalid_argument);
}

TEST(Metrics, MlpAccuracyOverloadAgreesWithPredictor) {
  Rng rng(3);
  Mlp net({1, 4, 2}, rng);
  const Dataset d = four_samples();
  const double a1 = accuracy(net, d);
  const double a2 =
      accuracy([&net](const std::vector<double>& x) { return net.predict(x); }, d);
  EXPECT_EQ(a1, a2);
}

}  // namespace
}  // namespace pnm
