/// Figure-shape integration tests: scaled-down versions of the paper's
/// claims that must hold for the full benches to reproduce the figures.
/// (The benches in /bench run the full-size sweeps; these tests pin the
/// qualitative shape at CI-friendly cost.)

#include <gtest/gtest.h>

#include <set>

#include "pnm/core/flow.hpp"
#include "pnm/core/pareto.hpp"

namespace pnm {
namespace {

/// One shared flow per dataset tested here.
MinimizationFlow& flow_for(const std::string& dataset) {
  static std::map<std::string, std::unique_ptr<MinimizationFlow>> flows;
  auto it = flows.find(dataset);
  if (it == flows.end()) {
    FlowConfig config;
    config.dataset_name = dataset;
    config.seed = 42;
    config.train.epochs = 30;
    config.finetune_epochs = 5;
    auto flow = std::make_unique<MinimizationFlow>(config);
    flow->prepare();
    it = flows.emplace(dataset, std::move(flow)).first;
  }
  return *it->second;
}

/// Paper §III: "quantization ... featuring on average 5x area reduction
/// for up to 5% accuracy loss".  Scaled-down claim: on Seeds, the 2-7 bit
/// sweep must contain a point within 5% loss at >= 2x reduction.
TEST(FigureShape, QuantizationGivesLargeGainAtFivePercentLoss) {
  auto& flow = flow_for("seeds");
  const auto points = flow.sweep_quantization(2, 7);
  const auto gain = best_area_gain_at_loss(points, flow.baseline().accuracy,
                                           flow.baseline().area_mm2, 0.05);
  ASSERT_TRUE(gain.has_value());
  EXPECT_GE(*gain, 2.0);
}

/// Pruning at 20-60% sparsity must trade area for bounded accuracy loss.
TEST(FigureShape, PruningFrontIsUsable) {
  auto& flow = flow_for("seeds");
  const auto points = flow.sweep_pruning({0.2, 0.4, 0.6});
  const auto gain = best_area_gain_at_loss(points, flow.baseline().accuracy,
                                           flow.baseline().area_mm2, 0.05);
  ASSERT_TRUE(gain.has_value());
  EXPECT_GE(*gain, 1.2);
  // And sparsity monotonically shrinks the circuit.
  for (std::size_t i = 1; i < points.size(); ++i) {
    EXPECT_LT(points[i].area_mm2, points[i - 1].area_mm2);
  }
}

/// Figure-1 shape: the quantization front dominates the pruning front
/// (higher hypervolume w.r.t. a common reference).
TEST(FigureShape, QuantizationFrontBeatsPruningFront) {
  auto& flow = flow_for("seeds");
  const auto quant = flow.sweep_quantization(2, 7);
  const auto prune = flow.sweep_pruning({0.2, 0.3, 0.4, 0.5, 0.6});
  const double ref_area = flow.baseline().area_mm2;
  const double hv_quant = hypervolume(quant, 0.0, ref_area);
  const double hv_prune = hypervolume(prune, 0.0, ref_area);
  EXPECT_GT(hv_quant, hv_prune);
}

/// Figure-2 shape: the combined GA front must not be dominated by any
/// standalone point, and should beat the best standalone gain @5% loss.
TEST(FigureShape, CombinedGaBeatsStandaloneTechniques) {
  auto& flow = flow_for("seeds");
  const auto quant = flow.sweep_quantization(2, 7);
  const auto prune = flow.sweep_pruning({0.2, 0.4, 0.6});
  const auto cluster = flow.sweep_clustering({2, 4});

  GaConfig ga;
  ga.population = 16;
  ga.generations = 8;
  ProxyEvaluator fitness = flow.proxy_evaluator(2);
  const auto outcome = flow.run_ga(fitness, ga);
  ASSERT_FALSE(outcome.front.empty());

  const double base_acc = flow.baseline().accuracy;
  const double base_area = flow.baseline().area_mm2;
  const double gain_ga =
      best_area_gain_at_loss(outcome.front, base_acc, base_area, 0.05).value_or(1.0);
  double gain_standalone = 1.0;
  for (const auto* sweep : {&quant, &prune, &cluster}) {
    gain_standalone = std::max(
        gain_standalone,
        best_area_gain_at_loss(*sweep, base_acc, base_area, 0.05).value_or(1.0));
  }
  // GA combines all three search spaces, so it can only do at least as
  // well up to search noise; require >= 90% of the best standalone gain
  // and a materially useful gain overall.
  EXPECT_GE(gain_ga, 0.9 * gain_standalone);
  EXPECT_GE(gain_ga, 2.0);
}

/// The wines are the hard ordinal tasks: their float accuracy is low and
/// quantization to moderate bits must not collapse it further than the
/// paper's regime allows.
TEST(FigureShape, WineTaskSurvivesModerateQuantization) {
  auto& flow = flow_for("redwine");
  EXPECT_LT(flow.float_test_accuracy(), 0.80);
  EXPECT_GT(flow.float_test_accuracy(), 0.40);
  const auto points = flow.sweep_quantization(4, 6);
  for (const auto& p : points) {
    EXPECT_GT(p.accuracy, flow.float_test_accuracy() - 0.10) << p.config;
  }
}

/// Normalization sanity for the figure axes: every produced point has
/// area near or below the baseline (weak clustering on a tiny hidden
/// layer can land a few percent above after fine-tuning reshapes the
/// centroids) and accuracy in [0, 1].
TEST(FigureShape, NormalizedAxesAreWellFormed) {
  auto& flow = flow_for("seeds");
  std::vector<DesignPoint> all = flow.sweep_quantization(2, 7);
  const auto prune = flow.sweep_pruning({0.2, 0.6});
  const auto cluster = flow.sweep_clustering({2, 4});
  all.insert(all.end(), prune.begin(), prune.end());
  all.insert(all.end(), cluster.begin(), cluster.end());
  for (const auto& p : all) {
    EXPECT_GT(p.accuracy, 0.0);
    EXPECT_LE(p.accuracy, 1.0);
    EXPECT_LT(p.area_mm2 / flow.baseline().area_mm2, 1.10) << p.technique << " " << p.config;
  }
}

}  // namespace
}  // namespace pnm
