/// Integration tests for MinimizationFlow: the full pipeline from dataset
/// to evaluated bespoke designs.

#include "pnm/core/flow.hpp"

#include <gtest/gtest.h>

#include <set>
#include <string>

#include "pnm/data/synth.hpp"

namespace pnm {
namespace {

FlowConfig fast_config(const std::string& dataset) {
  FlowConfig config;
  config.dataset_name = dataset;
  config.seed = 42;
  config.train.epochs = 25;
  config.finetune_epochs = 4;
  return config;
}

/// A shared, lazily-prepared flow so the suite trains Seeds only once.
MinimizationFlow& seeds_flow() {
  static MinimizationFlow flow = [] {
    MinimizationFlow f(fast_config("seeds"));
    f.prepare();
    return f;
  }();
  return flow;
}

TEST(Flow, AccessorsRequirePrepare) {
  MinimizationFlow flow(fast_config("seeds"));
  EXPECT_FALSE(flow.prepared());
  EXPECT_THROW((void)flow.data(), std::logic_error);
  EXPECT_THROW((void)flow.float_model(), std::logic_error);
  EXPECT_THROW((void)flow.baseline(), std::logic_error);
  EXPECT_THROW(flow.sweep_quantization(), std::logic_error);
}

TEST(Flow, PrepareTrainsAReasonableBaseline) {
  auto& flow = seeds_flow();
  EXPECT_TRUE(flow.prepared());
  EXPECT_GT(flow.float_test_accuracy(), 0.8);
  const auto& baseline = flow.baseline();
  EXPECT_EQ(baseline.technique, "baseline");
  EXPECT_EQ(baseline.config, "8b");
  EXPECT_GT(baseline.accuracy, 0.8);
  EXPECT_GT(baseline.area_mm2, 10.0);
  EXPECT_GT(baseline.power_uw, 0.0);
  EXPECT_GT(baseline.delay_ms, 0.0);
}

TEST(Flow, DefaultTopologyUsesDatasetShape) {
  auto& flow = seeds_flow();
  const auto topo = flow.float_model().topology();
  ASSERT_EQ(topo.size(), 3U);
  EXPECT_EQ(topo[0], 7U);  // seeds features
  EXPECT_EQ(topo[2], 3U);  // seeds classes
  EXPECT_EQ(MinimizationFlow::default_hidden("whitewine"), (std::vector<std::size_t>{8}));
  EXPECT_EQ(MinimizationFlow::default_hidden("unknown"), (std::vector<std::size_t>{6}));
}

TEST(Flow, QuantizationSweepProducesOrderedAreas) {
  auto& flow = seeds_flow();
  const auto points = flow.sweep_quantization(2, 7);
  ASSERT_EQ(points.size(), 6U);
  for (std::size_t i = 0; i < points.size(); ++i) {
    EXPECT_EQ(points[i].technique, "quant");
    EXPECT_GT(points[i].area_mm2, 0.0);
    if (i > 0) {
      EXPECT_GT(points[i].area_mm2, points[i - 1].area_mm2);  // more bits
    }
  }
  // Low bit-widths save area vs the baseline.
  EXPECT_LT(points.front().area_mm2, 0.6 * flow.baseline().area_mm2);
}

TEST(Flow, PruningSweepShrinksArea) {
  auto& flow = seeds_flow();
  const auto points = flow.sweep_pruning({0.2, 0.6});
  ASSERT_EQ(points.size(), 2U);
  EXPECT_EQ(points[0].technique, "prune");
  EXPECT_GT(points[0].area_mm2, points[1].area_mm2);  // 60% < 20% area
  EXPECT_LT(points[1].area_mm2, flow.baseline().area_mm2);
}

TEST(Flow, ClusteringSweepShrinksArea) {
  auto& flow = seeds_flow();
  const auto points = flow.sweep_clustering({2, 4});
  ASSERT_EQ(points.size(), 2U);
  EXPECT_EQ(points[0].technique, "cluster");
  // Aggressive clustering (k=2) must save area; k=4 on a 4-neuron hidden
  // layer is nearly a no-op and may land within noise of the baseline.
  EXPECT_LT(points[0].area_mm2, flow.baseline().area_mm2);
  EXPECT_LT(points[1].area_mm2, 1.1 * flow.baseline().area_mm2);
  // Fewer clusters never cost materially more (ties are noise: on a
  // 4-neuron hidden layer k=4 is nearly unclustered already).
  EXPECT_LT(points[0].area_mm2, 1.05 * points[1].area_mm2);
}

TEST(Flow, NetlistEvaluatorRejectsArityMismatch) {
  auto& flow = seeds_flow();
  Genome bad;
  bad.weight_bits = {4};
  bad.sparsity_pct = {0};
  bad.clusters = {0};  // model has 2 layers
  EXPECT_THROW(flow.netlist_evaluator(1).evaluate(bad), std::invalid_argument);
}

TEST(Flow, RealizeGenomeRespectsAllThreeConstraints) {
  auto& flow = seeds_flow();
  Genome genome;
  genome.weight_bits = {3, 3};
  genome.sparsity_pct = {40, 40};
  genome.clusters = {2, 2};
  const QuantizedMlp q = flow.realize_genome(genome, 3);
  // Quantization: codes within 3-bit symmetric range.
  for (const auto& layer : q.layers()) {
    for (const auto& row : layer.dense_weights()) {
      for (int w : row) EXPECT_LE(std::abs(w), 3);
    }
  }
  // Pruning: at least ~40% zeros network-wide.
  std::size_t total = 0;
  for (const auto& layer : q.layers()) total += layer.out_features() * layer.in_features();
  const double zero_frac =
      1.0 - static_cast<double>(q.nonzero_weights()) / static_cast<double>(total);
  EXPECT_GE(zero_frac, 0.35);
  // Clustering: <= 2 distinct nonzero codes per column.
  for (const auto& layer : q.layers()) {
    for (std::size_t c = 0; c < layer.in_features(); ++c) {
      std::set<int> distinct;
      for (std::size_t r = 0; r < layer.out_features(); ++r) {
        const int w = layer.weight(r, c);
        if (w != 0) distinct.insert(w);
      }
      EXPECT_LE(distinct.size(), 2U);
    }
  }
}

TEST(Flow, ProxyAndExactEvaluationAgreeOnOrdering) {
  auto& flow = seeds_flow();
  Genome small;
  small.weight_bits = {2, 2};
  small.sparsity_pct = {50, 50};
  small.clusters = {2, 2};
  Genome large;
  large.weight_bits = {8, 8};
  large.sparsity_pct = {0, 0};
  large.clusters = {0, 0};
  NetlistEvaluator exact = flow.netlist_evaluator(2);
  ProxyEvaluator proxy = flow.proxy_evaluator(2);
  const auto small_exact = exact.evaluate(small);
  const auto small_proxy = proxy.evaluate(small);
  const auto large_exact = exact.evaluate(large);
  const auto large_proxy = proxy.evaluate(large);
  EXPECT_LT(small_exact.area_mm2, large_exact.area_mm2);
  EXPECT_LT(small_proxy.area_mm2, large_proxy.area_mm2);
}

TEST(Flow, DeterministicAcrossInstances) {
  MinimizationFlow flow1(fast_config("seeds"));
  MinimizationFlow flow2(fast_config("seeds"));
  flow1.prepare();
  flow2.prepare();
  EXPECT_EQ(flow1.baseline().accuracy, flow2.baseline().accuracy);
  EXPECT_EQ(flow1.baseline().area_mm2, flow2.baseline().area_mm2);
}

TEST(Flow, AcceptsExternalDataset) {
  SynthConfig cfg;
  cfg.name = "custom";
  cfg.n_features = 5;
  cfg.n_classes = 3;
  cfg.n_samples = 400;
  cfg.class_separation = 2.5;
  Rng rng(7);
  Dataset data = make_synthetic(cfg, rng);
  FlowConfig config = fast_config("custom-task");
  config.hidden = {5};
  MinimizationFlow flow(config, data);
  flow.prepare();
  EXPECT_EQ(flow.float_model().input_size(), 5U);
  EXPECT_GT(flow.float_test_accuracy(), 0.7);
}

TEST(Flow, PrepareRefusesAnEmptyValidationOrTestSplit) {
  // The 0.6/0.2/0.2 split rounds per class: 3 samples split 2/1/0, so a
  // 3-class set of 9 samples has no test sample.  prepare() must say so
  // before training instead of training and then failing to score.
  Dataset data;
  data.name = "nine";
  data.n_classes = 3;
  for (std::size_t i = 0; i < 9; ++i) {
    data.x.push_back({static_cast<double>(i), static_cast<double>(i % 3)});
    data.y.push_back(i % 3);
  }
  MinimizationFlow flow(fast_config("nine"), data);
  try {
    flow.prepare();
    FAIL() << "prepare() accepted a split with no test sample";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("'nine' splits 6/3/0"), std::string::npos)
        << e.what();
  }
  EXPECT_FALSE(flow.prepared());
}

/// Forwards to an inner evaluator and records every genome key asked of it.
class RecordingEvaluator final : public Evaluator {
 public:
  explicit RecordingEvaluator(Evaluator& inner) : inner_(&inner) {}
  DesignPoint evaluate(const Genome& genome) override {
    keys.push_back(genome.key());
    return inner_->evaluate(genome);
  }
  [[nodiscard]] std::string name() const override { return "recording"; }

  std::vector<std::string> keys;

 private:
  Evaluator* inner_;
};

TEST(Flow, FrontReevaluationSeesEachGenomeOnce) {
  auto& flow = seeds_flow();
  GaConfig ga;
  ga.population = 16;
  ga.generations = 8;
  ProxyEvaluator fitness = flow.proxy_evaluator(/*finetune_epochs=*/1);
  NetlistEvaluator exact = flow.netlist_evaluator(/*finetune_epochs=*/1, true);
  RecordingEvaluator front_eval(exact);
  const auto outcome = flow.run_ga(fitness, front_eval, ga);

  std::set<std::string> front_keys;
  for (const auto& member : outcome.raw.front) front_keys.insert(member.genome.key());
  ASSERT_LT(front_keys.size(), outcome.raw.front.size()) << "no copy on the final front";
  const std::set<std::string> asked(front_eval.keys.begin(), front_eval.keys.end());
  EXPECT_EQ(asked.size(), front_eval.keys.size()) << "a front genome was evaluated twice";
  EXPECT_EQ(asked, front_keys);
}

TEST(Flow, SmallGaRunImprovesOnStandalonePoints) {
  auto& flow = seeds_flow();
  GaConfig ga;
  ga.population = 12;
  ga.generations = 6;
  ProxyEvaluator fitness = flow.proxy_evaluator(/*finetune_epochs=*/2);
  const auto outcome = flow.run_ga(fitness, ga);
  ASSERT_FALSE(outcome.front.empty());
  EXPECT_GT(outcome.raw.evaluations, 10U);
  // Front points are valid designs.
  for (const auto& p : outcome.front) {
    EXPECT_EQ(p.technique, "ga");
    EXPECT_GT(p.area_mm2, 0.0);
    EXPECT_GE(p.accuracy, 0.0);
    EXPECT_LE(p.accuracy, 1.0);
  }
  // At least one GA design reaches near-baseline accuracy at lower area.
  const auto& baseline = flow.baseline();
  bool good = false;
  for (const auto& p : outcome.front) {
    if (p.accuracy >= baseline.accuracy - 0.05 && p.area_mm2 < 0.8 * baseline.area_mm2) {
      good = true;
    }
  }
  EXPECT_TRUE(good);
}

}  // namespace
}  // namespace pnm
