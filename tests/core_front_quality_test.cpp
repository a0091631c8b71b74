/// Front-quality gate for the vectorized fine-tuning math.
///
/// The fast-math softmax (nn/fastmath.hpp) and the sample-blocked backprop
/// (nn/dense_simd.hpp) are declared accuracy-neutral, NOT bit-identical:
/// they perturb training trajectories at the last-ulp level, so fine-tuned
/// fronts are gated on *quality* — realized (accuracy, area) design points
/// — against (a) the per-sample libm reference on the scalar table
/// (tests/trainer_reference.hpp) computed in-process and (b) a committed
/// golden baseline, both within declared tolerances.  Bit-identity gates
/// live elsewhere (core_infer_simd_test for the integer engine,
/// nn_dense_simd_test for the kernel tables, nn_trainer_golden_test for
/// fine-tuning).

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "pnm/core/eval.hpp"
#include "pnm/core/flow.hpp"
#include "pnm/hw/bespoke.hpp"
#include "pnm/nn/dense_simd.hpp"
#include "trainer_reference.hpp"

namespace pnm {
namespace {

/// Accuracy is a fraction of a ~40-sample test split, so one flipped
/// sample moves it by ~0.025; the tolerance admits a couple of flips.
constexpr double kAccuracyTolerance = 0.06;
/// Area moves when the fine-tuned weights quantize differently; small
/// trajectory perturbations change a few CSD digits, not the architecture.
constexpr double kAreaRelTolerance = 0.25;

FlowConfig fast_config() {
  FlowConfig config;
  config.dataset_name = "seeds";
  config.seed = 42;
  config.train.epochs = 25;
  config.finetune_epochs = 4;
  return config;
}

MinimizationFlow& seeds_flow() {
  static MinimizationFlow flow = [] {
    MinimizationFlow f(fast_config());
    f.prepare();
    return f;
  }();
  return flow;
}

/// The same structurally distinct candidates core_eval_test batches.
std::vector<Genome> sample_genomes() {
  std::vector<Genome> genomes;
  for (int bits : {2, 3, 4, 6}) {
    Genome g;
    g.weight_bits = {bits, bits};
    g.sparsity_pct = {10 * bits, 0};
    g.clusters = {bits % 2 == 0 ? 2 : 0, 0};
    genomes.push_back(std::move(g));
  }
  return genomes;
}

/// The reference design point for `genome`: the per-sample libm fine-tune
/// on the scalar table, realized and measured as NetlistEvaluator measures
/// it (the sharing policy of PipelineEvaluator::options_for).
DesignPoint reference_point(const MinimizationFlow& flow, const NetlistEvaluator& netlist,
                            const Genome& genome) {
  const EvalConfig& config = netlist.config();
  const QuantizedMlp qmodel = [&] {
    const reference::ScopedKernels scalar(simd::Isa::kScalar);
    return reference::realize(flow.float_model(), flow.data().train, config, genome,
                              reference::Gradient::kPerSampleLibm);
  }();
  hw::BespokeOptions options = config.bespoke;
  if (config.share_only_when_clustered) {
    bool any_clustered = false;
    for (const int k : genome.clusters) any_clustered |= (k > 0);
    options.share_products = any_clustered;
  }
  if (!options.share_products) options.share_subexpressions = false;
  DesignPoint point;
  point.accuracy = qmodel.accuracy(netlist.reporting_set());
  point.area_mm2 = hw::BespokeCircuit(qmodel, options).area_mm2(flow.tech());
  return point;
}

TEST(FrontQuality, VectorizedMathMatchesLibmReference) {
  auto& flow = seeds_flow();
  NetlistEvaluator netlist = flow.netlist_evaluator(fast_config().finetune_epochs,
                                                    /*use_test_set=*/true);
  for (const Genome& g : sample_genomes()) {
    const DesignPoint fast_point = netlist.evaluate(g);
    const DesignPoint ref_point = reference_point(flow, netlist, g);
    EXPECT_NEAR(fast_point.accuracy, ref_point.accuracy, kAccuracyTolerance)
        << "genome " << g.key();
    EXPECT_NEAR(fast_point.area_mm2, ref_point.area_mm2,
                kAreaRelTolerance * ref_point.area_mm2)
        << "genome " << g.key();
  }
}

/// Golden baseline for the fine-tuned front under the shipped defaults
/// (fast softmax + blocked backprop).  Regenerate by printing the points
/// this test compares (they are deterministic: the dense kernels are
/// bit-identical on every ISA and fast_exp is a fixed polynomial).
struct GoldenPoint {
  double accuracy;
  double area_mm2;
};

TEST(FrontQuality, MatchesGoldenBaseline) {
  constexpr GoldenPoint kGolden[] = {
      {0.864, 25.079},  // b2,2|s20,0|c2,0
      {0.752, 46.970},  // b3,3|s30,0|c0,0
      {0.872, 72.211},  // b4,4|s40,0|c2,0
      {0.744, 78.776},  // b6,6|s60,0|c2,0
  };
  auto& flow = seeds_flow();
  NetlistEvaluator netlist = flow.netlist_evaluator(fast_config().finetune_epochs,
                                                    /*use_test_set=*/true);
  const std::vector<Genome> genomes = sample_genomes();
  ASSERT_EQ(genomes.size(), std::size(kGolden));
  for (std::size_t i = 0; i < genomes.size(); ++i) {
    const DesignPoint p = netlist.evaluate(genomes[i]);
    SCOPED_TRACE("genome " + genomes[i].key());
    std::cout << "  realized[" << i << "]: accuracy " << p.accuracy << " area "
              << p.area_mm2 << "\n";
    EXPECT_NEAR(p.accuracy, kGolden[i].accuracy, kAccuracyTolerance);
    EXPECT_NEAR(p.area_mm2, kGolden[i].area_mm2,
                kAreaRelTolerance * kGolden[i].area_mm2);
  }
}

}  // namespace
}  // namespace pnm
