/// Tests for precision-scaled accumulation (the approximate-computing
/// extension): integer semantics, hardware equivalence, and the area
/// pay-off it exists for.

#include <gtest/gtest.h>

#include <cmath>

#include "function_evaluator.hpp"
#include "pnm/pnm.hpp"

namespace pnm {
namespace {

QuantizedMlp quantized(const Mlp& net, int bits, int input_bits,
                       const std::vector<int>& shifts) {
  QuantSpec spec = QuantSpec::uniform(net.layer_count(), bits, input_bits);
  spec.acc_shift = shifts;
  return QuantizedMlp::from_float(net, spec);
}

TEST(Truncation, SpecValidation) {
  QuantSpec spec = QuantSpec::uniform(2, 4);
  spec.acc_shift = {1};  // wrong arity
  EXPECT_THROW(spec.validate(2), std::invalid_argument);
  spec.acc_shift = {1, 13};  // out of range
  EXPECT_THROW(spec.validate(2), std::invalid_argument);
  spec.acc_shift = {0, 12};
  EXPECT_NO_THROW(spec.validate(2));
  spec.acc_shift.clear();  // empty = exact, always fine
  EXPECT_NO_THROW(spec.validate(2));
}

TEST(Truncation, KnownValueSemantics) {
  // One layer, one neuron: w = {3, -3}, bias 5, shift 1.
  DenseLayer l;
  l.weights = Matrix(2, 2, {3.0, -3.0, 1.0, 1.0});
  l.bias = {0.0, 0.0};
  l.act = Activation::kIdentity;
  Mlp net({l});
  // bits=3 -> scale 1, codes = values.
  const auto q = quantized(net, 3, 3, {1});
  // x = (3, 1): terms for neuron 0: (3*3)>>1 = 4, -( (3*1)>>1 ) = -1.
  const auto out = q.forward({3, 1});
  EXPECT_EQ(out[0], 4 - 1);
  // Exact version differs: (9 - 3) = 6 vs truncated 3 -> truncation real.
  const auto q_exact = quantized(net, 3, 3, {0});
  EXPECT_EQ(q_exact.forward({3, 1})[0], 6);
}

TEST(Truncation, ZeroShiftIsExactlyTheBaseModel) {
  Rng rng(1);
  Mlp net({5, 4, 3}, rng);
  const auto q0 = quantized(net, 5, 4, {0, 0});
  const auto q_empty = quantized(net, 5, 4, {});
  Rng vec(2);
  for (int t = 0; t < 50; ++t) {
    std::vector<std::int64_t> xq(5);
    for (auto& v : xq) v = static_cast<std::int64_t>(vec.uniform_int(std::uint64_t{16}));
    EXPECT_EQ(q0.forward(xq), q_empty.forward(xq));
  }
}

TEST(Truncation, RangesStaySoundUnderShift) {
  Rng rng(3);
  Mlp net({4, 4, 3}, rng);
  const auto q = quantized(net, 6, 4, {2, 3});
  const auto ranges = q.neuron_preact_ranges();
  Rng vec(4);
  for (int t = 0; t < 300; ++t) {
    std::vector<std::int64_t> xq(4);
    for (auto& v : xq) v = static_cast<std::int64_t>(vec.uniform_int(std::uint64_t{16}));
    // Recompute layer-0 accumulators with the truncated semantics.
    const auto& l = q.layer(0);
    for (std::size_t r = 0; r < l.out_features(); ++r) {
      std::int64_t acc = l.bias[r] >> l.acc_shift;
      for (std::size_t c = 0; c < l.in_features(); ++c) {
        const int w = l.weight(r, c);
        if (w == 0) continue;
        const std::int64_t mag =
            (std::llabs(static_cast<long long>(w)) * xq[c]) >> l.acc_shift;
        acc += w > 0 ? mag : -mag;
      }
      EXPECT_GE(acc, ranges[0][r].lo);
      EXPECT_LE(acc, ranges[0][r].hi);
    }
  }
}

/// Hardware equivalence with truncation active, across shifts.
class TruncationEquivalence : public ::testing::TestWithParam<int> {};

TEST_P(TruncationEquivalence, CircuitMatchesGoldenModel) {
  const int shift = GetParam();
  for (std::uint64_t seed = 0; seed < 3; ++seed) {
    Rng rng(100 + seed);
    Mlp net({6, 5, 4}, rng);
    const auto q = quantized(net, 6, 4, {shift, shift});
    const hw::BespokeCircuit circuit(q);
    Rng vec(seed);
    for (int t = 0; t < 30; ++t) {
      std::vector<std::int64_t> xq(6);
      for (auto& v : xq) v = static_cast<std::int64_t>(vec.uniform_int(std::uint64_t{16}));
      ASSERT_EQ(circuit.predict(xq), q.predict_quantized(xq))
          << "shift=" << shift << " seed=" << seed;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Shifts, TruncationEquivalence, ::testing::Values(0, 1, 2, 3, 5));

TEST(Truncation, ShiftShrinksAccumulateStage) {
  Rng rng(5);
  Mlp net({8, 6, 4}, rng);
  const auto& tech = hw::TechLibrary::egt();
  const auto exact = quantized(net, 8, 4, {0, 0});
  const auto trunc = quantized(net, 8, 4, {3, 3});
  const hw::BespokeCircuit c_exact(exact);
  const hw::BespokeCircuit c_trunc(trunc);
  const auto sa_exact = c_exact.stage_areas(tech);
  const auto sa_trunc = c_trunc.stage_areas(tech);
  EXPECT_LT(sa_trunc.accumulate_mm2, 0.75 * sa_exact.accumulate_mm2);
  EXPECT_LT(c_trunc.area_mm2(tech), c_exact.area_mm2(tech));
}

TEST(Truncation, SmallShiftsBarelyHurtAccuracy) {
  FlowConfig config;
  config.dataset_name = "seeds";
  config.train.epochs = 25;
  config.finetune_epochs = 3;
  MinimizationFlow flow(config);
  flow.prepare();
  const auto points = flow.sweep_truncation({1, 2, 3});
  for (const auto& p : points) {
    EXPECT_EQ(p.technique, "truncate");
    EXPECT_LT(p.area_mm2, flow.baseline().area_mm2) << p.config;
  }
  // t=1..2 keep within a few points of the baseline on an easy task.
  EXPECT_GT(points[0].accuracy, flow.baseline().accuracy - 0.05);
  EXPECT_GT(points[1].accuracy, flow.baseline().accuracy - 0.08);
}

TEST(Truncation, GenomeKeyIncludesShiftGenes) {
  Genome g;
  g.weight_bits = {4, 4};
  g.sparsity_pct = {0, 0};
  g.clusters = {0, 0};
  EXPECT_EQ(g.key(), "b4,4|s0,0|c0,0");
  g.acc_shift = {1, 2};
  EXPECT_EQ(g.key(), "b4,4|s0,0|c0,0|t1,2");
}

TEST(Truncation, GaExploresShiftGeneWhenEnabled) {
  GaConfig ga;
  ga.population = 12;
  ga.generations = 4;
  ga.acc_shift_choices = {0, 2, 4};
  // Toy fitness: area falls with total shift, accuracy mildly too.
  FunctionEvaluator eval([](const Genome& g) {
    double shift_sum = 0.0;
    for (int s : g.acc_shift) shift_sum += s;
    return GenomeFitness{1.0 - 0.01 * shift_sum, 100.0 - 10.0 * shift_sum};
  });
  Rng rng(6);
  const auto result = nsga2_search(ga, 2, eval, rng);
  ASSERT_FALSE(result.front.empty());
  bool saw_shifted = false;
  for (const auto& m : result.front) {
    ASSERT_EQ(m.genome.acc_shift.size(), 2U);
    for (int s : m.genome.acc_shift) saw_shifted |= (s > 0);
  }
  EXPECT_TRUE(saw_shifted);  // the cheap corner must be on the front
}

}  // namespace
}  // namespace pnm
