/// Tests for the integer golden model: agreement with the fake-quantized
/// float model (the scale-invariance argument of DESIGN.md §5), range
/// analysis, and the sharing metrics.

#include "pnm/core/qmlp.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "pnm/hw/bespoke.hpp"
#include "pnm/util/bits.hpp"

namespace pnm {
namespace {

Mlp random_net(const std::vector<std::size_t>& topology, std::uint64_t seed) {
  Rng rng(seed);
  return Mlp(topology, rng);
}

std::vector<double> random_unit_sample(std::size_t n, Rng& rng) {
  std::vector<double> x(n);
  for (auto& v : x) v = rng.uniform();
  return x;
}

TEST(QuantizedMlp, ShapesAndMetadata) {
  const Mlp net = random_net({5, 4, 3}, 1);
  const auto q = QuantizedMlp::from_float(net, QuantSpec::uniform(2, 6, 4));
  EXPECT_EQ(q.layer_count(), 2U);
  EXPECT_EQ(q.input_size(), 5U);
  EXPECT_EQ(q.output_size(), 3U);
  EXPECT_EQ(q.input_bits(), 4);
  EXPECT_EQ(q.layer(0).weight_bits, 6);
  EXPECT_EQ(q.layer(0).act, Activation::kRelu);
  EXPECT_EQ(q.layer(1).act, Activation::kIdentity);
}

/// Both activations quantize in any position; only the bespoke generator
/// fixes their places (ReLU hidden, identity output).  So a hidden identity
/// layer makes an integer model that keeps its activation and that the
/// generator refuses to lower.
TEST(QuantizedMlp, HiddenIdentityLayerQuantizesButDoesNotLower) {
  Mlp net = random_net({3, 3, 2}, 2);
  net.layer(0).act = Activation::kIdentity;
  const auto q = QuantizedMlp::from_float(net, QuantSpec::uniform(2, 4));
  EXPECT_EQ(q.layer(0).act, Activation::kIdentity);
  EXPECT_THROW(hw::BespokeCircuit{q}, std::invalid_argument);
}

/// The central equivalence: integer inference must predict exactly like
/// the fake-quantized float model with quantized inputs (ReLU/argmax
/// scale invariance + rescaled biases).
TEST(QuantizedMlp, MatchesFakeQuantizedFloatModel) {
  for (std::uint64_t seed = 0; seed < 5; ++seed) {
    const Mlp net = random_net({7, 5, 4}, 100 + seed);
    const auto spec = QuantSpec::uniform(2, 5, 4);
    const auto q = QuantizedMlp::from_float(net, spec);

    // Float twin with fake-quantized weights AND quantized inputs, biases
    // snapped to the accumulator grid like the integer model does.
    Mlp twin = net;
    fake_quantize_mlp(net, twin, spec);
    double act_scale = 1.0 / 15.0;
    for (std::size_t li = 0; li < twin.layer_count(); ++li) {
      const double ws = quantization_scale(net.layer(li).weights, 5);
      const double acc_scale = ws * act_scale;
      for (auto& b : twin.layer(li).bias) {
        b = acc_scale > 0 ? std::llround(b / acc_scale) * acc_scale : b;
      }
      if (acc_scale > 0) act_scale = acc_scale;
    }

    Rng rng(seed);
    int agree = 0;
    const int n = 200;
    for (int i = 0; i < n; ++i) {
      const auto x = random_unit_sample(7, rng);
      const auto xq = quantize_input(x, 4);
      std::vector<double> x_dequant(x.size());
      for (std::size_t j = 0; j < x.size(); ++j) {
        x_dequant[j] = static_cast<double>(xq[j]) / 15.0;
      }
      if (twin.predict(x_dequant) == q.predict(x)) ++agree;
    }
    // Exact agreement up to float rounding at argmax ties.
    EXPECT_GE(agree, n - 2) << "seed " << seed;
  }
}

TEST(QuantizedMlp, ForwardComputesKnownValues) {
  // Hand-built 2->2->2 integer model.
  QuantizedMlp q = [] {
    DenseLayer l1;
    l1.weights = Matrix(2, 2, {3.0, -1.0, 2.0, 2.0});
    l1.bias = {0.0, 0.0};
    l1.act = Activation::kRelu;
    DenseLayer l2;
    l2.weights = Matrix(2, 2, {1.0, -2.0, -3.0, 1.0});
    l2.bias = {0.0, 0.0};
    l2.act = Activation::kIdentity;
    Mlp net({l1, l2});
    // bits=3 -> qmax=3; layer1 absmax=3 -> scale 1 -> codes == weights.
    return QuantizedMlp::from_float(net, QuantSpec::uniform(2, 3, 2));
  }();
  ASSERT_EQ(q.layer(0).weight(0, 0), 3);
  ASSERT_EQ(q.layer(0).weight(0, 1), -1);
  const auto out = q.forward({3, 1});  // l1: (9-1, 6+2) = (8, 8)
  ASSERT_EQ(out.size(), 2U);
  // l2 codes: absmax 3 -> scale 1: (8 - 16, -24 + 8) = (-8, -16)
  EXPECT_EQ(out[0], -8);
  EXPECT_EQ(out[1], -16);
  EXPECT_EQ(q.predict_quantized({3, 1}), 0U);
}

TEST(QuantizedMlp, ReluClampsNegativeAccumulators) {
  DenseLayer l1;
  l1.weights = Matrix(1, 1, {-1.0});
  l1.bias = {0.0};
  l1.act = Activation::kRelu;
  DenseLayer l2;
  l2.weights = Matrix(2, 1, {1.0, -1.0});
  l2.bias = {0.0, 0.0};
  l2.act = Activation::kIdentity;
  Mlp net({l1, l2});
  const auto q = QuantizedMlp::from_float(net, QuantSpec::uniform(2, 2, 2));
  const auto out = q.forward({3});
  EXPECT_EQ(out[0], 0);  // hidden clamped to 0
  EXPECT_EQ(out[1], 0);
}

TEST(QuantizedMlp, PreactRangesAreSoundAndTight) {
  const Mlp net = random_net({4, 3, 3}, 7);
  const auto q = QuantizedMlp::from_float(net, QuantSpec::uniform(2, 4, 3));
  const auto ranges = q.neuron_preact_ranges();
  ASSERT_EQ(ranges.size(), 2U);
  ASSERT_EQ(ranges[0].size(), 3U);

  // Soundness: random inputs never escape the computed ranges.
  Rng rng(8);
  for (int trial = 0; trial < 500; ++trial) {
    std::vector<std::int64_t> xq(4);
    for (auto& v : xq) v = static_cast<std::int64_t>(rng.uniform_int(std::uint64_t{8}));
    // Recompute layer-0 preacts by hand.
    for (std::size_t r = 0; r < 3; ++r) {
      std::int64_t acc = q.layer(0).bias[r];
      for (std::size_t c = 0; c < 4; ++c) acc += q.layer(0).weight(r, c) * xq[c];
      EXPECT_GE(acc, ranges[0][r].lo);
      EXPECT_LE(acc, ranges[0][r].hi);
    }
  }

  // Tightness at layer 0: extremes are achieved by the corner inputs.
  for (std::size_t r = 0; r < 3; ++r) {
    std::int64_t lo = q.layer(0).bias[r];
    std::int64_t hi = q.layer(0).bias[r];
    for (std::size_t c = 0; c < 4; ++c) {
      const int w = q.layer(0).weight(r, c);
      if (w > 0) {
        hi += static_cast<std::int64_t>(w) * 7;
      } else {
        lo += static_cast<std::int64_t>(w) * 7;
      }
    }
    EXPECT_EQ(ranges[0][r].lo, lo);
    EXPECT_EQ(ranges[0][r].hi, hi);
  }
}

TEST(QuantizedMlp, NonzeroWeightCount) {
  DenseLayer l1;
  l1.weights = Matrix(2, 2, {0.0, 1.0, -1.0, 0.0});
  l1.bias = {0, 0};
  l1.act = Activation::kRelu;
  DenseLayer l2;
  l2.weights = Matrix(2, 2, {1.0, 0.0, 0.0, 0.0});
  l2.bias = {0, 0};
  l2.act = Activation::kIdentity;
  const auto q = QuantizedMlp::from_float(Mlp({l1, l2}), QuantSpec::uniform(2, 2, 2));
  EXPECT_EQ(q.nonzero_weights(), 3U);
}

TEST(QuantizedMlp, SharedMultiplierCountsExcludeTrivialCoefficients) {
  // With 3-bit quantization (qmax = 3) and abs-max 3 the scale is 1, so
  // codes equal the float values below.
  // Layer 1 column 0: codes {3, 3} -> one shared multiplier.
  // Layer 1 column 1: codes {2, 0} -> power of two and zero -> none.
  DenseLayer l1;
  l1.weights = Matrix(2, 2, {3.0, 2.0, 3.0, 0.0});
  l1.bias = {0, 0};
  l1.act = Activation::kRelu;
  // Layer 2 column 0: codes {3, 3} -> one; column 1: codes {2, 2} -> none.
  DenseLayer l2;
  l2.weights = Matrix(2, 2, {3.0, 2.0, 3.0, 2.0});
  l2.bias = {0, 0};
  l2.act = Activation::kIdentity;
  const auto q = QuantizedMlp::from_float(Mlp({l1, l2}), QuantSpec::uniform(2, 3, 2));
  const auto counts = q.shared_multiplier_counts();
  ASSERT_EQ(counts.size(), 2U);
  EXPECT_EQ(counts[0], 1U);  // the shared |3| in column 0
  EXPECT_EQ(counts[1], 1U);  // the shared |3|; the |2|s are wiring
}

TEST(QuantizedMlp, AccuracyRunsOnDataset) {
  const Mlp net = random_net({4, 4, 3}, 9);
  const auto q = QuantizedMlp::from_float(net, QuantSpec::uniform(2, 6, 4));
  Dataset d;
  d.n_classes = 3;
  Rng rng(10);
  for (int i = 0; i < 30; ++i) {
    d.x.push_back(random_unit_sample(4, rng));
    d.y.push_back(static_cast<std::size_t>(rng.uniform_int(std::uint64_t{3})));
  }
  const double acc = q.accuracy(d);
  EXPECT_GE(acc, 0.0);
  EXPECT_LE(acc, 1.0);
}

/// High-precision quantization should almost never change predictions.
class HighBitsFidelity : public ::testing::TestWithParam<int> {};

TEST_P(HighBitsFidelity, AgreesWithFloatModel) {
  const int bits = GetParam();
  const Mlp net = random_net({6, 5, 4}, 30);
  const auto q = QuantizedMlp::from_float(net, QuantSpec::uniform(2, bits, 8));
  Rng rng(31);
  int agree = 0;
  const int n = 300;
  for (int i = 0; i < n; ++i) {
    const auto x = random_unit_sample(6, rng);
    if (net.predict(x) == q.predict(x)) ++agree;
  }
  EXPECT_GE(static_cast<double>(agree) / n, 0.95) << "bits=" << bits;
}

INSTANTIATE_TEST_SUITE_P(HighPrecision, HighBitsFidelity, ::testing::Values(8, 10, 12));

}  // namespace
}  // namespace pnm
