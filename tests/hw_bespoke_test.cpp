/// Tests for the bespoke circuit generator.  The flagship property: the
/// gate-level simulation of the generated netlist is bit-exact with the
/// integer golden model across random networks, topologies and precisions.

#include "pnm/hw/bespoke.hpp"

#include <gtest/gtest.h>

#include <tuple>

#include "pnm/core/prune.hpp"
#include "pnm/core/cluster.hpp"
#include "pnm/hw/report.hpp"
#include "pnm/util/bits.hpp"

namespace pnm::hw {
namespace {

QuantizedMlp random_qmlp(const std::vector<std::size_t>& topology, int bits,
                         int input_bits, std::uint64_t seed) {
  pnm::Rng rng(seed);
  pnm::Mlp net(topology, rng);
  return QuantizedMlp::from_float(net, pnm::QuantSpec::uniform(net.layer_count(), bits,
                                                               input_bits));
}

std::vector<std::int64_t> random_input(std::size_t n, int input_bits, pnm::Rng& rng) {
  std::vector<std::int64_t> xq(n);
  for (auto& v : xq) {
    v = static_cast<std::int64_t>(
        rng.uniform_int(static_cast<std::uint64_t>(pnm::unsigned_max(input_bits)) + 1));
  }
  return xq;
}

/// The generator lowers ReLU hidden layers and an identity output layer
/// only; the integer model accepts either activation in any position.
TEST(Bespoke, RejectsUnsupportedShapes) {
  pnm::Rng rng(1);
  pnm::Mlp net({3, 3, 2}, rng);
  const auto spec = pnm::QuantSpec::uniform(2, 4);
  net.layer(0).act = pnm::Activation::kIdentity;
  EXPECT_THROW(BespokeCircuit{QuantizedMlp::from_float(net, spec)}, std::invalid_argument);
  net.layer(0).act = pnm::Activation::kRelu;
  net.layer(1).act = pnm::Activation::kRelu;
  EXPECT_THROW(BespokeCircuit{QuantizedMlp::from_float(net, spec)}, std::invalid_argument);
  net.layer(1).act = pnm::Activation::kIdentity;
  EXPECT_NO_THROW(BespokeCircuit{QuantizedMlp::from_float(net, spec)});
}

TEST(Bespoke, PredictValidatesInput) {
  const auto q = random_qmlp({4, 3, 2}, 4, 4, 2);
  const BespokeCircuit circuit(q);
  EXPECT_THROW((void)circuit.predict({1, 2, 3}), std::invalid_argument);      // arity
  EXPECT_THROW((void)circuit.predict({1, 2, 3, 16}), std::invalid_argument);  // range
  EXPECT_THROW((void)circuit.predict({1, 2, 3, -1}), std::invalid_argument);
  EXPECT_NO_THROW((void)circuit.predict({0, 15, 7, 3}));
}

/// THE equivalence property, across topology/bits/input-bits combinations.
class EquivalenceSweep
    : public ::testing::TestWithParam<std::tuple<std::vector<std::size_t>, int, int>> {};

TEST_P(EquivalenceSweep, GateLevelMatchesGoldenModel) {
  const auto& [topology, bits, input_bits] = GetParam();
  for (std::uint64_t seed = 0; seed < 3; ++seed) {
    const auto q = random_qmlp(topology, bits, input_bits, 1000 + seed);
    const BespokeCircuit circuit(q);
    pnm::Rng rng(seed);
    for (int trial = 0; trial < 40; ++trial) {
      const auto xq = random_input(topology.front(), input_bits, rng);
      ASSERT_EQ(circuit.predict(xq), q.predict_quantized(xq))
          << "seed=" << seed << " trial=" << trial;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    TopologiesAndPrecisions, EquivalenceSweep,
    ::testing::Values(
        std::make_tuple(std::vector<std::size_t>{2, 2, 2}, 3, 2),
        std::make_tuple(std::vector<std::size_t>{4, 3, 3}, 2, 4),
        std::make_tuple(std::vector<std::size_t>{5, 4, 3}, 4, 4),
        std::make_tuple(std::vector<std::size_t>{7, 4, 3}, 6, 4),
        std::make_tuple(std::vector<std::size_t>{6, 5, 4}, 8, 6),
        std::make_tuple(std::vector<std::size_t>{4, 4, 4, 3}, 4, 4),   // two hidden
        std::make_tuple(std::vector<std::size_t>{11, 8, 7}, 5, 4),    // whitewine shape
        std::make_tuple(std::vector<std::size_t>{16, 10, 10}, 3, 4)));  // pendigits shape

TEST(Bespoke, EquivalenceHoldsWithoutSharing) {
  const auto q = random_qmlp({5, 4, 3}, 4, 4, 5);
  BespokeOptions options;
  options.share_products = false;
  const BespokeCircuit circuit(q, options);
  pnm::Rng rng(6);
  for (int trial = 0; trial < 40; ++trial) {
    const auto xq = random_input(5, 4, rng);
    ASSERT_EQ(circuit.predict(xq), q.predict_quantized(xq));
  }
}

/// Property-style bit-exactness of the shared-DAG product stage: random
/// models across topologies/precisions/seeds, simulated against the
/// integer golden model with share_subexpressions on.
TEST(Bespoke, EquivalenceHoldsWithSubexpressionSharing) {
  BespokeOptions options;
  options.share_subexpressions = true;
  const std::vector<std::tuple<std::vector<std::size_t>, int, int>> configs = {
      {{4, 3, 3}, 4, 4}, {{5, 4, 3}, 6, 4}, {{7, 4, 3}, 8, 4},
      {{4, 4, 4, 3}, 5, 4}, {{11, 8, 7}, 7, 4}};
  for (const auto& [topology, bits, input_bits] : configs) {
    for (std::uint64_t seed = 0; seed < 4; ++seed) {
      const auto q = random_qmlp(topology, bits, input_bits, 4000 + seed);
      const BespokeCircuit circuit(q, options);
      pnm::Rng rng(seed);
      for (int trial = 0; trial < 40; ++trial) {
        const auto xq = random_input(topology.front(), input_bits, rng);
        ASSERT_EQ(circuit.predict(xq), q.predict_quantized(xq))
            << "bits=" << bits << " seed=" << seed << " trial=" << trial;
      }
    }
  }
}

TEST(Bespoke, ExhaustiveEquivalenceWithSubexpressionSharing) {
  // All 512 input vectors of a 3-feature 3-bit classifier, CSD and binary.
  for (const bool csd : {true, false}) {
    const auto q = random_qmlp({3, 4, 3}, 6, 3, 777);
    BespokeOptions options;
    options.use_csd = csd;
    options.share_subexpressions = true;
    const BespokeCircuit circuit(q, options);
    for (std::int64_t a = 0; a < 8; ++a) {
      for (std::int64_t b = 0; b < 8; ++b) {
        for (std::int64_t c = 0; c < 8; ++c) {
          ASSERT_EQ(circuit.predict({a, b, c}), q.predict_quantized({a, b, c}))
              << "csd=" << csd << " x=(" << a << "," << b << "," << c << ")";
        }
      }
    }
  }
}

TEST(Bespoke, SubexpressionSharingNeverCostsMoreAddersOrArea) {
  const auto& tech = TechLibrary::egt();
  for (std::uint64_t seed = 30; seed < 36; ++seed) {
    const auto q = random_qmlp({8, 6, 5}, 7, 4, seed);
    BespokeOptions shared;
    shared.share_subexpressions = true;
    const BespokeCircuit with(q, shared);
    const BespokeCircuit without(q, BespokeOptions{});
    EXPECT_LE(with.product_adder_count(), without.product_adder_count())
        << "seed=" << seed;
    EXPECT_LE(with.area_mm2(tech), without.area_mm2(tech) * 1.0001) << "seed=" << seed;
    // The multiplier-instance metric is sharing-independent.
    EXPECT_EQ(with.multiplier_count(), without.multiplier_count());
  }
}

TEST(Bespoke, SubexpressionSharingShrinksWideColumns) {
  // 8-bit dense columns have heavy subterm overlap: the shared DAG must
  // strictly reduce both planned adders and exact area.
  const auto& tech = TechLibrary::egt();
  const auto q = random_qmlp({6, 10, 5}, 8, 4, 41);
  BespokeOptions shared;
  shared.share_subexpressions = true;
  const BespokeCircuit with(q, shared);
  const BespokeCircuit without(q, BespokeOptions{});
  EXPECT_LT(with.product_adder_count(), without.product_adder_count());
  EXPECT_LT(with.area_mm2(tech), without.area_mm2(tech));
}

TEST(Bespoke, SubexpressionSharingRequiresSharedProducts) {
  // share_subexpressions without share_products is ignored: identical to
  // the per-connection datapath.
  const auto q = random_qmlp({5, 4, 3}, 5, 4, 55);
  BespokeOptions both_off;
  both_off.share_products = false;
  BespokeOptions mcm_only = both_off;
  mcm_only.share_subexpressions = true;
  const BespokeCircuit a(q, both_off);
  const BespokeCircuit b(q, mcm_only);
  EXPECT_EQ(a.netlist().gate_count(), b.netlist().gate_count());
  EXPECT_EQ(a.product_adder_count(), b.product_adder_count());
}

TEST(Bespoke, EquivalenceHoldsWithBinaryRecoding) {
  const auto q = random_qmlp({5, 4, 3}, 5, 4, 7);
  BespokeOptions options;
  options.use_csd = false;
  const BespokeCircuit circuit(q, options);
  pnm::Rng rng(8);
  for (int trial = 0; trial < 40; ++trial) {
    const auto xq = random_input(5, 4, rng);
    ASSERT_EQ(circuit.predict(xq), q.predict_quantized(xq));
  }
}

TEST(Bespoke, FullyExhaustiveEquivalenceThreeInputs) {
  // Every one of the 512 possible input vectors of a 3-feature, 3-bit
  // classifier, across option combinations — the strongest equivalence
  // statement we can make at test-budget cost.
  for (const bool share : {true, false}) {
    for (const bool csd : {true, false}) {
      const auto q = random_qmlp({3, 4, 3}, 5, 3, 321);
      BespokeOptions options;
      options.share_products = share;
      options.use_csd = csd;
      const BespokeCircuit circuit(q, options);
      for (std::int64_t a = 0; a < 8; ++a) {
        for (std::int64_t b = 0; b < 8; ++b) {
          for (std::int64_t c = 0; c < 8; ++c) {
            ASSERT_EQ(circuit.predict({a, b, c}), q.predict_quantized({a, b, c}))
                << "share=" << share << " csd=" << csd << " x=(" << a << "," << b
                << "," << c << ")";
          }
        }
      }
    }
  }
}

TEST(Bespoke, ExhaustiveEquivalenceOnTinyNetwork) {
  // 2 inputs x 2 bits: all 16 input vectors, several seeds.
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    const auto q = random_qmlp({2, 3, 3}, 4, 2, 50 + seed);
    const BespokeCircuit circuit(q);
    for (std::int64_t a = 0; a < 4; ++a) {
      for (std::int64_t b = 0; b < 4; ++b) {
        ASSERT_EQ(circuit.predict({a, b}), q.predict_quantized({a, b}))
            << "seed=" << seed << " x=(" << a << "," << b << ")";
      }
    }
  }
}

TEST(Bespoke, FewerBitsGiveSmallerArea) {
  const auto& tech = TechLibrary::egt();
  double prev_area = 1e18;
  for (int bits : {8, 6, 4, 2}) {
    const auto q = random_qmlp({8, 6, 4}, bits, 4, 77);
    const BespokeCircuit circuit(q);
    const double area = circuit.area_mm2(tech);
    EXPECT_LT(area, prev_area) << "bits=" << bits;
    prev_area = area;
  }
}

TEST(Bespoke, PruningRemovesHardware) {
  const auto& tech = TechLibrary::egt();
  pnm::Rng rng(9);
  pnm::Mlp net({8, 6, 4}, rng);
  const auto spec = pnm::QuantSpec::uniform(2, 6, 4);

  const BespokeCircuit dense(QuantizedMlp::from_float(net, spec));
  pnm::Mlp pruned_net = net;
  pnm::magnitude_prune_global(pruned_net, 0.5);
  const BespokeCircuit pruned(QuantizedMlp::from_float(pruned_net, spec));

  EXPECT_LT(pruned.area_mm2(tech), 0.8 * dense.area_mm2(tech));
  EXPECT_LT(pruned.multiplier_count(), dense.multiplier_count());
}

TEST(Bespoke, ClusteringReducesMultiplierCount) {
  pnm::Rng rng(10);
  pnm::Mlp net({8, 8, 5}, rng);
  const auto spec = pnm::QuantSpec::uniform(2, 7, 4);

  const BespokeCircuit plain(QuantizedMlp::from_float(net, spec));
  pnm::Mlp clustered_net = net;
  pnm::Rng crng(11);
  pnm::cluster_weights(clustered_net, {2, 2}, crng);
  const BespokeCircuit clustered(QuantizedMlp::from_float(clustered_net, spec));

  EXPECT_LT(clustered.multiplier_count(), plain.multiplier_count());
  const auto& tech = TechLibrary::egt();
  EXPECT_LT(clustered.area_mm2(tech), plain.area_mm2(tech));
}

TEST(Bespoke, SharingShrinksClusteredCircuits) {
  // The ablation-A2 mechanism: with clustering, shared products matter.
  pnm::Rng rng(12);
  pnm::Mlp net({8, 8, 5}, rng);
  pnm::Rng crng(13);
  pnm::cluster_weights(net, {2, 2}, crng);
  const auto q = QuantizedMlp::from_float(net, pnm::QuantSpec::uniform(2, 7, 4));

  const auto& tech = TechLibrary::egt();
  BespokeOptions shared;
  BespokeOptions unshared;
  unshared.share_products = false;
  const BespokeCircuit with(q, shared);
  const BespokeCircuit without(q, unshared);
  EXPECT_LT(with.area_mm2(tech), 0.8 * without.area_mm2(tech));
}

TEST(Bespoke, StageAreasSumToTotal) {
  const auto q = random_qmlp({6, 5, 4}, 5, 4, 14);
  const BespokeCircuit circuit(q);
  const auto& tech = TechLibrary::egt();
  const auto stages = circuit.stage_areas(tech);
  EXPECT_NEAR(stages.total(), circuit.area_mm2(tech), 1e-9);
  EXPECT_GT(stages.product_mm2, 0.0);
  EXPECT_GT(stages.accumulate_mm2, 0.0);
  EXPECT_GT(stages.activation_mm2, 0.0);
  EXPECT_GT(stages.argmax_mm2, 0.0);
}

TEST(Bespoke, MultiplierCountMatchesGoldenModelMetric) {
  const auto q = random_qmlp({7, 6, 5}, 6, 4, 15);
  const BespokeCircuit circuit(q);
  std::size_t expected = 0;
  for (std::size_t c : q.shared_multiplier_counts()) expected += c;
  EXPECT_EQ(circuit.multiplier_count(), expected);
}

TEST(Bespoke, DelayAndPowerArePositiveAndPlausible) {
  const auto q = random_qmlp({8, 6, 4}, 6, 4, 16);
  const BespokeCircuit circuit(q);
  const auto& tech = TechLibrary::egt();
  const auto report = analyze(circuit.netlist(), tech);
  EXPECT_GT(report.area_mm2, 1.0);        // printed MLPs are huge
  EXPECT_LT(report.area_mm2, 1e5);
  EXPECT_GT(report.power_uw, 100.0);
  EXPECT_GT(report.critical_path_ms, 1.0);  // Hz-scale clocks
  EXPECT_GT(report.max_frequency_hz, 0.1);
  EXPECT_LT(report.max_frequency_hz, 1000.0);
}

TEST(Bespoke, ClassBitsWidthCoversAllClasses) {
  const auto q10 = random_qmlp({6, 5, 10}, 4, 4, 17);
  const BespokeCircuit c10(q10);
  EXPECT_EQ(c10.n_classes(), 10U);
  EXPECT_EQ(c10.netlist().outputs().size(), 4U);  // ceil(log2 10)
  const auto q3 = random_qmlp({6, 5, 3}, 4, 4, 18);
  const BespokeCircuit c3(q3);
  EXPECT_EQ(c3.netlist().outputs().size(), 2U);
}

}  // namespace
}  // namespace pnm::hw
