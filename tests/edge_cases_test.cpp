/// Edge-case and failure-injection tests across module boundaries:
/// degenerate circuits, extreme parameters, and rarely-hit API paths.

#include <gtest/gtest.h>

#include <sstream>

#include "pnm/pnm.hpp"

namespace pnm {
namespace {

// ---- degenerate circuits ---------------------------------------------------

/// A network whose output layer quantizes to all-zero weights is a
/// constant classifier; the bespoke circuit must fold to (nearly) nothing
/// and still "predict" correctly.
TEST(Degenerate, AllZeroOutputLayerFoldsToConstantClassifier) {
  DenseLayer l1;
  l1.weights = Matrix(2, 2, {1.0, -1.0, 0.5, 0.25});
  l1.bias = {0.0, 0.0};
  l1.act = Activation::kRelu;
  DenseLayer l2;
  l2.weights = Matrix(3, 2);  // all zeros
  l2.bias = {1.0, 5.0, 2.0};  // constant logits; class 1 always wins
  l2.act = Activation::kIdentity;
  Mlp net({l1, l2});
  const auto q = QuantizedMlp::from_float(net, QuantSpec::uniform(2, 4, 3));
  const hw::BespokeCircuit circuit(q);
  EXPECT_EQ(circuit.netlist().gate_count(), 0U);  // everything folded/swept
  for (std::int64_t a = 0; a < 8; ++a) {
    EXPECT_EQ(circuit.predict({a, 7 - a}), q.predict_quantized({a, 7 - a}));
  }
}

TEST(Degenerate, ConstantLogitsPickLowestWinningClass) {
  DenseLayer l;
  l.weights = Matrix(3, 1);
  l.bias = {2.0, 2.0, 1.0};  // tie between class 0 and 1
  l.act = Activation::kIdentity;
  Mlp net({l});
  const auto q = QuantizedMlp::from_float(net, QuantSpec::uniform(1, 4, 2));
  EXPECT_EQ(q.predict_quantized({1}), 0U);  // lowest index wins ties
  const hw::BespokeCircuit circuit(q);
  EXPECT_EQ(circuit.predict({1}), 0U);
}

TEST(Degenerate, SingleInputSingleBitNetworkWorks) {
  Rng rng(1);
  Mlp net({1, 2, 2}, rng);
  const auto q = QuantizedMlp::from_float(net, QuantSpec::uniform(2, 2, 1));
  const hw::BespokeCircuit circuit(q);
  for (std::int64_t x : {0, 1}) {
    EXPECT_EQ(circuit.predict({x}), q.predict_quantized({x}));
  }
}

TEST(Degenerate, FullyPrunedHiddenLayerStillLowerable) {
  Rng rng(2);
  Mlp net({3, 3, 2}, rng);
  // Prune everything in layer 0: hidden preacts = bias only.
  net.layer(0).weights.fill(0.0);
  const auto q = QuantizedMlp::from_float(net, QuantSpec::uniform(2, 4, 3));
  const hw::BespokeCircuit circuit(q);
  EXPECT_EQ(circuit.predict({0, 0, 0}), circuit.predict({7, 7, 7}));
}

// ---- extreme parameters -----------------------------------------------------

TEST(Extremes, SixteenBitWeightsRoundTrip) {
  Rng rng(3);
  Mlp net({3, 3, 2}, rng);
  const auto q = QuantizedMlp::from_float(net, QuantSpec::uniform(2, 16, 8));
  const hw::BespokeCircuit circuit(q);
  Rng vec_rng(4);
  for (int t = 0; t < 10; ++t) {
    std::vector<std::int64_t> xq(3);
    for (auto& v : xq) v = static_cast<std::int64_t>(vec_rng.uniform_int(std::uint64_t{256}));
    EXPECT_EQ(circuit.predict(xq), q.predict_quantized(xq));
  }
}

TEST(Extremes, OneBitInputsWork) {
  Rng rng(5);
  Mlp net({4, 3, 2}, rng);
  const auto q = QuantizedMlp::from_float(net, QuantSpec::uniform(2, 4, 1));
  const hw::BespokeCircuit circuit(q);
  for (std::int64_t mask = 0; mask < 16; ++mask) {
    std::vector<std::int64_t> xq = {(mask >> 0) & 1, (mask >> 1) & 1, (mask >> 2) & 1,
                                    (mask >> 3) & 1};
    EXPECT_EQ(circuit.predict(xq), q.predict_quantized(xq));
  }
}

TEST(Extremes, CsdHandlesInt64Boundaries) {
  using namespace hw;
  for (std::int64_t v : {std::int64_t{1} << 40, (std::int64_t{1} << 40) - 1,
                         -(std::int64_t{1} << 40), std::int64_t{0x5555555555}}) {
    EXPECT_EQ(digits_value(to_csd(v)), v);
    EXPECT_TRUE(is_canonical(to_csd(v)));
  }
}

TEST(Extremes, ManyClassArgmaxWidths) {
  // 17 classes -> 5 index bits; exercise a non-power-of-two tree.
  Rng rng(6);
  Mlp net({4, 5, 17}, rng);
  const auto q = QuantizedMlp::from_float(net, QuantSpec::uniform(2, 4, 3));
  const hw::BespokeCircuit circuit(q);
  EXPECT_EQ(circuit.netlist().outputs().size(), 5U);
  Rng vec_rng(7);
  for (int t = 0; t < 20; ++t) {
    std::vector<std::int64_t> xq(4);
    for (auto& v : xq) v = static_cast<std::int64_t>(vec_rng.uniform_int(std::uint64_t{8}));
    EXPECT_EQ(circuit.predict(xq), q.predict_quantized(xq));
  }
}

// ---- rarely-hit API paths ---------------------------------------------------

TEST(ApiPaths, RefitWordValidatesSubsetRange) {
  hw::Netlist nl;
  const auto bus = nl.add_input_bus("x", 4);
  const hw::Word w = hw::from_unsigned_bus(bus);
  EXPECT_THROW(hw::refit_word(nl, w, -1, 5), std::invalid_argument);
  EXPECT_THROW(hw::refit_word(nl, w, 0, 99), std::invalid_argument);
  EXPECT_THROW(hw::refit_word(nl, w, 5, 3), std::invalid_argument);
  const hw::Word tight = hw::refit_word(nl, w, 0, 3);
  EXPECT_EQ(tight.width(), 2);
  EXPECT_EQ(nl.gate_count(), 0U);
}

TEST(ApiPaths, EnergyPerInferenceIsPowerTimesDelay) {
  hw::Netlist nl;
  const auto a = nl.add_input("a");
  nl.add_gate_raw(hw::GateType::kXor2, a, a);
  const auto report = hw::analyze(nl, hw::TechLibrary::egt());
  EXPECT_NEAR(report.energy_per_inference_uj,
              report.power_uw * report.critical_path_ms * 1e-6, 1e-12);
  EXPECT_NE(hw::to_string(report).find("energy/inference"), std::string::npos);
}

TEST(ApiPaths, LowcostLibraryIsCheaperEverywhere) {
  const auto& egt = hw::TechLibrary::egt();
  const auto& low = hw::TechLibrary::egt_lowcost();
  for (int t = 0; t < hw::kGateTypeCount; ++t) {
    const auto type = static_cast<hw::GateType>(t);
    EXPECT_LT(low.cell(type).area_mm2, egt.cell(type).area_mm2);
    EXPECT_LT(low.cell(type).power_uw, egt.cell(type).power_uw);
  }
}

TEST(ApiPaths, EmptyBusAndZeroWidthInputs) {
  hw::Netlist nl;
  const auto empty = nl.add_input_bus("none", 0);
  EXPECT_TRUE(empty.empty());
  EXPECT_THROW(nl.add_input_bus("neg", -1), std::invalid_argument);
  const hw::Word w = hw::from_unsigned_bus(empty);
  EXPECT_TRUE(w.is_const_zero());
}

TEST(ApiPaths, VerilogOfGatelessNetlistIsValid) {
  hw::Netlist nl;
  const auto a = nl.add_input("a");
  nl.mark_output(a, "y");  // pure wire
  std::ostringstream out;
  hw::write_verilog(nl, out, "wire_only");
  const std::string v = out.str();
  EXPECT_NE(v.find("module wire_only"), std::string::npos);
  EXPECT_NE(v.find("assign y = n"), std::string::npos);
  EXPECT_NE(v.find("endmodule"), std::string::npos);
}

TEST(ApiPaths, StratifiedSplitWithZeroValFraction) {
  const Dataset data = make_seeds(81);
  Rng rng(9);
  const auto split = stratified_split(data, 0.7, 0.0, 0.3, rng);
  EXPECT_EQ(split.val.size(), 0U);
  EXPECT_GT(split.train.size(), 0U);
  EXPECT_GT(split.test.size(), 0U);
}

}  // namespace
}  // namespace pnm
