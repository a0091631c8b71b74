/// Randomized end-to-end property tests ("fuzz light"): random genomes
/// through the full minimization pipeline must always yield circuits that
/// are bit-exact with the golden model, respect every genome constraint,
/// and survive export — across sharing/recoding options and topologies.

#include <gtest/gtest.h>

#include <set>
#include <sstream>

#include "pnm/pnm.hpp"

namespace pnm {
namespace {

/// One small shared flow (keeps the suite fast).
MinimizationFlow& fuzz_flow() {
  static MinimizationFlow flow = [] {
    FlowConfig config;
    config.dataset_name = "seeds";
    config.seed = 4242;
    config.train.epochs = 20;
    config.finetune_epochs = 2;
    MinimizationFlow f(config);
    f.prepare();
    return f;
  }();
  return flow;
}

TEST(FuzzPipeline, RandomGenomesYieldBitExactCircuits) {
  auto& flow = fuzz_flow();
  Rng rng(1);
  for (int trial = 0; trial < 12; ++trial) {
    const Genome genome = random_genome(flow.float_model().layer_count(), rng);
    const QuantizedMlp q = flow.realize_genome(genome, 2);
    hw::BespokeOptions options;
    options.share_products = rng.bernoulli(0.5);
    options.use_csd = rng.bernoulli(0.5);
    const hw::BespokeCircuit circuit(q, options);
    for (int v = 0; v < 20; ++v) {
      std::vector<std::int64_t> xq(q.input_size());
      for (auto& e : xq) {
        e = static_cast<std::int64_t>(rng.uniform_int(std::uint64_t{16}));
      }
      ASSERT_EQ(circuit.predict(xq), q.predict_quantized(xq))
          << "trial " << trial << " genome " << genome.key();
    }
  }
}

TEST(FuzzPipeline, GenomeConstraintsAlwaysHoldAfterFineTuning) {
  auto& flow = fuzz_flow();
  Rng rng(2);
  for (int trial = 0; trial < 12; ++trial) {
    const Genome genome = random_genome(flow.float_model().layer_count(), rng);
    const QuantizedMlp q = flow.realize_genome(genome, 2);
    for (std::size_t li = 0; li < q.layer_count(); ++li) {
      const auto& layer = q.layer(li);
      // Quantization range.
      const int qmax = (1 << (genome.weight_bits[li] - 1)) - 1;
      std::size_t zeros = 0;
      std::set<int> distinct;
      for (const auto& row : layer.dense_weights()) {
        for (int w : row) {
          ASSERT_LE(std::abs(w), qmax) << genome.key();
          zeros += (w == 0) ? 1 : 0;
          if (w != 0) distinct.insert(w);
        }
      }
      // Pruning level (quantization may only add zeros, never remove).
      const auto total = static_cast<double>(layer.out_features() * layer.in_features());
      ASSERT_GE(static_cast<double>(zeros) / total,
                genome.sparsity_pct[li] / 100.0 - 0.05)
          << genome.key();
      // Clustering codebook size (layer-wide scope, + and - codes).
      if (genome.clusters[li] > 0) {
        ASSERT_LE(distinct.size(), 2U * static_cast<std::size_t>(genome.clusters[li]))
            << genome.key();
      }
    }
  }
}

TEST(FuzzPipeline, ExportedVerilogIsStructurallySane) {
  auto& flow = fuzz_flow();
  Rng rng(3);
  const Genome genome = random_genome(flow.float_model().layer_count(), rng);
  const QuantizedMlp q = flow.realize_genome(genome, 2);
  const hw::BespokeCircuit circuit(q);
  std::ostringstream rtl;
  hw::write_verilog(circuit.netlist(), rtl, "fuzz_dut");
  const std::string v = rtl.str();
  // Every declared wire is assigned exactly once and the module is closed.
  EXPECT_NE(v.find("module fuzz_dut"), std::string::npos);
  EXPECT_NE(v.find("endmodule"), std::string::npos);
  std::size_t assigns = 0, pos = 0;
  while ((pos = v.find("assign ", pos)) != std::string::npos) {
    ++assigns;
    pos += 7;
  }
  EXPECT_EQ(assigns, circuit.netlist().gate_count() + circuit.netlist().outputs().size());

  // And the generated testbench references only declared regs.
  std::vector<hw::TestVector> vectors;
  hw::TestVector tv;
  tv.inputs.assign(q.input_size(), 3);
  tv.expected_class = q.predict_quantized(tv.inputs);
  vectors.push_back(tv);
  std::ostringstream tb;
  hw::write_verilog_testbench(circuit, vectors, tb, "fuzz_dut");
  EXPECT_NE(tb.str().find("fuzz_dut dut ("), std::string::npos);
}

TEST(FuzzPipeline, ProxyStaysWithinSaneBandAcrossRandomDesigns) {
  auto& flow = fuzz_flow();
  Rng rng(4);
  for (int trial = 0; trial < 8; ++trial) {
    const Genome genome = random_genome(flow.float_model().layer_count(), rng);
    const QuantizedMlp q = flow.realize_genome(genome, 2);
    const double exact = hw::BespokeCircuit(q).area_mm2(flow.tech());
    const double proxy = hw::estimate_area_mm2(q, flow.tech());
    // Near-degenerate circuits (heavy pruning + tiny codebooks) fold far
    // below what an analytic model can see; the band only makes sense for
    // designs of meaningful size (the GA's proxy fidelity across the real
    // space is checked by bench/reproduce: rank corr >= 0.95 on every
    // dataset, 0.970-0.991 in BENCH_paper.txt).
    if (exact < 25.0) continue;
    EXPECT_GT(proxy, 0.25 * exact) << genome.key();
    EXPECT_LT(proxy, 5.0 * exact) << genome.key();
  }
}

TEST(FuzzPipeline, CsvRoundTripFeedsTheFullFlow) {
  // save_csv -> load_csv -> MinimizationFlow -> circuit, end to end.
  const Dataset original = make_seeds(77);
  std::stringstream buffer;
  save_csv(original, buffer);
  const CsvLoadResult loaded = load_csv(buffer);
  ASSERT_EQ(loaded.data.size(), original.size());
  ASSERT_EQ(loaded.data.n_classes, original.n_classes);

  FlowConfig config;
  config.dataset_name = "seeds-csv";
  config.train.epochs = 15;
  config.finetune_epochs = 2;
  MinimizationFlow flow(config, loaded.data);
  flow.prepare();
  EXPECT_GT(flow.float_test_accuracy(), 0.8);
  EXPECT_GT(flow.baseline().area_mm2, 10.0);
}

TEST(FuzzPipeline, NonFiniteFeaturesAreRejectedEverywhere) {
  Dataset bad = make_seeds(78);
  bad.x[3][2] = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(bad.validate(), std::invalid_argument);
  MinMaxScaler scaler;
  EXPECT_THROW(scaler.fit(bad), std::invalid_argument);
  Rng rng(5);
  EXPECT_THROW(stratified_split(bad, 0.6, 0.2, 0.2, rng), std::invalid_argument);
  bad.x[3][2] = std::numeric_limits<double>::infinity();
  EXPECT_THROW(bad.validate(), std::invalid_argument);
}

TEST(FuzzPipeline, ExactAreaGaFitnessAgreesWithProxyGaOnSmallRun) {
  auto& flow = fuzz_flow();
  GaConfig ga;
  ga.population = 8;
  ga.generations = 3;
  ProxyEvaluator proxy = flow.proxy_evaluator(1);
  NetlistEvaluator netlist = flow.netlist_evaluator(1);
  const auto proxy_run = flow.run_ga(proxy, ga);
  const auto exact_run = flow.run_ga(netlist, ga);
  ASSERT_FALSE(proxy_run.front.empty());
  ASSERT_FALSE(exact_run.front.empty());
  // Same seed, same operators: the searches are deterministic and only the
  // area numbers differ, so both must produce valid non-dominated fronts.
  for (const auto* outcome : {&proxy_run, &exact_run}) {
    for (const auto& a : outcome->front) {
      for (const auto& b : outcome->front) {
        EXPECT_FALSE(dominates(a, b) && dominates(b, a));
      }
    }
  }
}

}  // namespace
}  // namespace pnm
