/// \file export_verilog.cpp
/// \brief Full RTL hand-off: bespoke circuit -> structural Verilog plus a
///        self-checking testbench built from real test-set vectors.
///
/// Usage:  export_verilog [dataset] [weight_bits] [out_prefix]
///
/// This is the bridge from this library to a commercial flow (the paper's
/// Synopsys step): simulate <prefix>.v together with <prefix>_tb.v in any
/// Verilog simulator and it prints "PASS: all N vectors".  A weight width
/// that is not an integer in [2, 16] prints an `error:` line and exits 1.

#include <cstdlib>
#include <fstream>
#include <iostream>
#include <optional>

#include "pnm/pnm.hpp"
#include "pnm/util/fileio.hpp"

int main(int argc, char** argv) {
  using namespace pnm;
  const std::string dataset = argc > 1 ? argv[1] : "seeds";
  int bits = 4;
  if (argc > 2) {
    const std::optional<std::size_t> v = parse_size_strict(argv[2]);
    if (!v || *v < 2 || *v > 16) {
      std::cerr << "error: weight_bits: expected an integer in [2, 16], got '" << argv[2]
                << "'\n";
      return EXIT_FAILURE;
    }
    bits = static_cast<int>(*v);
  }
  const std::string prefix = argc > 3 ? argv[3] : "pnm_" + dataset;

  FlowConfig config;
  config.dataset_name = dataset;
  config.train.epochs = 60;
  config.finetune_epochs = 8;
  MinimizationFlow flow(config);
  flow.prepare();

  Genome genome;
  const std::size_t n_layers = flow.float_model().layer_count();
  genome.weight_bits.assign(n_layers, bits);
  genome.sparsity_pct.assign(n_layers, 0);
  genome.clusters.assign(n_layers, 0);
  const QuantizedMlp qmodel = flow.realize_genome(genome, config.finetune_epochs);
  const hw::BespokeCircuit circuit(qmodel);

  std::cout << "design: " << dataset << " @ " << bits << "-bit weights, accuracy "
            << format_fixed(qmodel.accuracy(flow.data().test), 3) << "\n"
            << hw::to_string(hw::analyze(circuit.netlist(), flow.tech())) << '\n';

  // Test vectors: the first 50 test samples, labelled by the golden model
  // (the testbench checks RTL-vs-golden equivalence, not accuracy).
  std::vector<hw::TestVector> vectors;
  const auto& test = flow.data().test;
  for (std::size_t i = 0; i < std::min<std::size_t>(test.size(), 50); ++i) {
    hw::TestVector v;
    v.inputs = quantize_input(test.x[i], qmodel.input_bits());
    v.expected_class = qmodel.predict_quantized(v.inputs);
    // Cross-check with the gate-level simulator before exporting.
    if (circuit.predict(v.inputs) != v.expected_class) {
      std::cerr << "internal error: netlist/golden mismatch on vector " << i << '\n';
      return EXIT_FAILURE;
    }
    vectors.push_back(std::move(v));
  }

  const std::string module = "pnm_" + dataset + "_classifier";
  {
    std::ofstream rtl(prefix + ".v");
    hw::write_verilog(circuit.netlist(), rtl, module);
  }
  {
    std::ofstream tb(prefix + "_tb.v");
    hw::write_verilog_testbench(circuit, vectors, tb, module);
  }
  std::cout << "wrote " << prefix << ".v (" << circuit.netlist().gate_count()
            << " gates) and " << prefix << "_tb.v (" << vectors.size()
            << " self-checking vectors)\n"
            << "simulate with e.g.: iverilog " << prefix << ".v " << prefix
            << "_tb.v && ./a.out\n";
  return EXIT_SUCCESS;
}
