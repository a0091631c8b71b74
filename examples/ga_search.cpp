/// \file ga_search.cpp
/// \brief Hardware-aware GA search (the paper's Figure-2 engine) plus
///        export of the winning design to structural Verilog.
///
/// Usage:  ga_search [dataset] [population] [generations] [out.v]
///
/// Runs NSGA-II over per-layer {weight bits, sparsity, clusters}, prints
/// the Pareto front, selects the design with the best area among those
/// within 2% of the front's peak accuracy, cross-checks its gate-level
/// netlist against the integer golden model, and writes the Verilog.
/// A population or generation count that is not all digits, a population
/// below 4 or 0 generations prints an `error:` line and exits 1.

#include <cstdlib>
#include <fstream>
#include <iostream>
#include <optional>
#include <stdexcept>

#include "pnm/core/flow.hpp"
#include "pnm/core/quantize.hpp"
#include "pnm/hw/report.hpp"
#include "pnm/hw/verilog.hpp"
#include "pnm/util/fileio.hpp"
#include "pnm/util/table.hpp"

namespace {

/// argv[i] parsed strictly as a count, or `fallback` when it is absent.
/// \throws std::invalid_argument unless argv[i] is all digits and fits.
std::size_t count_arg(int argc, char** argv, int i, std::size_t fallback, const char* what) {
  if (argc <= i) return fallback;
  const std::optional<std::size_t> v = pnm::parse_size_strict(argv[i]);
  if (!v) {
    throw std::invalid_argument(std::string(what) + ": expected a non-negative integer, got '" +
                                argv[i] + "'");
  }
  return *v;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace pnm;
  const std::string dataset = argc > 1 ? argv[1] : "seeds";
  GaConfig ga;
  try {
    ga.population = count_arg(argc, argv, 2, 24, "population");
    ga.generations = count_arg(argc, argv, 3, 12, "generations");
    ga.validate();
  } catch (const std::invalid_argument& e) {
    std::cerr << "error: " << e.what() << '\n';
    return EXIT_FAILURE;
  }
  const std::string out_path = argc > 4 ? argv[4] : "pnm_best_design.v";

  FlowConfig config;
  config.dataset_name = dataset;
  config.train.epochs = 60;
  config.finetune_epochs = 8;
  MinimizationFlow flow(config);
  flow.prepare();
  const auto& baseline = flow.baseline();
  std::cout << "baseline: acc " << format_fixed(baseline.accuracy, 3) << ", area "
            << format_fixed(baseline.area_mm2, 1) << " mm^2\n";

  // Fitness backend: proxy pipeline, fanned across all cores —
  // bit-identical to a serial run (see pnm/core/eval.hpp).
  auto proxy = flow.proxy_evaluator(/*finetune_epochs=*/2);
  ParallelEvaluator fitness(proxy);
  std::cout << "running NSGA-II (pop " << ga.population << ", " << ga.generations
            << " gens, fitness " << fitness.name() << ")...\n";
  const auto outcome = flow.run_ga(fitness, ga);
  std::cout << "evaluated " << outcome.raw.evaluations << " distinct designs\n\n";

  TextTable table({"genome", "accuracy", "norm area", "gain"});
  for (const auto& p : outcome.front) {
    table.add_row({p.config, format_fixed(p.accuracy, 3),
                   format_fixed(p.area_mm2 / baseline.area_mm2, 3),
                   format_factor(baseline.area_mm2 / p.area_mm2)});
  }
  std::cout << table.to_string() << '\n';
  if (outcome.front.empty()) {
    std::cerr << "GA produced no designs\n";
    return EXIT_FAILURE;
  }

  // Pick the smallest design within 2% of the front's best accuracy.
  double best_acc = 0.0;
  for (const auto& p : outcome.front) best_acc = std::max(best_acc, p.accuracy);
  const DesignPoint* chosen = nullptr;
  for (const auto& p : outcome.front) {
    if (p.accuracy >= best_acc - 0.02 && (!chosen || p.area_mm2 < chosen->area_mm2)) {
      chosen = &p;
    }
  }
  std::cout << "selected design: " << chosen->config << " (acc "
            << format_fixed(chosen->accuracy, 3) << ", gain "
            << format_factor(baseline.area_mm2 / chosen->area_mm2) << ")\n";

  // Rebuild the genome from the front entry (it is stored in raw form too).
  const auto* member = &outcome.raw.front.front();
  for (const auto& m : outcome.raw.front) {
    if (m.genome.key() == chosen->config) member = &m;
  }
  const QuantizedMlp qmodel = flow.realize_genome(member->genome, config.finetune_epochs);
  const hw::BespokeCircuit circuit(qmodel);

  // Gate-level sanity check before shipping the RTL.
  std::size_t mismatches = 0;
  const auto& test = flow.data().test;
  for (std::size_t i = 0; i < std::min<std::size_t>(test.size(), 100); ++i) {
    const auto xq = quantize_input(test.x[i], qmodel.input_bits());
    if (circuit.predict(xq) != qmodel.predict_quantized(xq)) ++mismatches;
  }
  std::cout << "netlist vs golden model on 100 test vectors: "
            << (mismatches == 0 ? "bit-exact" : "MISMATCH") << '\n';
  if (mismatches != 0) return EXIT_FAILURE;

  std::ofstream out(out_path);
  hw::write_verilog(circuit.netlist(), out, "pnm_" + dataset + "_classifier");
  std::cout << "wrote " << out_path << " (" << circuit.netlist().gate_count()
            << " gates)\n"
            << hw::to_string(hw::analyze(circuit.netlist(), flow.tech()));
  return EXIT_SUCCESS;
}
