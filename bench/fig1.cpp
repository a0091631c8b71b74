/// \file fig1.cpp
/// \brief Figure 1: standalone minimization fronts, one panel per run.
///
/// Usage: fig1 <whitewine|redwine|pendigits|seeds> [csv_dir]
///
/// Paper, Figure 1: "Area-Accuracy trade-off of the printed MLPs with
/// quantization, pruning, and weight clustering.  Values are normalized
/// over each baseline MLP.  Classifiers: (a) WhiteWine, (b) RedWine,
/// (c) Pendigits, (d) Seeds."
///
/// Parameters reproduce §III: unstructured pruning at 20-60 % sparsity,
/// quantization at 2-7 bit weights, clustering over a range of cluster
/// counts; the baseline is the unminimized 8-bit bespoke MLP.  csv_dir
/// additionally dumps the three series as <csv_dir>/fig1_<dataset>.csv for
/// plotting.

#include <string>

#include "common.hpp"

int main(int argc, char** argv) {
  using namespace pnm;
  using namespace pnm::bench;

  const std::string dataset = argc > 1 ? argv[1] : "";
  const std::string csv_dir = argc > 2 ? argv[2] : "";
  const char* panel = dataset == "whitewine" ? "a"
                      : dataset == "redwine" ? "b"
                      : dataset == "pendigits" ? "c"
                      : dataset == "seeds"     ? "d"
                                               : nullptr;
  if (panel == nullptr || argc > 3) {
    std::cerr << "usage: " << argv[0]
              << " <whitewine|redwine|pendigits|seeds> [csv_dir]\n";
    return 1;
  }

  std::cout << "==============================================================\n";
  std::cout << "Figure 1(" << panel << "): standalone minimization fronts on " << dataset
            << "\n";
  std::cout << "==============================================================\n\n";

  MinimizationFlow flow(figure_flow_config(dataset));
  flow.prepare();
  print_baseline(flow);
  const auto& baseline = flow.baseline();

  const auto quant = flow.sweep_quantization(2, 7);
  const auto prune = flow.sweep_pruning({0.2, 0.3, 0.4, 0.5, 0.6});
  const auto cluster = flow.sweep_clustering({2, 3, 4, 6, 8});

  print_series("quantization (2-7 bit weights, QAT)", quant, baseline);
  print_series("unstructured pruning (20-60% sparsity)", prune, baseline);
  print_series("weight clustering (k per input position)", cluster, baseline);

  print_front("quantization", quant, baseline);
  print_front("pruning", prune, baseline);
  print_front("clustering", cluster, baseline);

  if (!csv_dir.empty()) {
    std::vector<DesignPoint> all = quant;
    all.insert(all.end(), prune.begin(), prune.end());
    all.insert(all.end(), cluster.begin(), cluster.end());
    write_points_csv(csv_dir + "/fig1_" + dataset + ".csv", all, baseline);
  }

  std::cout << "-- summary (paper: quant ~5x avg, prune ~2.8x, cluster ~3.5x) --\n";
  report_gain("quantization", quant, baseline);
  report_gain("pruning     ", prune, baseline);
  const auto cluster_gain = report_gain("clustering  ", cluster, baseline);
  if (!cluster_gain.has_value()) {
    std::cout << "(no clustering design met the 5% accuracy threshold on " << dataset
              << " - the paper reports this for Pendigits and Seeds)\n";
  }
  return 0;
}
