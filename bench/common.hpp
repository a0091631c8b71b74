#ifndef PNM_BENCH_COMMON_HPP
#define PNM_BENCH_COMMON_HPP

/// \file common.hpp
/// \brief Shared helpers for the figure-reproduction harness.
///
/// Every bench binary prints (a) the raw design-point series it measured,
/// normalized exactly like the paper's axes (area / baseline-area,
/// absolute accuracy plus delta to the baseline), and (b) the summary
/// statistic the paper quotes for that figure.  Absolute areas are also
/// printed so the printed-technology scale (cm^2!) is visible.

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "pnm/core/eval_store.hpp"
#include "pnm/core/flow.hpp"
#include "pnm/core/pareto.hpp"
#include "pnm/util/table.hpp"
#include "pnm/util/thread_pool.hpp"

namespace pnm::bench {

/// Core count stamped into BENCH_*.json records so perf numbers carry
/// their machine context (the CI runner and a laptop are not comparable).
inline std::size_t machine_cores() { return ThreadPool::default_thread_count(); }

/// Total duplicate records across every eval store directly inside a
/// cell runner's store directory (the sharding bench's gate).
inline std::size_t store_duplicates(const std::string& store_dir) {
  std::size_t duplicates = 0;
  std::error_code ec;
  std::filesystem::directory_iterator it(store_dir, ec);
  if (ec) return duplicates;
  for (const std::filesystem::directory_entry& entry : it) {
    if (!entry.is_directory(ec) || ec) continue;
    const std::string name = entry.path().filename().string();
    if (name.size() < 10 || name.substr(name.size() - 10) != ".evalstore") continue;
    duplicates += EvalStore::count_duplicate_records(entry.path().string());
  }
  return duplicates;
}

/// The flow configuration used by all figure benches (full-size runs; the
/// unit tests use reduced budgets instead).
inline FlowConfig figure_flow_config(const std::string& dataset) {
  FlowConfig config;
  config.dataset_name = dataset;
  config.seed = 42;
  config.train.epochs = 60;
  config.finetune_epochs = 8;
  return config;
}

/// Prints one technique's sweep, normalized to the baseline.
inline void print_series(const std::string& title, const std::vector<DesignPoint>& points,
                         const DesignPoint& baseline) {
  std::cout << "-- " << title << " --\n";
  TextTable table({"config", "norm area", "area gain", "accuracy", "acc delta",
                   "area mm^2", "power mW", "delay ms"});
  for (const auto& p : points) {
    // Degenerate designs can fold to constant classifiers with zero area
    // (e.g. 2-bit QAT collapsing a layer); report the gain as "-".
    const std::string gain =
        p.area_mm2 > 0.0 ? format_factor(baseline.area_mm2 / p.area_mm2) : "-";
    table.add_row({p.config, format_fixed(p.area_mm2 / baseline.area_mm2, 3), gain,
                   format_fixed(p.accuracy, 3),
                   format_fixed(p.accuracy - baseline.accuracy, 3),
                   format_fixed(p.area_mm2, 1), format_fixed(p.power_uw / 1000.0, 2),
                   format_fixed(p.delay_ms, 1)});
  }
  std::cout << table.to_string() << '\n';
}

/// Prints the Pareto front of a sweep (what the paper's figures plot).
inline void print_front(const std::string& title, std::vector<DesignPoint> points,
                        const DesignPoint& baseline) {
  const auto front = pareto_front(std::move(points));
  std::cout << "-- " << title << " (pareto front) --\n";
  TextTable table({"config", "norm area", "accuracy"});
  for (const auto& p : front) {
    table.add_row({p.config, format_fixed(p.area_mm2 / baseline.area_mm2, 3),
                   format_fixed(p.accuracy, 3)});
  }
  std::cout << table.to_string() << '\n';
}

/// Table cell for an optional gain: "5.02x", or "n/a" when no design met
/// the loss budget (best_area_gain_at_loss's no-qualifier case).
inline std::string format_gain(const std::optional<double>& gain) {
  return gain ? format_factor(*gain) : "n/a";
}

/// Numeric value of an optional gain for averaging/comparing series.
/// The baseline itself always meets any loss budget, so every series can
/// realize at least 1.0x: a sweep with no qualifying design contributes
/// exactly that, and a qualifying design *larger* than the baseline
/// (sub-unity factor) is clamped up to it as well — otherwise "nothing
/// qualified" (1.0) would rank above "something qualified at 0.9x".
inline double gain_or_baseline(const std::optional<double>& gain) {
  return std::max(1.0, gain.value_or(1.0));
}

/// "Up to X area gain for <= loss accuracy loss" summary line.
inline std::optional<double> report_gain(const std::string& technique,
                                         const std::vector<DesignPoint>& points,
                                         const DesignPoint& baseline, double loss = 0.05) {
  const auto gain =
      best_area_gain_at_loss(points, baseline.accuracy, baseline.area_mm2, loss);
  std::cout << technique << ": max area gain at <=" << format_fixed(loss * 100, 0)
            << "% accuracy loss = " << format_gain(gain)
            << (gain ? "" : " (no design within the loss budget)") << '\n';
  return gain;
}

/// Machine-readable dump of one series for external plotting: writes
/// technique, config, accuracy, normalized area, and the absolute
/// physical numbers to `path` (one row per design point, baseline first).
inline void write_points_csv(const std::string& path,
                             const std::vector<DesignPoint>& points,
                             const DesignPoint& baseline) {
  std::ofstream out(path);
  if (!out) {
    std::cerr << "warning: cannot write " << path << '\n';
    return;
  }
  out << "technique,config,accuracy,norm_area,area_mm2,power_uw,delay_ms\n";
  auto row = [&out, &baseline](const DesignPoint& p) {
    out << p.technique << ',' << p.config << ',' << format_fixed(p.accuracy, 4) << ','
        << format_fixed(baseline.area_mm2 > 0 ? p.area_mm2 / baseline.area_mm2 : 0.0, 4)
        << ',' << format_fixed(p.area_mm2, 2) << ',' << format_fixed(p.power_uw, 1)
        << ',' << format_fixed(p.delay_ms, 1) << '\n';
  };
  row(baseline);
  for (const auto& p : points) row(p);
  std::cout << "(wrote " << path << ")\n";
}

inline void print_baseline(const MinimizationFlow& flow) {
  const auto& b = flow.baseline();
  std::cout << "baseline (unminimized bespoke, " << b.config
            << " weights): accuracy " << format_fixed(b.accuracy, 3) << ", area "
            << format_fixed(b.area_mm2, 1) << " mm^2 ("
            << format_fixed(b.area_mm2 / 100.0, 2) << " cm^2), power "
            << format_fixed(b.power_uw / 1000.0, 2) << " mW, delay "
            << format_fixed(b.delay_ms, 1) << " ms\n"
            << "float model test accuracy: " << format_fixed(flow.float_test_accuracy(), 3)
            << "\n\n";
}

}  // namespace pnm::bench

#endif  // PNM_BENCH_COMMON_HPP
