/// \file scenario_main.cpp
/// \brief Command-line front end for scenario grids
///        (pnm/core/scenario.hpp): a grid spec file in, the gated report
///        artifacts out, with the same cross-process scheduling modes as
///        campaign_main.
///
/// Usage:
///   scenario_main --spec FILE [--store DIR] [--threads N] [--out PREFIX]
///                 [--require-warm]
///                 [--worker] [--shard-id K --num-shards N] [--jobs N]
///                 [--collect]
///
/// The grid itself (datasets, topologies, input bits, tech nodes, seeds,
/// drifts, GA knobs, fidelity gate) lives entirely in the spec file — see
/// parse_scenario_spec() in pnm/core/scenario.hpp for the format.  The
/// flags only choose *how* the grid is executed (see cell_cli.hpp: serial
/// by default, or --worker / --jobs / --collect over DIR/sclaims and
/// DIR/scells/<id>.scell).
///
/// Report artifacts (default, --jobs, and --collect modes):
///
///   PREFIX.grid.json   — axes + fronts + fidelity + drift records per
///                        cell, deterministic bytes (same spec => same
///                        file, serial or any worker topology; CI cmp's)
///   PREFIX.drift.tsv   — the drift-robustness report, one line per
///                        (cell, drift, genome); same determinism contract
///   PREFIX.report.json — grid and fronts plus cache/timing statistics
///   PREFIX.md          — human-readable markdown summary (also printed)

#include <cstdlib>
#include <iostream>
#include <optional>
#include <string>
#include <utility>

#include "cell_cli.hpp"
#include "pnm/core/scenario.hpp"
#include "pnm/util/fileio.hpp"

namespace {

void usage(const char* argv0) {
  std::cerr << "usage: " << argv0
            << " --spec FILE [--store DIR] [--threads N] [--out PREFIX]\n"
               "       [--require-warm] [--worker] [--shard-id K --num-shards N]\n"
               "       [--jobs N] [--collect]\n";
}

}  // namespace

int main(int argc, char** argv) {
  return pnm::cli::guarded([&] {
    std::string spec_path;
    pnm::cli::CellFlags flags;
    flags.out_prefix = "scenario";
    for (int i = 1; i < argc; ++i) {
      if (flags.parse(argc, argv, i)) continue;
      if (std::string(argv[i]) == "--spec" && i + 1 < argc) {
        spec_path = argv[++i];
      } else {
        usage(argv[0]);
        return EXIT_FAILURE;
      }
    }
    if (spec_path.empty()) {
      usage(argv[0]);
      return EXIT_FAILURE;
    }
    const std::optional<std::string> spec_text = pnm::read_text_file(spec_path);
    if (!spec_text) {
      std::cerr << "error: cannot read spec file " << spec_path << '\n';
      return EXIT_FAILURE;
    }
    pnm::ScenarioSpec spec;
    try {
      spec = pnm::parse_scenario_spec(*spec_text);
    } catch (const std::exception& e) {
      std::cerr << "error: " << spec_path << ": " << e.what() << '\n';
      return EXIT_FAILURE;
    }
    return pnm::cli::run_cells(std::move(spec), flags,
                               {{".grid.json", &pnm::ScenarioResult::grid_json},
                                {".drift.tsv", &pnm::ScenarioResult::drift_report},
                                {".report.json", &pnm::ScenarioResult::report_json},
                                {".md", &pnm::ScenarioResult::report_markdown}});
  });
}
