/// \file campaign_main.cpp
/// \brief Command-line front end for multi-dataset GA campaigns,
///        including the cross-process scheduling modes.  A campaign is a
///        one-axis scenario grid (pnm/core/scenario.hpp): datasets x seeds
///        with the default topology, 4-bit inputs, the `egt` node, no
///        drifts and the fidelity pass off.
///
/// Usage:
///   campaign_main [--datasets a,b,c] [--seeds 42,43] [--pop N] [--gens G]
///                 [--train-epochs E] [--finetune E] [--ga-finetune E]
///                 [--threads N] [--store DIR] [--out PREFIX] [--require-warm]
///                 [--worker] [--shard-id K --num-shards N] [--jobs N]
///                 [--collect]
///
/// The campaign flags build the spec; the rest choose how its dataset x
/// seed cells run (see cell_cli.hpp: serial by default, or --worker /
/// --jobs / --collect over DIR/sclaims and DIR/scells/<id>.scell).
///
/// Report artifacts (default, --jobs, and --collect modes):
///
///   PREFIX.fronts.json  — per-run + merged Pareto fronts, deterministic
///                         bytes (a warm rerun — or the same campaign run
///                         with any number of worker processes — must
///                         produce an identical file; CI compares them
///                         with cmp)
///   PREFIX.report.json  — cells, fronts, baselines + cache/timing statistics
///   PREFIX.md           — human-readable markdown report (also printed)

#include <cstdlib>
#include <iostream>
#include <string>
#include <utility>

#include "cell_cli.hpp"
#include "pnm/core/scenario.hpp"

namespace {

void usage(const char* argv0) {
  std::cerr << "usage: " << argv0
            << " [--datasets a,b,c] [--seeds 42,43] [--pop N] [--gens G]\n"
               "       [--train-epochs E] [--finetune E] [--ga-finetune E]\n"
               "       [--threads N] [--store DIR] [--out PREFIX] [--require-warm]\n"
               "       [--worker] [--shard-id K --num-shards N] [--jobs N]\n"
               "       [--collect]\n";
}

}  // namespace

int main(int argc, char** argv) {
  using pnm::cli::parse_count;
  return pnm::cli::guarded([&] {
    pnm::ScenarioSpec spec;
    spec.datasets = {"seeds"};
    spec.fidelity = false;
    spec.base.train.epochs = 40;
    spec.base.finetune_epochs = 8;
    spec.ga.population = 16;
    spec.ga.generations = 8;
    pnm::cli::CellFlags flags;
    flags.out_prefix = "campaign";

    for (int i = 1; i < argc; ++i) {
      if (flags.parse(argc, argv, i)) continue;
      const std::string arg(argv[i]);
      if (i + 1 >= argc) {
        usage(argv[0]);
        return EXIT_FAILURE;
      }
      const char* value = argv[++i];
      if (arg == "--datasets") {
        spec.datasets = pnm::cli::split_csv(value);
      } else if (arg == "--seeds") {
        spec.seeds.clear();
        for (const std::string& s : pnm::cli::split_csv(value)) {
          spec.seeds.push_back(parse_count(arg, s));
        }
      } else if (arg == "--pop") {
        spec.ga.population = parse_count(arg, value);
      } else if (arg == "--gens") {
        spec.ga.generations = parse_count(arg, value);
      } else if (arg == "--train-epochs") {
        spec.base.train.epochs = parse_count(arg, value);
      } else if (arg == "--finetune") {
        spec.base.finetune_epochs = parse_count(arg, value);
      } else if (arg == "--ga-finetune") {
        spec.ga_finetune_epochs = parse_count(arg, value);
      } else {
        usage(argv[0]);
        return EXIT_FAILURE;
      }
    }
    return pnm::cli::run_cells(std::move(spec), flags,
                               {{".fronts.json", &pnm::ScenarioResult::fronts_json},
                                {".report.json", &pnm::ScenarioResult::report_json},
                                {".md", &pnm::ScenarioResult::report_markdown}});
  });
}
