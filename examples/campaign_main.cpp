/// \file campaign_main.cpp
/// \brief CLI driver for multi-dataset GA campaigns (pnm/core/campaign.hpp),
///        including the cross-process scheduling modes.
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
/// --jobs / --collect over DIR/claims and DIR/cells/<cell>.cell).
///
/// Report artifacts (default, --jobs, and --collect modes):
///
///   PREFIX.fronts.json  — per-run + merged Pareto fronts, deterministic
///                         bytes (a warm rerun — or the same campaign run
///                         with any number of worker processes — must
///                         produce an identical file; CI compares them
///                         with cmp)
///   PREFIX.report.json  — fronts + baselines + cache/timing statistics
///   PREFIX.md           — human-readable markdown report (also printed)

#include <cstdlib>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "cell_cli.hpp"
#include "pnm/core/campaign.hpp"

namespace {

void usage(const char* argv0) {
  std::cerr << "usage: " << argv0
            << " [--datasets a,b,c] [--seeds 42,43] [--pop N] [--gens G]\n"
               "       [--train-epochs E] [--finetune E] [--ga-finetune E]\n"
               "       [--threads N] [--store DIR] [--out PREFIX] [--require-warm]\n"
               "       [--worker] [--shard-id K --num-shards N] [--jobs N]\n"
               "       [--collect]\n";
}

const pnm::cli::CellFamily<pnm::CampaignRunner, pnm::CampaignSpec, pnm::CampaignResult>
    kCampaign{
        "campaign", "cells", &pnm::collect_campaign,
        [](const pnm::CampaignResult& r) {
          return std::vector<std::pair<std::string, std::string>>{
              {".fronts.json", r.fronts_json()},
              {".report.json", r.report_json()},
              {".md", r.report_markdown()}};
        },
        [](const pnm::CampaignSpec& s) {
          return "campaign: " + std::to_string(s.datasets.size()) + " dataset(s) x " +
                 std::to_string(s.seeds.size()) + " seed(s)";
        }};

}  // namespace

int main(int argc, char** argv) {
  using pnm::cli::parse_count;
  return pnm::cli::guarded([&] {
    pnm::CampaignSpec spec;
    spec.datasets = {"seeds"};
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
    return pnm::cli::run_cells(std::move(spec), flags, kCampaign);
  });
}
