/// \file scenario_main.cpp
/// \brief Command-line front end of the GA cell runner
///        (pnm/core/scenario.hpp): a spec file in, the report artifacts
///        out, run in one process or by worker processes sharing a store.
///
/// Usage: scenario_main --spec FILE [--store DIR] [--threads N] [--out PREFIX]
///          [--require-warm] [--worker] [--shard-id K --num-shards N]
///          [--jobs N] [--collect]
///
/// The spec file says what runs (keys: parse_scenario_spec()).  A GA
/// campaign is a spec of datasets, seeds and budgets with `fidelity off`.
/// The flags say how it runs (all but the default mode need --store DIR,
/// the persistence and scheduling root):
///
///   (default)        every cell in this process, then the reports
///   --worker         one work-queue pass: claim available cells, run and
///                    publish each as DIR/scells/<id>.scell, exit (no
///                    report).  Run several on one store — on one machine or
///                    on hosts sharing a filesystem with working flock()
///                    (local disks, NFSv4-class mounts; not NFSv3/SMB).
///   --shard-id K --num-shards N
///                    restrict a --worker pass to the cells whose
///                    index % N == K (static shards never contend)
///   --jobs N         fork N >= 1 local workers, wait, sweep up any cell a
///                    crashed worker orphaned, collect, write the reports
///   --collect        merge the published cells into the reports (fails
///                    if any cell is missing or stale)
///   --require-warm   exit 1 unless the reported run had zero misses and
///                    some hits (after --collect: the counts recorded in
///                    the published cells); refused with --worker
///   --threads N      shared evaluation threads (0 = hardware)
///
/// Numeric values are digits only, and each flag may be given once.  A
/// malformed value, a repeated flag, a flag the mode would ignore, a spec
/// that fails to parse or validate, or any other error prints
/// "error: <what>" and exits 1.
///
/// Reports, written in this order as PREFIX.<suffix> (default PREFIX
/// "scenario"): grid.json (per-cell axes, front, fidelity and drift
/// records), drift.tsv (one line per cell, drift and front genome) and
/// fronts.json (per-dataset cell fronts and merged front) are
/// deterministic bytes — the same spec writes the same files serially,
/// from any worker topology, or warm, and CI cmp's them; report.json and
/// md (also printed) add cache and timing statistics.

#include <cstddef>
#include <cstdlib>
#include <iostream>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>

#include "pnm/core/scenario.hpp"
#include "pnm/util/fileio.hpp"

namespace {

/// The value of numeric flag `flag`, parsed strictly.
/// \throws std::invalid_argument  unless `value` is all digits and fits.
std::size_t parse_count(const std::string& flag, std::string_view value) {
  const std::optional<std::size_t> v = pnm::parse_size_strict(value);
  if (!v) {
    throw std::invalid_argument(flag + ": expected a non-negative integer, got '" +
                                std::string(value) + "'");
  }
  return *v;
}

struct Flags {
  std::string spec_path;
  std::string store_dir;
  std::string out_prefix = "scenario";
  std::size_t threads = 0;
  bool require_warm = false;
  bool worker = false;
  bool collect_only = false;
  std::size_t shard_id = 0;
  std::size_t num_shards = 1;
  bool sharded = false;  ///< --shard-id or --num-shards was given
  std::size_t jobs = 0;  ///< 0 = no supervisor
  std::set<std::string> given;  ///< flags parsed so far

  /// Consumes argv[i] and its value, if any (advancing i).
  /// \return false when argv[i] is not a flag (or lacks its value).
  /// \throws std::invalid_argument on a malformed value or a flag given
  ///         twice (a second value would silently replace the first).
  bool parse(int argc, char** argv, int& i) {
    const std::string arg(argv[i]);
    if (arg == "--require-warm") {
      require_warm = true;
    } else if (arg == "--worker") {
      worker = true;
    } else if (arg == "--collect") {
      collect_only = true;
    } else if (i + 1 >= argc) {
      return false;
    } else if (arg == "--spec") {
      spec_path = argv[++i];
    } else if (arg == "--store") {
      store_dir = argv[++i];
    } else if (arg == "--out") {
      out_prefix = argv[++i];
    } else if (arg == "--threads") {
      threads = parse_count(arg, argv[++i]);
    } else if (arg == "--shard-id") {
      shard_id = parse_count(arg, argv[++i]);
      sharded = true;
    } else if (arg == "--num-shards") {
      num_shards = parse_count(arg, argv[++i]);
      sharded = true;
    } else if (arg == "--jobs") {
      jobs = parse_count(arg, argv[++i]);
      if (jobs == 0) {
        throw std::invalid_argument("--jobs needs at least one worker process");
      }
    } else {
      return false;
    }
    if (!given.insert(arg).second) throw std::invalid_argument(arg + " given twice");
    return true;
  }
};

void print_worker_summary(const char* who, const pnm::CampaignWorkerResult& w) {
  std::cout << who << ": ran " << w.cells_run << " cell(s), skipped "
            << w.cells_skipped_done << " done / " << w.cells_skipped_claimed
            << " claimed by live workers / " << w.cells_skipped_other_shard
            << " other-shard, in " << w.seconds << " s\n";
}

/// Runs `spec` in the mode the flags select and writes the reports.
/// \return the process exit status.
/// \throws std::exception on a flag combination the mode would ignore, an
///         incomplete collect, or a failed write.
int run_cells(pnm::ScenarioSpec spec, const Flags& flags) {
  using pnm::ScenarioRunner;
  spec.store_dir = flags.store_dir;
  spec.threads = flags.threads;
  const int modes = static_cast<int>(flags.worker) +
                    static_cast<int>(flags.collect_only) +
                    static_cast<int>(flags.jobs > 0);
  if (modes > 0 && spec.store_dir.empty()) {
    throw std::invalid_argument(
        "--worker/--jobs/--collect need --store DIR (claims and cell results live there)");
  }
  if (modes > 1) {
    throw std::invalid_argument("--worker, --jobs, and --collect are mutually exclusive");
  }
  if (flags.sharded && !flags.worker) {
    throw std::invalid_argument("--shard-id/--num-shards only apply to a --worker pass");
  }
  if (flags.require_warm && flags.worker) {
    throw std::invalid_argument(
        "--require-warm does not apply to --worker, which writes no report (use "
        "--collect --require-warm after the workers)");
  }

  if (flags.worker) {
    print_worker_summary("worker", ScenarioRunner(std::move(spec))
                                       .run_worker(flags.shard_id, flags.num_shards));
    return EXIT_SUCCESS;
  }

  std::optional<pnm::ScenarioResult> result;
  if (flags.collect_only) {
    result = pnm::collect_scenario(spec);
  } else if (flags.jobs > 0) {
    // Supervisor: the workers are forked before any runner (and so any
    // thread pool) exists in this process.  A worker that died mid-cell
    // released its claim with its process, so one local pass finishes
    // the stragglers.
    std::cout << "supervisor: spawning " << flags.jobs << " worker process(es)\n";
    const bool workers_ok = pnm::run_worker_processes(flags.jobs, [&](std::size_t) {
      print_worker_summary("worker", ScenarioRunner(spec).run_worker());
      return EXIT_SUCCESS;
    });
    if (!workers_ok) {
      std::cerr << "supervisor: a worker exited abnormally — sweeping up its "
                   "cells locally\n";
    }
    result = pnm::collect_scenario(spec);
    if (!result) {
      print_worker_summary("supervisor-sweep", ScenarioRunner(spec).run_worker());
      result = pnm::collect_scenario(spec);
    }
  } else {
    ScenarioRunner runner(std::move(spec));
    const pnm::ScenarioSpec& s = runner.spec();
    std::cout << s.expand().size() << " cell(s) (" << s.datasets.size()
              << " dataset(s) x " << s.topologies.size() << " topology(ies) x "
              << s.input_bits.size() << " bit width(s) x " << s.tech_nodes.size()
              << " tech node(s) x " << s.seeds.size() << " seed(s)), pop "
              << s.ga.population << ", " << s.ga.generations << " gens, "
              << runner.threads() << " shared worker thread(s)"
              << (s.store_dir.empty() ? ", no persistence"
                                      : ", store dir " + s.store_dir)
              << "\n\n";
    result = runner.run();
  }
  if (!result) {
    throw std::runtime_error("incomplete — missing or stale cell results under " +
                             flags.store_dir +
                             "/scells (run more workers, then collect again)");
  }

  const std::string markdown = result->report_markdown();
  std::cout << markdown << '\n';
  const std::pair<const char*, std::string> artifacts[] = {
      {".grid.json", result->grid_json()},
      {".drift.tsv", result->drift_report()},
      {".fronts.json", result->fronts_json()},
      {".report.json", result->report_json()},
      {".md", markdown},
  };
  std::string written;
  for (const auto& [suffix, content] : artifacts) {
    const std::string path = flags.out_prefix + suffix;
    if (!pnm::write_text_file_atomic(path, content)) {
      throw std::runtime_error("failed writing report files under prefix " +
                               flags.out_prefix);
    }
    written += (written.empty() ? "" : ", ") + path;
  }
  std::cout << "wrote " << written << '\n';

  if (flags.require_warm) {
    if (result->total_cache_misses() != 0 || result->total_cache_hits() == 0) {
      std::cerr << "--require-warm: expected a fully warm run, got "
                << result->total_cache_hits() << " hits / "
                << result->total_cache_misses() << " misses\n";
      return EXIT_FAILURE;
    }
    std::cout << "warm-run check passed: every evaluation served from the store ("
              << result->total_cache_hits() << " hits, 0 misses)\n";
  }
  return EXIT_SUCCESS;
}

void usage(const char* argv0) {
  std::cerr << "usage: " << argv0
            << " --spec FILE [--store DIR] [--threads N] [--out PREFIX]\n"
               "       [--require-warm] [--worker] [--shard-id K --num-shards N]\n"
               "       [--jobs N] [--collect]\n";
}

}  // namespace

int main(int argc, char** argv) {
  try {
    Flags flags;
    bool ok = true;
    for (int i = 1; ok && i < argc; ++i) ok = flags.parse(argc, argv, i);
    if (!ok || flags.spec_path.empty()) {
      usage(argv[0]);
      return EXIT_FAILURE;
    }
    const std::optional<std::string> text = pnm::read_text_file(flags.spec_path);
    if (!text) throw std::runtime_error("cannot read spec file " + flags.spec_path);
    pnm::ScenarioSpec spec;
    try {
      spec = pnm::parse_scenario_spec(*text);
    } catch (const std::invalid_argument& e) {
      throw std::invalid_argument(flags.spec_path + ": " + e.what());
    }
    return run_cells(std::move(spec), flags);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << '\n';
    return EXIT_FAILURE;
  }
}
