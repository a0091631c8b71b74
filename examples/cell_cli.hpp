#ifndef PNM_EXAMPLES_CELL_CLI_HPP
#define PNM_EXAMPLES_CELL_CLI_HPP

/// \file cell_cli.hpp
/// \brief The scheduling front end campaign_main and scenario_main
///        share: the flags that choose *how* a ScenarioSpec's cells run,
///        and its serial, --worker, --jobs and --collect modes.  The two
///        mains differ only in how they build the spec and which report
///        artifacts they write.
///
/// Shared flags (the scheduling modes need --store):
///
///   --store DIR      persistence and scheduling root
///   --threads N      shared evaluation worker threads (0 = hardware)
///   --out PREFIX     prefix of the report artifacts
///   --require-warm   exit nonzero unless every evaluation was served from
///                    the store (zero misses, nonzero hits); not with
///                    --worker, which writes no report (check a worker
///                    run with --collect --require-warm, which reads the
///                    counts recorded in the published cells)
///   --worker         one work-queue pass: claim available cells, run them,
///                    publish each result, and exit.  Run N of these
///                    concurrently — same machine, or hosts sharing a
///                    filesystem with working flock() semantics (local
///                    disks, NFSv4-class mounts; not NFSv3/SMB) — to drain
///                    one store together.
///   --shard-id K --num-shards N
///                    restrict a --worker pass to cells where
///                    index % N == K (static sharding; shards never
///                    contend); refused without --worker
///   --jobs N         supervisor: fork N local --worker processes, wait,
///                    pick up any cell orphaned by a crashed worker, then
///                    collect and write the reports
///   --collect        only merge the published cells into the reports
///                    (fails if any cell is missing or stale)
///
/// Numeric values are digits only.  A malformed value, a flag combination
/// that would be ignored, a spec that fails validation, or any other
/// error prints "error: <what>" and exits 1.

#include <cstddef>
#include <cstdlib>
#include <iostream>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "pnm/core/scenario.hpp"
#include "pnm/util/fileio.hpp"

namespace pnm::cli {

/// Runs a CLI body; an escaping exception becomes "error: <what>" on
/// stderr and exit status 1.
template <typename Body>
int guarded(Body&& body) {
  try {
    return body();
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << '\n';
    return EXIT_FAILURE;
  }
}

/// The value of numeric flag `flag`, parsed strictly.
/// \throws std::invalid_argument  unless `value` is all digits and fits.
inline std::size_t parse_count(const std::string& flag, std::string_view value) {
  const std::optional<std::size_t> v = parse_size_strict(value);
  if (!v) {
    throw std::invalid_argument(flag + ": expected a non-negative integer, got '" +
                                std::string(value) + "'");
  }
  return *v;
}

/// Comma-separated items, empty ones dropped.
inline std::vector<std::string> split_csv(std::string_view csv) {
  std::vector<std::string> out;
  for (std::string_view item : split_fields(csv, ',')) {
    if (!item.empty()) out.emplace_back(item);
  }
  return out;
}

/// The flags both CLIs share.
struct CellFlags {
  std::string store_dir;
  std::string out_prefix;
  std::size_t threads = 0;
  bool require_warm = false;
  bool worker = false;
  bool collect_only = false;
  std::size_t shard_id = 0;
  std::size_t num_shards = 1;
  bool sharded = false;  ///< --shard-id or --num-shards was given
  std::size_t jobs = 0;

  /// Consumes argv[i], and its value (advancing i), when it is a shared
  /// flag.
  /// \return false when argv[i] is not a shared flag (or lacks its value).
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
    } else {
      return false;
    }
    return true;
  }
};

/// One report artifact: the file suffix after the --out prefix and the
/// ScenarioResult renderer that produces its content.
struct Artifact {
  const char* suffix;
  std::string (ScenarioResult::*render)() const;
};

inline void print_worker_summary(const char* who, const CampaignWorkerResult& w) {
  std::cout << who << ": ran " << w.cells_run << " cell(s), skipped "
            << w.cells_skipped_done << " done / " << w.cells_skipped_claimed
            << " claimed by live workers / " << w.cells_skipped_other_shard
            << " other-shard, in " << w.seconds << " s\n";
}

/// Runs `spec` in the mode the flags select and writes `artifacts`, in
/// order.
/// \return the process exit status.
inline int run_cells(ScenarioSpec spec, const CellFlags& flags,
                     const std::vector<Artifact>& artifacts) {
  spec.store_dir = flags.store_dir;
  spec.threads = flags.threads;
  const int modes = static_cast<int>(flags.worker) +
                    static_cast<int>(flags.collect_only) +
                    static_cast<int>(flags.jobs > 0);
  if (modes > 0 && spec.store_dir.empty()) {
    std::cerr << "error: --worker/--jobs/--collect need --store DIR (claims and "
                 "cell results live there)\n";
    return EXIT_FAILURE;
  }
  if (modes > 1) {
    std::cerr << "error: --worker, --jobs, and --collect are mutually exclusive\n";
    return EXIT_FAILURE;
  }
  if (flags.sharded && !flags.worker) {
    std::cerr << "error: --shard-id/--num-shards only apply to a --worker pass\n";
    return EXIT_FAILURE;
  }
  if (flags.require_warm && flags.worker) {
    std::cerr << "error: --require-warm does not apply to --worker, which writes no "
                 "report (use --collect --require-warm after the workers)\n";
    return EXIT_FAILURE;
  }

  if (flags.worker) {
    // Distinct preferred store segments per shard: purely an optimization
    // (the store probes past held segments anyway).
    spec.writer_id = flags.shard_id;
    print_worker_summary("worker", ScenarioRunner(std::move(spec))
                                       .run_worker(flags.shard_id, flags.num_shards));
    return EXIT_SUCCESS;
  }

  std::optional<ScenarioResult> result;
  if (flags.collect_only) {
    result = collect_scenario(spec);
  } else if (flags.jobs > 0) {
    // Supervisor: the workers are forked before any runner (and so any
    // thread pool) exists in this process.  A worker that died mid-cell
    // released its claim with its process, so one local pass finishes
    // the stragglers.
    std::cout << "supervisor: spawning " << flags.jobs << " worker process(es)\n";
    const bool workers_ok = run_worker_processes(flags.jobs, [&](std::size_t j) {
      ScenarioSpec child = spec;
      child.writer_id = j;  // preferred segment only; probing is safe
      print_worker_summary("worker", ScenarioRunner(std::move(child)).run_worker());
      return EXIT_SUCCESS;
    });
    if (!workers_ok) {
      std::cerr << "supervisor: a worker exited abnormally — sweeping up its "
                   "cells locally\n";
    }
    result = collect_scenario(spec);
    if (!result) {
      print_worker_summary("supervisor-sweep", ScenarioRunner(spec).run_worker());
      result = collect_scenario(spec);
    }
  } else {
    ScenarioRunner runner(std::move(spec));
    const ScenarioSpec& s = runner.spec();
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
    std::cerr << "error: incomplete — missing or stale cell results under "
              << flags.store_dir
              << "/scells (run more workers, then collect again)\n";
    return EXIT_FAILURE;
  }

  std::cout << result->report_markdown() << '\n';
  std::string written;
  for (const Artifact& artifact : artifacts) {
    const std::string path = flags.out_prefix + artifact.suffix;
    if (!write_text_file_atomic(path, ((*result).*artifact.render)())) {
      std::cerr << "error: failed writing report files under prefix "
                << flags.out_prefix << '\n';
      return EXIT_FAILURE;
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

}  // namespace pnm::cli

#endif  // PNM_EXAMPLES_CELL_CLI_HPP
