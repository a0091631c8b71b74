#ifndef PNM_EXAMPLES_CELL_CLI_HPP
#define PNM_EXAMPLES_CELL_CLI_HPP

/// \file cell_cli.hpp
/// \brief The scheduling front end campaign_main and scenario_main
///        share: the flags that choose *how* a cell family runs, and its
///        serial, --worker, --jobs and --collect modes.
///
/// Shared flags (the scheduling modes need --store):
///
///   --store DIR      persistence and scheduling root
///   --threads N      shared evaluation worker threads (0 = hardware)
///   --out PREFIX     prefix of the report artifacts
///   --require-warm   exit nonzero unless every evaluation was served from
///                    the store (zero misses, nonzero hits)
///   --worker         one work-queue pass: claim available cells, run them,
///                    publish each result, and exit.  Run N of these
///                    concurrently — same machine, or hosts sharing a
///                    filesystem with working flock() semantics (local
///                    disks, NFSv4-class mounts; not NFSv3/SMB) — to drain
///                    one store together.
///   --shard-id K --num-shards N
///                    restrict a --worker pass to cells where
///                    index % N == K (static sharding; shards never contend)
///   --jobs N         supervisor: fork N local --worker processes, wait,
///                    pick up any cell orphaned by a crashed worker, then
///                    collect and write the reports
///   --collect        only merge the published cells into the reports
///                    (fails if any cell is missing or stale)
///
/// Numeric values are digits only.  A malformed value, a spec that fails
/// validation, or any other error prints "error: <what>" and exits 1.

#include <cstddef>
#include <cstdlib>
#include <iostream>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "pnm/core/cell_queue.hpp"
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
    } else if (arg == "--num-shards") {
      num_shards = parse_count(arg, argv[++i]);
    } else if (arg == "--jobs") {
      jobs = parse_count(arg, argv[++i]);
    } else {
      return false;
    }
    return true;
  }
};

/// What run_cells needs to know about one cell family.
template <typename Runner, typename Spec, typename Result>
struct CellFamily {
  const char* noun;       ///< "campaign" or "scenario"
  const char* cells_dir;  ///< published-cell subdirectory (for messages)
  std::optional<Result> (*collect)(const Spec&);
  /// (file suffix, content) of every report artifact, in write order.
  std::vector<std::pair<std::string, std::string>> (*artifacts)(const Result&);
  /// First words of the serial-run banner, e.g. "campaign: 2 dataset(s)".
  std::string (*describe)(const Spec&);
};

inline void print_worker_summary(const char* who, const CampaignWorkerResult& w) {
  std::cout << who << ": ran " << w.cells_run << " cell(s), skipped "
            << w.cells_skipped_done << " done / " << w.cells_skipped_claimed
            << " claimed by live workers / " << w.cells_skipped_other_shard
            << " other-shard, in " << w.seconds << " s\n";
}

/// Runs `spec` in the mode the flags select and writes the reports.
/// \return the process exit status.
template <typename Runner, typename Spec, typename Result>
int run_cells(Spec spec, const CellFlags& flags,
              const CellFamily<Runner, Spec, Result>& family) {
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

  if (flags.worker) {
    // Distinct preferred store segments per shard: purely an optimization
    // (the store probes past held segments anyway).
    spec.writer_id = flags.shard_id;
    print_worker_summary("worker", Runner(std::move(spec))
                                       .run_worker(flags.shard_id, flags.num_shards));
    return EXIT_SUCCESS;
  }

  std::optional<Result> result;
  if (flags.collect_only) {
    result = family.collect(spec);
  } else if (flags.jobs > 0) {
    // Supervisor: the workers are forked before any Runner (and so any
    // thread pool) exists in this process.  A worker that died mid-cell
    // released its claim with its process, so one local pass finishes
    // the stragglers.
    std::cout << "supervisor: spawning " << flags.jobs << " worker process(es)\n";
    const bool workers_ok = run_worker_processes(flags.jobs, [&](std::size_t j) {
      Spec child = spec;
      child.writer_id = j;  // preferred segment only; probing is safe
      print_worker_summary("worker", Runner(std::move(child)).run_worker());
      return EXIT_SUCCESS;
    });
    if (!workers_ok) {
      std::cerr << "supervisor: a worker exited abnormally — sweeping up its "
                   "cells locally\n";
    }
    result = family.collect(spec);
    if (!result) {
      print_worker_summary("supervisor-sweep", Runner(spec).run_worker());
      result = family.collect(spec);
    }
  } else {
    Runner runner(std::move(spec));
    const Spec& s = runner.spec();
    std::cout << family.describe(s) << ", pop " << s.ga.population << ", "
              << s.ga.generations << " gens, " << runner.threads()
              << " shared worker thread(s)"
              << (s.store_dir.empty() ? ", no persistence"
                                      : ", store dir " + s.store_dir)
              << "\n\n";
    result = runner.run();
  }
  if (!result) {
    std::cerr << "error: " << family.noun
              << " incomplete — missing or stale cell results under "
              << flags.store_dir << "/" << family.cells_dir
              << " (run more workers, then collect again)\n";
    return EXIT_FAILURE;
  }

  std::cout << result->report_markdown() << '\n';
  std::string written;
  for (const auto& [suffix, content] : family.artifacts(*result)) {
    const std::string path = flags.out_prefix + suffix;
    if (!write_text_file_atomic(path, content)) {
      std::cerr << "error: failed writing report files under prefix "
                << flags.out_prefix << '\n';
      return EXIT_FAILURE;
    }
    written += (written.empty() ? "" : ", ") + path;
  }
  std::cout << "wrote " << written << '\n';

  if (flags.require_warm) {
    if (result->total_cache_misses() != 0 || result->total_cache_hits() == 0) {
      std::cerr << "--require-warm: expected a fully warm " << family.noun
                << " run, got " << result->total_cache_hits() << " hits / "
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
