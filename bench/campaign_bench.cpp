/// \file campaign_bench.cpp
/// \brief Campaign resume and sharding benchmark: runs one tiny
///        two-dataset GA campaign cold, then warm against the same store
///        directory, then drained by two real worker *processes* sharing
///        a fresh store, and records BENCH_campaign.json (warm vs cold)
///        and BENCH_shard.json (two workers vs the serial cold run).
///
/// The guarantees are measured, not assumed; exit status is nonzero — CI
/// red — when any fails, so both records are always verified ones:
///
///   * the warm run serves every evaluation from the store (zero misses)
///     and produces a fronts_json byte-identical to the cold run's;
///   * the two-worker run produces a merged fronts_json byte-identical to
///     the cold run's, the shared store holds zero duplicate evaluation
///     records, and the workers' total fresh evaluations equal the cold
///     run's (a duplicated cell or a claim-protocol hole would show up as
///     extra misses).
///
/// Wall-time note: on a single-core host the two-worker time is expected
/// to be *worse* than serial (two processes time-slicing one core); the
/// record tracks the trajectory on multi-core hosts, where the cells
/// parallelize.

#include <chrono>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <optional>
#include <string>
#include <utility>

#include "common.hpp"
#include "pnm/core/campaign.hpp"
#include "pnm/util/fileio.hpp"

int main() {
  using namespace pnm;

  CampaignSpec spec;
  spec.datasets = {"seeds", "redwine"};
  spec.seeds = {7};
  spec.base.train.epochs = 20;
  spec.base.finetune_epochs = 5;
  spec.ga.population = 12;
  spec.ga.generations = 6;
  spec.store_dir = "campaign_bench_store";
  CampaignSpec shard_spec = spec;
  shard_spec.store_dir = "campaign_bench_store_2worker";

  // Cold: wipe the store directories so every evaluation is fresh.
  std::error_code ec;
  std::filesystem::remove_all(spec.store_dir, ec);
  std::filesystem::remove_all(shard_spec.store_dir, ec);

  const auto seconds_since = [](std::chrono::steady_clock::time_point start) {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
        .count();
  };
  const auto time_run = [&](const CampaignSpec& s, CampaignResult& out) {
    CampaignRunner runner(s);
    const auto start = std::chrono::steady_clock::now();
    out = runner.run();
    return seconds_since(start);
  };

  CampaignResult cold;
  CampaignResult warm;
  const double cold_seconds = time_run(spec, cold);
  const double warm_seconds = time_run(spec, warm);

  const bool fronts_identical = cold.fronts_json() == warm.fronts_json();
  const bool warm_no_misses = warm.total_cache_misses() == 0;
  const bool warm_has_hits = warm.total_cache_hits() > 0;
  const double speedup = warm_seconds > 0.0 ? cold_seconds / warm_seconds : 0.0;

  std::cout << "-- campaign warm-vs-cold (" << spec.datasets.size()
            << " datasets x " << spec.seeds.size() << " seeds, pop "
            << spec.ga.population << ", " << spec.ga.generations << " gens) --\n"
            << "  cold: " << cold_seconds << " s, " << cold.total_cache_misses()
            << " fresh evaluations\n"
            << "  warm: " << warm_seconds << " s, " << warm.total_cache_hits()
            << " hits / " << warm.total_cache_misses() << " misses ("
            << warm.total_store_loaded() << " records preloaded)\n"
            << "  speedup: " << speedup << "x, fronts byte-identical: "
            << (fronts_identical ? "yes" : "NO (BUG)") << '\n';

  // Two worker processes drain the same campaign into one fresh shared
  // store, claiming cells dynamically (no static shard) to exercise the
  // work-queue path.  No runner, and so no thread pool, is alive here.
  const auto shard_start = std::chrono::steady_clock::now();
  const bool workers_ok = run_worker_processes(2, [&](std::size_t j) {
    CampaignSpec worker_spec = shard_spec;
    worker_spec.writer_id = j;  // preferred store segment (probing makes any id safe)
    CampaignRunner(std::move(worker_spec)).run_worker();
    return 0;
  });
  const std::optional<CampaignResult> sharded =
      workers_ok ? collect_campaign(shard_spec) : std::nullopt;
  const double shard_seconds = seconds_since(shard_start);
  if (!sharded) {
    std::cerr << "FAIL: "
              << (workers_ok ? "collect found missing/stale cells"
                             : "a worker process exited abnormally")
              << "\n";
    return 1;
  }

  const std::size_t serial_misses = cold.total_cache_misses();
  const std::size_t shard_misses = sharded->total_cache_misses();
  const std::size_t duplicates = bench::store_duplicates(shard_spec.store_dir);
  const bool shard_identical = sharded->fronts_json() == cold.fronts_json();
  const bool no_duplicate_evals = shard_misses == serial_misses;
  const double shard_speedup = shard_seconds > 0.0 ? cold_seconds / shard_seconds : 0.0;
  const std::size_t cores = bench::machine_cores();

  std::cout << "-- 2-worker: " << shard_seconds << " s, " << shard_misses
            << " fresh evaluations across both workers --\n"
            << "  fronts byte-identical to serial: "
            << (shard_identical ? "yes" : "NO (BUG)") << '\n'
            << "  duplicate records in shared store: " << duplicates << '\n'
            << "  speedup vs serial: " << shard_speedup << "x (on " << cores
            << " core(s))\n";

  std::ofstream json("BENCH_campaign.json");
  std::ofstream shard_json("BENCH_shard.json");
  if (!json || !shard_json) {
    std::cerr << "error: cannot write BENCH_campaign.json / BENCH_shard.json\n";
    return 1;
  }
  json << "[\n  {\"bench\": \"campaign_warm_vs_cold\""
       << ", \"datasets\": " << spec.datasets.size()
       << ", \"seeds\": " << spec.seeds.size()
       << ", \"population\": " << spec.ga.population
       << ", \"generations\": " << spec.ga.generations
       << ", \"cold_seconds\": " << format_double_roundtrip(cold_seconds)
       << ", \"warm_seconds\": " << format_double_roundtrip(warm_seconds)
       << ", \"speedup_warm_vs_cold\": " << format_double_roundtrip(speedup)
       << ", \"cold_misses\": " << cold.total_cache_misses()
       << ", \"warm_hits\": " << warm.total_cache_hits()
       << ", \"warm_misses\": " << warm.total_cache_misses()
       << ", \"warm_store_loaded\": " << warm.total_store_loaded()
       << ", \"warm_hit_rate\": " << format_double_roundtrip(warm.cache_hit_rate())
       << ", \"fronts_identical\": " << (fronts_identical ? "true" : "false")
       << "}\n]\n";
  shard_json << "[\n  {\"bench\": \"campaign_shard_2worker\""
             << ", \"datasets\": " << sharded->datasets.size()
             << ", \"seeds\": " << spec.seeds.size()
             << ", \"cells\": " << sharded->runs.size()
             << ", \"workers\": 2"
             << ", \"machine_cores\": " << cores
             << ", \"serial_seconds\": " << format_double_roundtrip(cold_seconds)
             << ", \"two_worker_seconds\": " << format_double_roundtrip(shard_seconds)
             << ", \"speedup_two_worker_vs_serial\": "
             << format_double_roundtrip(shard_speedup)
             << ", \"serial_misses\": " << serial_misses
             << ", \"two_worker_misses\": " << shard_misses
             << ", \"duplicate_store_records\": " << duplicates
             << ", \"fronts_identical\": " << (shard_identical ? "true" : "false")
             << "}\n]\n";
  std::cout << "(wrote BENCH_campaign.json, BENCH_shard.json)\n";

  if (!fronts_identical) {
    std::cerr << "FAIL: warm fronts differ from cold fronts\n";
    return 1;
  }
  if (!warm_no_misses || !warm_has_hits) {
    std::cerr << "FAIL: warm run was not served from the store ("
              << warm.total_cache_hits() << " hits, " << warm.total_cache_misses()
              << " misses)\n";
    return 1;
  }
  if (!shard_identical) {
    std::cerr << "FAIL: 2-worker merged fronts differ from the serial run\n";
    return 1;
  }
  if (duplicates != 0) {
    std::cerr << "FAIL: " << duplicates
              << " duplicate evaluation record(s) in the shared store\n";
    return 1;
  }
  if (!no_duplicate_evals) {
    std::cerr << "FAIL: workers evaluated " << shard_misses
              << " genomes fresh, serial evaluated " << serial_misses
              << " — a cell ran twice or a claim leaked\n";
    return 1;
  }
  return 0;
}
