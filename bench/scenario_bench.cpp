/// \file scenario_bench.cpp
/// \brief Scenario-matrix benchmark and triple gate: runs a small but
///        real grid (UCI analog + synthetic sweep point, default + wide
///        topology, with drift perturbations) and records the verified
///        measurements in BENCH_scenario.json.
///
/// Three invariants are measured, not assumed; exit status is nonzero —
/// CI red — when any fails, so the committed record is always verified:
///
///   1. proxy fidelity — on every *gated* (small-topology) cell, the
///      worst relative proxy-vs-netlist area delta across the final front
///      stays within ScenarioSpec::fidelity_tolerance.  The wide-topology
///      cells are recorded ungated: their deltas land in the JSON as a
///      tracked baseline, not a gate.
///   2. drift determinism — the grid is run again against the warm store
///      and the drift-robustness report (plus the whole grid JSON) must
///      be byte-identical to the cold run's.
///   3. duplicate-free sharding — two real worker processes drain the
///      same grid into a fresh shared store; the collected grid must be
///      byte-identical to the serial run's, the store must hold zero
///      duplicate evaluation records, and the workers' total fresh
///      evaluations must equal the serial run's.

#include <chrono>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <optional>
#include <string>
#include <utility>

#include "common.hpp"
#include "pnm/core/scenario.hpp"
#include "pnm/util/fileio.hpp"

namespace {

pnm::ScenarioSpec bench_spec(const std::string& store_dir) {
  pnm::ScenarioSpec spec;
  // One paper analog plus one synthetic-sweep point of similar size; the
  // default printed-scale topology (gated) and a wider/deeper one (24-16,
  // above the 16-wide gate threshold -> recorded ungated).
  spec.datasets = {"seeds", "synth:f8:c3:n600:sep2:ord0:k1:ln0.05"};
  spec.topologies = {{}, {24, 16}};
  spec.base.train.epochs = 20;
  spec.base.finetune_epochs = 5;
  spec.ga.population = 10;
  spec.ga.generations = 4;
  spec.drifts = {
      {"noise", /*feature_noise=*/0.05, /*class_prior_shift=*/0.0, /*seed=*/11},
      {"shift", /*feature_noise=*/0.0, /*class_prior_shift=*/0.3, /*seed=*/12},
  };
  spec.store_dir = store_dir;
  return spec;
}

/// Worst ungated fidelity delta — the tracked-not-gated baseline number.
double max_ungated_rel_delta(const pnm::ScenarioResult& result) {
  double max_delta = 0.0;
  for (const pnm::ScenarioCellResult& c : result.cells) {
    if (!c.fidelity_gated && c.fidelity_max_rel_delta > max_delta) {
      max_delta = c.fidelity_max_rel_delta;
    }
  }
  return max_delta;
}

}  // namespace

int main() {
  using namespace pnm;

  const std::string serial_store = "scenario_bench_store_serial";
  const std::string shard_store = "scenario_bench_store_2worker";
  std::error_code ec;
  std::filesystem::remove_all(serial_store, ec);
  std::filesystem::remove_all(shard_store, ec);

  // Cold serial reference: every cell in this process.
  std::string serial_grid;
  std::string serial_drift;
  std::size_t serial_misses = 0;
  std::size_t gated_cells = 0;
  std::size_t total_cells = 0;
  double gated_delta = 0.0;
  double ungated_delta = 0.0;
  std::size_t violations = 0;
  double tolerance = 0.0;
  double serial_seconds = 0.0;
  {
    const auto start = std::chrono::steady_clock::now();
    ScenarioRunner runner(bench_spec(serial_store));
    const ScenarioResult serial = runner.run();
    serial_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
            .count();
    serial_grid = serial.grid_json();
    serial_drift = serial.drift_report();
    serial_misses = serial.total_cache_misses();
    total_cells = serial.cells.size();
    for (const ScenarioCellResult& c : serial.cells) gated_cells += c.fidelity_gated;
    gated_delta = serial.max_gated_rel_delta();
    ungated_delta = max_ungated_rel_delta(serial);
    tolerance = runner.spec().fidelity_tolerance;
    violations = serial.fidelity_violations(tolerance);
  }
  std::cout << "-- serial cold: " << serial_seconds << " s, " << serial_misses
            << " fresh evaluations, " << gated_cells << "/" << total_cells
            << " gated cells, max gated fidelity delta " << gated_delta
            << " (tolerance " << tolerance << "), max ungated " << ungated_delta
            << " --\n";

  // Warm rerun against the same store: the drift pass (and the whole
  // grid) must reproduce byte-identically, with zero fresh evaluations.
  std::string warm_grid;
  std::string warm_drift;
  std::size_t warm_misses = 0;
  double warm_seconds = 0.0;
  {
    const auto start = std::chrono::steady_clock::now();
    const ScenarioResult warm = ScenarioRunner(bench_spec(serial_store)).run();
    warm_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
            .count();
    warm_grid = warm.grid_json();
    warm_drift = warm.drift_report();
    warm_misses = warm.total_cache_misses();
  }
  const bool drift_deterministic = (warm_drift == serial_drift);
  const bool grid_deterministic = (warm_grid == serial_grid);
  std::cout << "-- warm rerun: " << warm_seconds << " s, " << warm_misses
            << " fresh evaluations, drift report byte-identical: "
            << (drift_deterministic ? "yes" : "NO (BUG)") << " --\n";

  // Two worker processes drain the same grid into one fresh shared store,
  // claiming cells dynamically (no static shard) to exercise the
  // work-queue path.  No runner, and so no thread pool, is alive here.
  const auto shard_start = std::chrono::steady_clock::now();
  const bool workers_ok = run_worker_processes(2, [&](std::size_t j) {
    ScenarioSpec spec = bench_spec(shard_store);
    spec.writer_id = j;  // preferred store segment (probing makes any id safe)
    ScenarioRunner(std::move(spec)).run_worker();
    return 0;
  });
  const std::optional<ScenarioResult> sharded =
      workers_ok ? collect_scenario(bench_spec(shard_store)) : std::nullopt;
  const double shard_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - shard_start)
          .count();
  if (!sharded) {
    std::cerr << "FAIL: "
              << (workers_ok ? "collect found missing/stale cells"
                             : "a worker process exited abnormally")
              << "\n";
    return 1;
  }

  const std::string shard_grid = sharded->grid_json();
  const std::size_t shard_misses = sharded->total_cache_misses();
  const std::size_t duplicates = bench::store_duplicates(shard_store);
  const bool shard_identical = (shard_grid == serial_grid);
  const bool no_duplicate_evals = (shard_misses == serial_misses);
  const std::size_t cores = bench::machine_cores();

  std::cout << "-- 2-worker: " << shard_seconds << " s, " << shard_misses
            << " fresh evaluations across both workers --\n"
            << "  grid byte-identical to serial: "
            << (shard_identical ? "yes" : "NO (BUG)") << '\n'
            << "  duplicate records in shared store: " << duplicates << '\n';

  std::ofstream json("BENCH_scenario.json");
  if (!json) {
    std::cerr << "error: cannot write BENCH_scenario.json\n";
    return 1;
  }
  json << "[\n  {\"bench\": \"scenario_matrix_2x2\""
       << ", \"cells\": " << total_cells
       << ", \"gated_cells\": " << gated_cells
       << ", \"drifts\": 2"
       << ", \"machine_cores\": " << cores
       << ", \"serial_seconds\": " << format_double_roundtrip(serial_seconds)
       << ", \"warm_seconds\": " << format_double_roundtrip(warm_seconds)
       << ", \"two_worker_seconds\": " << format_double_roundtrip(shard_seconds)
       << ", \"serial_misses\": " << serial_misses
       << ", \"warm_misses\": " << warm_misses
       << ", \"two_worker_misses\": " << shard_misses
       << ", \"duplicate_store_records\": " << duplicates
       << ", \"fidelity_tolerance\": " << format_double_roundtrip(tolerance)
       << ", \"max_gated_rel_delta\": " << json_number(gated_delta)
       << ", \"max_ungated_rel_delta\": " << json_number(ungated_delta)
       << ", \"fidelity_violations\": " << violations
       << ", \"drift_report_deterministic\": "
       << (drift_deterministic ? "true" : "false")
       << ", \"grid_deterministic\": " << (grid_deterministic ? "true" : "false")
       << ", \"shard_grid_identical\": " << (shard_identical ? "true" : "false")
       << "}\n]\n";
  std::cout << "(wrote BENCH_scenario.json)\n";

  if (violations != 0) {
    std::cerr << "FAIL: " << violations << " gated cell(s) exceed the proxy-"
              << "fidelity tolerance " << tolerance << " (max gated delta "
              << gated_delta << ")\n";
    return 1;
  }
  if (!drift_deterministic || !grid_deterministic) {
    std::cerr << "FAIL: warm rerun produced a different "
              << (drift_deterministic ? "grid JSON" : "drift report") << '\n';
    return 1;
  }
  if (warm_misses != 0) {
    std::cerr << "FAIL: warm rerun evaluated " << warm_misses
              << " genome(s) fresh — the store resume guarantee broke\n";
    return 1;
  }
  if (!shard_identical) {
    std::cerr << "FAIL: 2-worker collected grid differs from the serial run\n";
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
