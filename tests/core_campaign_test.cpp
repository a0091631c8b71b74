/// Tests for GA campaigns — one-axis scenario grids with the fidelity pass
/// off, run by the cell runner (ScenarioRunner): spec validation, eval
/// fingerprints, report rendering, the resume guarantee (a warm rerun
/// against a populated store produces byte-identical Pareto fronts while
/// re-evaluating zero previously-seen genomes, including against a store
/// an earlier build wrote), and the campaign's use of the cell scheduler:
/// worker passes and worker processes matching a serial run, the latter
/// also on a reference grid with the fidelity gate and drifts, and worker
/// processes SIGKILLed mid-run leaving a store that one more pass completes
/// to the serial bytes (the scheduler's own claim lifecycle is tested in
/// core_cell_queue_test).

#include "pnm/core/campaign.hpp"

#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <filesystem>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "pnm/core/eval_store.hpp"
#include "pnm/core/scenario.hpp"
#include "pnm/util/fileio.hpp"
#include "pnm/util/rng.hpp"

namespace pnm {
namespace {

/// Tiny-but-real campaign: small models, short training, small GA, and
/// a campaign's axes (default topology, 4-bit inputs, egt, no drifts, no
/// fidelity pass).
ScenarioSpec tiny_spec() {
  ScenarioSpec spec;
  spec.datasets = {"seeds"};
  spec.seeds = {5};
  spec.fidelity = false;
  spec.base.train.epochs = 12;
  spec.base.finetune_epochs = 3;
  spec.ga_finetune_epochs = 1;
  spec.ga.population = 8;
  spec.ga.generations = 3;
  return spec;
}

/// Fresh store directory under the test temp dir.
std::string fresh_store_dir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "pnm_campaign_" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

/// Duplicate evaluation records summed over every eval store of a
/// scenario store directory (the cell claim/result folders hold none).
std::size_t store_duplicates(const std::string& store_dir) {
  std::size_t duplicates = 0;
  for (const auto& entry : std::filesystem::directory_iterator(store_dir)) {
    const std::string name = entry.path().filename().string();
    if (!entry.is_directory() || name == "scells" || name == "sclaims") continue;
    duplicates += EvalStore::count_duplicate_records(entry.path().string());
  }
  return duplicates;
}

TEST(Campaign, SpecValidation) {
  ScenarioSpec spec = tiny_spec();
  spec.datasets = {};
  EXPECT_THROW(ScenarioRunner{spec}, std::invalid_argument);
  spec = tiny_spec();
  spec.datasets = {"seeds", "seeds"};
  EXPECT_THROW(ScenarioRunner{spec}, std::invalid_argument);
  spec = tiny_spec();
  spec.seeds = {};
  EXPECT_THROW(ScenarioRunner{spec}, std::invalid_argument);
  spec = tiny_spec();
  spec.seeds = {3, 3};
  EXPECT_THROW(ScenarioRunner{spec}, std::invalid_argument);
  spec = tiny_spec();
  spec.ga.population = 1;  // GaConfig::validate rejects
  EXPECT_THROW(ScenarioRunner{spec}, std::invalid_argument);
}

TEST(Campaign, FingerprintSeparatesConfigsAndBackends) {
  FlowConfig flow;
  flow.dataset_name = "seeds";
  EvalConfig eval;
  const std::string base = eval_fingerprint(flow, eval, "proxy");
  EXPECT_EQ(base, eval_fingerprint(flow, eval, "proxy"));  // deterministic
  EXPECT_NE(base, eval_fingerprint(flow, eval, "netlist"));
  FlowConfig other_data = flow;
  other_data.dataset_name = "redwine";
  EXPECT_NE(base, eval_fingerprint(other_data, eval, "proxy"));
  FlowConfig other_seed = flow;
  other_seed.seed += 1;
  EXPECT_NE(base, eval_fingerprint(other_seed, eval, "proxy"));
  EvalConfig other_eval = eval;
  other_eval.finetune_epochs += 1;
  EXPECT_NE(base, eval_fingerprint(flow, other_eval, "proxy"));
  EvalConfig test_split = eval;
  test_split.use_test_set = true;
  EXPECT_NE(base, eval_fingerprint(flow, test_split, "proxy"));
  // Defaulted hidden widths fingerprint like the explicit default.
  FlowConfig explicit_hidden = flow;
  explicit_hidden.hidden = MinimizationFlow::default_hidden("seeds");
  EXPECT_EQ(base, eval_fingerprint(explicit_hidden, eval, "proxy"));

  // Every other hashed field: one mutation each must move the fingerprint.
  const auto flow_moves = [&](const char* field, auto mutate) {
    FlowConfig changed = flow;
    mutate(changed);
    EXPECT_NE(base, eval_fingerprint(changed, eval, "proxy")) << field;
  };
  flow_moves("tech", [](FlowConfig& f) { f.tech_name = "egt_lowcost"; });
  flow_moves("hidden", [](FlowConfig& f) {
    f.hidden = MinimizationFlow::default_hidden("seeds");
    f.hidden.back() += 1;
  });
  flow_moves("epochs", [](FlowConfig& f) { f.train.epochs += 1; });
  flow_moves("lr", [](FlowConfig& f) { f.train.lr *= 2.0; });
  const auto eval_moves = [&](const char* field, auto mutate) {
    EvalConfig changed = eval;
    mutate(changed);
    EXPECT_NE(base, eval_fingerprint(flow, changed, "proxy")) << field;
  };
  eval_moves("eval_seed", [](EvalConfig& e) { e.seed += 1; });
  eval_moves("input_bits", [](EvalConfig& e) { e.input_bits += 1; });
  eval_moves("cluster_scope", [](EvalConfig& e) {
    e.cluster_scope = e.cluster_scope == ClusterScope::kPerLayer ? ClusterScope::kPerColumn
                                                                 : ClusterScope::kPerLayer;
  });
  eval_moves("share_when_clustered",
             [](EvalConfig& e) { e.share_only_when_clustered = !e.share_only_when_clustered; });
  eval_moves("share_products",
             [](EvalConfig& e) { e.bespoke.share_products = !e.bespoke.share_products; });
  eval_moves("use_csd", [](EvalConfig& e) { e.bespoke.use_csd = !e.bespoke.use_csd; });
  eval_moves("share_subexpr", [](EvalConfig& e) {
    e.bespoke.share_subexpressions = !e.bespoke.share_subexpressions;
  });
}

TEST(Campaign, WarmRerunIsByteIdenticalAndFullyCached) {
  ScenarioSpec spec = tiny_spec();
  spec.datasets = {"seeds", "redwine"};
  spec.store_dir = fresh_store_dir("warm");

  ScenarioResult cold = ScenarioRunner(spec).run();
  ASSERT_EQ(cold.cells.size(), 2u);
  EXPECT_GT(cold.total_cache_misses(), 0u);  // everything evaluated fresh
  EXPECT_EQ(cold.total_store_loaded(), 0u);
  for (const ScenarioCellResult& cell : cold.cells) {
    EXPECT_FALSE(cell.front.empty());
    EXPECT_GT(cell.distinct_evaluations, 0u);
  }

  // A second runner (a "new process" as far as the cache is concerned):
  // everything must come from the store.
  ScenarioResult warm = ScenarioRunner(spec).run();
  EXPECT_EQ(warm.total_cache_misses(), 0u);  // zero re-evaluations
  EXPECT_GT(warm.total_cache_hits(), 0u);
  EXPECT_GT(warm.total_store_loaded(), 0u);
  EXPECT_EQ(cold.fronts_json(), warm.fronts_json());  // byte-identical
  ASSERT_EQ(cold.cells.size(), warm.cells.size());
  for (std::size_t i = 0; i < cold.cells.size(); ++i) {
    EXPECT_EQ(cold.cells[i].front, warm.cells[i].front);
    EXPECT_EQ(cold.cells[i].baseline, warm.cells[i].baseline);
  }
}

TEST(Campaign, StoreWrittenByEarlierBuildStaysWarm) {
  // tests/data holds the two eval stores and the fronts.json that an
  // earlier build's campaign CLI wrote for tiny_spec(): datasets seeds,
  // seeds 5, pop 8, gens 3, train_epochs 12, finetune 3, ga_finetune 1,
  // fidelity off.  The runner must find both stores under their
  // <dataset>_s<seed>_<tag>_<fp> names, evaluate nothing, write no new
  // store, and render the same fronts bytes — pinning the stem rule, the
  // fingerprints and the fronts rendering across versions.
  const std::string data = PNM_TEST_DATA_DIR;
  const std::string store = fresh_store_dir("earlier_store");
  std::filesystem::copy(data + "/campaign_store", store,
                        std::filesystem::copy_options::recursive);
  std::size_t stores_before = 0;
  for (const auto& entry : std::filesystem::directory_iterator(store)) {
    stores_before += entry.is_directory() ? 1 : 0;
  }
  ASSERT_EQ(stores_before, 2u);

  ScenarioSpec spec = tiny_spec();
  spec.store_dir = store;
  const ScenarioResult warm = ScenarioRunner(spec).run();
  EXPECT_EQ(warm.total_cache_misses(), 0u);
  EXPECT_GT(warm.total_cache_hits(), 0u);
  std::size_t stores_after = 0;
  for (const auto& entry : std::filesystem::directory_iterator(store)) {
    stores_after += entry.is_directory() ? 1 : 0;
  }
  EXPECT_EQ(stores_after, stores_before);
  const std::optional<std::string> fronts =
      read_text_file(data + "/campaign_seeds_s5.fronts.json");
  ASSERT_TRUE(fronts.has_value());
  EXPECT_EQ(warm.fronts_json(), *fronts);
  // The cell's .scell stamp is pinned the same way, so its published
  // result stays done too.
  EXPECT_EQ(spec.fingerprint(spec.expand().front()), "5c6d2a65b691c19b");
}

TEST(Campaign, StoredRunMatchesUncachedRun) {
  // The persistence layer must be invisible in the results: a campaign
  // with a store produces exactly the bytes of one without.
  ScenarioSpec stored = tiny_spec();
  stored.store_dir = fresh_store_dir("uncached_ref");
  ScenarioSpec unstored = tiny_spec();
  ASSERT_TRUE(unstored.store_dir.empty());

  const ScenarioResult with_store = ScenarioRunner(stored).run();
  const ScenarioResult without_store = ScenarioRunner(unstored).run();
  EXPECT_EQ(with_store.fronts_json(), without_store.fronts_json());
  // And an unstored campaign is deterministic run to run.
  const ScenarioResult again = ScenarioRunner(unstored).run();
  EXPECT_EQ(without_store.fronts_json(), again.fronts_json());
}

TEST(Campaign, MergedFrontIsNonDominatedAcrossSeeds) {
  ScenarioSpec spec = tiny_spec();
  spec.seeds = {5, 6};
  const ScenarioResult result = ScenarioRunner(spec).run();
  ASSERT_EQ(result.cells.size(), 2u);
  const std::vector<DesignPoint> merged = result.merged_front("seeds");
  ASSERT_FALSE(merged.empty());
  for (std::size_t i = 1; i < merged.size(); ++i) {
    EXPECT_GE(merged[i].area_mm2, merged[i - 1].area_mm2);  // ascending area
  }
  for (std::size_t i = 0; i < merged.size(); ++i) {
    for (std::size_t j = 0; j < merged.size(); ++j) {
      if (i != j) {
        EXPECT_FALSE(dominates(merged[i], merged[j]));
      }
    }
  }
  EXPECT_TRUE(result.merged_front("no_such_dataset").empty());
}

TEST(Campaign, WorkerModeNeedsStoreAndValidShard) {
  ScenarioSpec spec = tiny_spec();
  ASSERT_TRUE(spec.store_dir.empty());
  EXPECT_THROW(ScenarioRunner(spec).run_worker(), std::invalid_argument);
  spec.store_dir = fresh_store_dir("badshard");
  EXPECT_THROW(ScenarioRunner(spec).run_worker(0, 0), std::invalid_argument);
  EXPECT_THROW(ScenarioRunner(spec).run_worker(2, 2), std::invalid_argument);
  EXPECT_THROW(collect_scenario(tiny_spec()), std::invalid_argument);
}

TEST(Campaign, WorkerPassesMatchSerialAndSkipDoneCells) {
  ScenarioSpec spec = tiny_spec();
  spec.datasets = {"seeds", "redwine"};
  spec.store_dir = fresh_store_dir("worker");

  // First pass drains every cell; nothing is collectable before it.
  EXPECT_FALSE(collect_scenario(spec).has_value());
  const CampaignWorkerResult first = ScenarioRunner(spec).run_worker();
  EXPECT_EQ(first.cells_run, 2u);
  EXPECT_EQ(first.cells_skipped_done, 0u);
  EXPECT_EQ(first.cells_skipped_claimed, 0u);
  // Campaign cells use the one cell layout.
  const std::string id = spec.expand().back().id();
  EXPECT_EQ(id, "redwine__hdef__b4__egt__s5");
  EXPECT_TRUE(std::filesystem::exists(spec.store_dir + "/sclaims/" + id + ".claim"));
  EXPECT_TRUE(std::filesystem::exists(spec.store_dir + "/scells/" + id + ".scell"));
  const std::optional<ScenarioResult> collected = collect_scenario(spec);
  ASSERT_TRUE(collected.has_value());

  // The collected result is the serial result, byte for byte.
  ScenarioSpec serial_spec = tiny_spec();
  serial_spec.datasets = {"seeds", "redwine"};
  serial_spec.store_dir = fresh_store_dir("worker_serial_ref");
  const ScenarioResult serial = ScenarioRunner(serial_spec).run();
  EXPECT_EQ(collected->fronts_json(), serial.fronts_json());

  // A second pass finds every cell published and runs nothing.
  const CampaignWorkerResult second = ScenarioRunner(spec).run_worker();
  EXPECT_EQ(second.cells_run, 0u);
  EXPECT_EQ(second.cells_skipped_done, 2u);

  // Static sharding partitions the cells without overlap.
  ScenarioSpec shard_spec = spec;
  shard_spec.store_dir = fresh_store_dir("worker_static");
  const CampaignWorkerResult shard0 = ScenarioRunner(shard_spec).run_worker(0, 2);
  const CampaignWorkerResult shard1 = ScenarioRunner(shard_spec).run_worker(1, 2);
  EXPECT_EQ(shard0.cells_run, 1u);
  EXPECT_EQ(shard0.cells_skipped_other_shard, 1u);
  EXPECT_EQ(shard1.cells_run, 1u);
  const std::optional<ScenarioResult> sharded = collect_scenario(shard_spec);
  ASSERT_TRUE(sharded.has_value());
  EXPECT_EQ(sharded->fronts_json(), serial.fronts_json());
}

/// One input of the two-process test: a spec (store_dir unset) and how
/// many of its cells the fidelity gate covers.
struct TwoProcessCase {
  const char* name;
  ScenarioSpec (*spec)();
  std::size_t gated_cells;
};

ScenarioSpec two_seed_campaign() {  // two cells on one dataset
  ScenarioSpec spec = tiny_spec();
  spec.seeds = {5, 6};
  return spec;
}

/// The reference grid: a paper analog and a synthetic-sweep point of
/// similar size, each at its default printed-scale topology (gated) and
/// a wider/deeper one (24-16, above the 16-wide gate -> recorded
/// ungated), with the fidelity pass and two drifts.
ScenarioSpec fidelity_drift_grid() {
  ScenarioSpec spec;
  spec.datasets = {"seeds", "synth:f8:c3:n600:sep2:ord0:k1:ln0.05"};
  spec.topologies = {{}, {24, 16}};
  spec.base.train.epochs = 20;
  spec.base.finetune_epochs = 5;
  spec.ga.population = 10;
  spec.ga.generations = 4;
  spec.drifts = {{"noise", 0.05, 0.0, 11}, {"shift", 0.0, 0.3, 12}};
  return spec;
}

class TwoWorkerProcessesMatchSerial : public ::testing::TestWithParam<TwoProcessCase> {};

TEST_P(TwoWorkerProcessesMatchSerial, AndKeepEveryGate) {
  // Two real worker processes draining one spec match a serial run byte
  // for byte with zero duplicate evaluations; a warm rerun evaluates
  // nothing; the gated fidelity deltas stay within tolerance.
  const TwoProcessCase& param = GetParam();
  ScenarioSpec spec = param.spec();
  spec.store_dir = fresh_store_dir(std::string("twoproc_") + param.name);

  ASSERT_TRUE(run_worker_processes(2, [&](std::size_t) {
    ScenarioRunner(spec).run_worker();
    return 0;
  }));
  const std::optional<ScenarioResult> sharded = collect_scenario(spec);
  ASSERT_TRUE(sharded.has_value());
  ASSERT_EQ(sharded->cells.size(), spec.expand().size());

  ScenarioSpec serial_spec = spec;
  serial_spec.store_dir = fresh_store_dir(std::string("twoproc_serial_") + param.name);
  const ScenarioResult serial = ScenarioRunner(serial_spec).run();
  EXPECT_EQ(sharded->fronts_json(), serial.fronts_json());
  EXPECT_EQ(sharded->grid_json(), serial.grid_json());
  EXPECT_EQ(sharded->drift_report(), serial.drift_report());
  EXPECT_EQ(sharded->total_cache_misses(), serial.total_cache_misses());

  // Zero duplicate evaluations recorded anywhere in the shared store.
  EXPECT_EQ(store_duplicates(spec.store_dir), 0u);

  const ScenarioResult warm = ScenarioRunner(serial_spec).run();
  EXPECT_EQ(warm.total_cache_misses(), 0u);
  EXPECT_EQ(warm.grid_json(), serial.grid_json());
  EXPECT_EQ(warm.drift_report(), serial.drift_report());

  std::size_t gated = 0;
  for (const ScenarioCellResult& cell : serial.cells) gated += cell.fidelity_gated;
  EXPECT_EQ(gated, param.gated_cells);
  EXPECT_EQ(serial.fidelity_violations(), 0u)
      << "max gated delta " << serial.max_gated_rel_delta() << ", tolerance "
      << kFidelityTolerance;
}

INSTANTIATE_TEST_SUITE_P(
    Campaign, TwoWorkerProcessesMatchSerial,
    ::testing::Values(TwoProcessCase{"two_seed_campaign", two_seed_campaign, 0},
                      TwoProcessCase{"fidelity_drift_grid", fidelity_drift_grid, 2}),
    [](const ::testing::TestParamInfo<TwoProcessCase>& info) {
      return std::string(info.param.name);
    });

TEST(Campaign, KilledWorkerProcessesLeaveACompletableStore) {
  // Crash consistency: in each seeded trial two worker processes drain the
  // reference grid over a fresh store and are SIGKILLed after delays drawn
  // below half the serial run's wall time (two workers split the cells, so
  // most kills land mid-run).  One more worker pass then finishes whatever
  // they left, and the collected reports equal the serial run's bytes with
  // no evaluation recorded twice.
  ScenarioSpec serial_spec = fidelity_drift_grid();
  serial_spec.store_dir = fresh_store_dir("kill_serial");
  const auto serial_start = std::chrono::steady_clock::now();
  const ScenarioResult serial = ScenarioRunner(serial_spec).run();
  const std::chrono::duration<double> serial_wall =
      std::chrono::steady_clock::now() - serial_start;

  constexpr int kTrials = 5;
  Rng rng(2026);
  int killed_children = 0, trials_with_kill = 0;
  for (int trial = 0; trial < kTrials; ++trial) {
    ScenarioSpec spec = fidelity_drift_grid();
    spec.store_dir = fresh_store_dir("kill_" + std::to_string(trial));
    // (delay, pid) per worker, killed in delay order.
    std::vector<std::pair<std::chrono::duration<double>, pid_t>> workers;
    std::fflush(nullptr);  // or the children would repeat buffered output
    const auto start = std::chrono::steady_clock::now();
    for (int w = 0; w < 2; ++w) {
      const pid_t pid = fork();
      ASSERT_GE(pid, 0);
      if (pid == 0) {
        int status = 1;
        try {
          ScenarioRunner(spec).run_worker();
          status = 0;
        } catch (...) {
        }
        _exit(status);
      }
      workers.emplace_back(serial_wall * rng.uniform(0.0, 0.5), pid);
    }
    std::sort(workers.begin(), workers.end());
    int killed = 0;
    for (const auto& [delay, pid] : workers) {
      std::this_thread::sleep_until(start + delay);
      kill(pid, SIGKILL);
      int status = 0;
      ASSERT_EQ(waitpid(pid, &status, 0), pid);
      if (WIFSIGNALED(status)) {
        ++killed;
      } else {
        EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0) << "worker failed";
      }
    }
    killed_children += killed;
    trials_with_kill += killed > 0 ? 1 : 0;

    // A killed worker's claims died with it: this pass runs its cells.
    ScenarioRunner(spec).run_worker();
    const std::optional<ScenarioResult> collected = collect_scenario(spec);
    ASSERT_TRUE(collected.has_value()) << "trial " << trial;
    EXPECT_EQ(collected->grid_json(), serial.grid_json()) << "trial " << trial;
    EXPECT_EQ(collected->drift_report(), serial.drift_report()) << "trial " << trial;
    EXPECT_EQ(collected->fronts_json(), serial.fronts_json()) << "trial " << trial;
    EXPECT_EQ(store_duplicates(spec.store_dir), 0u) << "trial " << trial;
  }
  std::printf("killed %d worker(s); %d/%d trials killed at least one\n", killed_children,
              trials_with_kill, kTrials);
  RecordProperty("trials_with_kill", trials_with_kill);
  EXPECT_GE(killed_children, 1) << "no worker was killed, so nothing was tested";
}

TEST(Campaign, ReportsNameDatasetsAndStats) {
  ScenarioSpec spec = tiny_spec();
  const ScenarioResult result = ScenarioRunner(spec).run();
  const std::string md = result.report_markdown();
  EXPECT_NE(md.find("## seeds"), std::string::npos);
  EXPECT_NE(md.find("Merged front"), std::string::npos);
  EXPECT_NE(md.find("Evaluation cache"), std::string::npos);
  const std::string fronts = result.fronts_json();
  EXPECT_NE(fronts.find("\"dataset\": \"seeds\""), std::string::npos);
  EXPECT_NE(fronts.find("\"merged_front\""), std::string::npos);
  const std::string report = result.report_json();
  EXPECT_NE(report.find("\"total_cache_hits\""), std::string::npos);
  EXPECT_NE(report.find("\"baseline\""), std::string::npos);
  EXPECT_NE(report.find("\"merged_front\""), std::string::npos);
}

/// With MCM sharing on, every netlist front re-evaluation consults the
/// plan cache, so a cell's hit/miss deltas must record activity; the
/// totals and hit rate must be visible in both report renderings.
TEST(Campaign, McmPlanCacheCountersRecordWithSharingEnabled) {
  ScenarioSpec spec = tiny_spec();
  spec.base.bespoke.share_subexpressions = true;
  const ScenarioResult result = ScenarioRunner(spec).run();
  ASSERT_EQ(result.cells.size(), 1u);
  const ScenarioCellResult& cell = result.cells[0];
  // Other tests may have pre-warmed the process-wide plan cache, so the
  // hit/miss split is order-dependent — but the cell must have looked
  // *something* up.
  EXPECT_GT(cell.mcm_hits + cell.mcm_misses, 0u);
  EXPECT_EQ(result.total_mcm_hits(), cell.mcm_hits);
  EXPECT_EQ(result.total_mcm_misses(), cell.mcm_misses);
  const double rate = result.mcm_plan_hit_rate();
  EXPECT_GE(rate, 0.0);
  EXPECT_LE(rate, 1.0);
  EXPECT_NE(result.report_json().find("\"mcm_plan_hit_rate\""), std::string::npos);
  EXPECT_NE(result.report_markdown().find("MCM plan cache:"), std::string::npos);

  // Sharing off: the plan cache is never consulted, counters stay 0.
  const ScenarioResult off = ScenarioRunner(tiny_spec()).run();
  ASSERT_EQ(off.cells.size(), 1u);
  EXPECT_EQ(off.cells[0].mcm_hits + off.cells[0].mcm_misses, 0u);
}

}  // namespace
}  // namespace pnm
