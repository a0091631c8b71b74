/// Tests for the multi-dataset GA campaign runner: spec validation,
/// config fingerprints, report rendering, the resume guarantee — a warm
/// rerun against a populated store produces byte-identical Pareto fronts
/// while re-evaluating zero previously-seen genomes — and the campaign's
/// use of the cell scheduler: cell-result round-trips, worker passes, and
/// worker processes matching a serial run (the scheduler's own claim
/// lifecycle is tested in core_cell_queue_test).

#include "pnm/core/campaign.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <optional>
#include <string>
#include <utility>

#include "pnm/core/eval_store.hpp"

namespace pnm {
namespace {

/// Tiny-but-real campaign spec: small models, short training, small GA.
CampaignSpec tiny_spec() {
  CampaignSpec spec;
  spec.datasets = {"seeds"};
  spec.seeds = {5};
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

TEST(Campaign, SpecValidation) {
  CampaignSpec spec = tiny_spec();
  spec.datasets = {};
  EXPECT_THROW(CampaignRunner{spec}, std::invalid_argument);
  spec = tiny_spec();
  spec.datasets = {"seeds", "seeds"};
  EXPECT_THROW(CampaignRunner{spec}, std::invalid_argument);
  spec = tiny_spec();
  spec.seeds = {};
  EXPECT_THROW(CampaignRunner{spec}, std::invalid_argument);
  spec = tiny_spec();
  spec.seeds = {3, 3};
  EXPECT_THROW(CampaignRunner{spec}, std::invalid_argument);
  spec = tiny_spec();
  spec.ga.population = 1;  // GaConfig::validate rejects
  EXPECT_THROW(CampaignRunner{spec}, std::invalid_argument);
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
}

TEST(Campaign, WarmRerunIsByteIdenticalAndFullyCached) {
  CampaignSpec spec = tiny_spec();
  spec.datasets = {"seeds", "redwine"};
  spec.store_dir = fresh_store_dir("warm");

  CampaignResult cold = CampaignRunner(spec).run();
  ASSERT_EQ(cold.runs.size(), 2u);
  EXPECT_GT(cold.total_cache_misses(), 0u);  // everything evaluated fresh
  EXPECT_EQ(cold.total_store_loaded(), 0u);
  for (const CampaignRunResult& run : cold.runs) {
    EXPECT_FALSE(run.front.empty());
    EXPECT_GT(run.distinct_evaluations, 0u);
  }

  // A second runner (a "new process" as far as the cache is concerned):
  // everything must come from the store.
  CampaignResult warm = CampaignRunner(spec).run();
  EXPECT_EQ(warm.total_cache_misses(), 0u);  // zero re-evaluations
  EXPECT_GT(warm.total_cache_hits(), 0u);
  EXPECT_GT(warm.total_store_loaded(), 0u);
  EXPECT_EQ(cold.fronts_json(), warm.fronts_json());  // byte-identical
  ASSERT_EQ(cold.runs.size(), warm.runs.size());
  for (std::size_t i = 0; i < cold.runs.size(); ++i) {
    EXPECT_EQ(cold.runs[i].front, warm.runs[i].front);
    EXPECT_EQ(cold.runs[i].baseline, warm.runs[i].baseline);
  }
}

TEST(Campaign, StoredRunMatchesUncachedRun) {
  // The persistence layer must be invisible in the results: a campaign
  // with a store produces exactly the bytes of one without.
  CampaignSpec stored = tiny_spec();
  stored.store_dir = fresh_store_dir("uncached_ref");
  CampaignSpec unstored = tiny_spec();
  ASSERT_TRUE(unstored.store_dir.empty());

  const CampaignResult with_store = CampaignRunner(stored).run();
  const CampaignResult without_store = CampaignRunner(unstored).run();
  EXPECT_EQ(with_store.fronts_json(), without_store.fronts_json());
  // And an unstored campaign is deterministic run to run.
  const CampaignResult again = CampaignRunner(unstored).run();
  EXPECT_EQ(without_store.fronts_json(), again.fronts_json());
}

TEST(Campaign, MergedFrontIsNonDominatedAcrossSeeds) {
  CampaignSpec spec = tiny_spec();
  spec.seeds = {5, 6};
  const CampaignResult result = CampaignRunner(spec).run();
  ASSERT_EQ(result.runs.size(), 2u);
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

TEST(Campaign, CellFingerprintSeparatesSpecs) {
  const CampaignSpec spec = tiny_spec();
  const std::string base = cell_fingerprint(spec, "seeds", 5);
  EXPECT_EQ(base, cell_fingerprint(spec, "seeds", 5));  // deterministic
  EXPECT_NE(base, cell_fingerprint(spec, "seeds", 6));
  EXPECT_NE(base, cell_fingerprint(spec, "redwine", 5));
  CampaignSpec other = tiny_spec();
  other.ga.generations += 1;
  EXPECT_NE(base, cell_fingerprint(other, "seeds", 5));
  other = tiny_spec();
  other.ga_finetune_epochs += 1;
  EXPECT_NE(base, cell_fingerprint(other, "seeds", 5));
  other = tiny_spec();
  other.base.train.epochs += 1;
  EXPECT_NE(base, cell_fingerprint(other, "seeds", 5));
}

TEST(Campaign, CellResultRoundTripsExactly) {
  CampaignRunResult run;
  run.dataset = "seeds";
  // 20 decimal digits: the full uint64 seed range must survive the
  // round trip (a rejected seed would make the cell permanently stale).
  run.seed = 18446744073709551615ULL;
  run.distinct_evaluations = 42;
  run.cache_hits = 7;
  run.cache_misses = 35;
  run.store_loaded = 3;
  run.mcm_hits = 19;
  run.mcm_misses = 23;
  run.seconds = 1.0 / 3.0;
  run.baseline.technique = "baseline";
  run.baseline.config = "b8";
  run.baseline.accuracy = 0.8571428571428571;
  run.baseline.area_mm2 = 123.456;
  DesignPoint p;
  p.technique = "ga";
  p.config = "b4,3|s20,40|c0,4";
  p.accuracy = 0.1;
  p.area_mm2 = 6.02214076e23;
  run.front = {p, run.baseline};

  const std::string text = format_cell_result(run, "fp123");
  const std::optional<CampaignRunResult> parsed = parse_cell_result(text, "fp123");
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->dataset, run.dataset);
  EXPECT_EQ(parsed->seed, run.seed);
  EXPECT_EQ(parsed->distinct_evaluations, run.distinct_evaluations);
  EXPECT_EQ(parsed->cache_hits, run.cache_hits);
  EXPECT_EQ(parsed->cache_misses, run.cache_misses);
  EXPECT_EQ(parsed->store_loaded, run.store_loaded);
  EXPECT_EQ(parsed->mcm_hits, run.mcm_hits);
  EXPECT_EQ(parsed->mcm_misses, run.mcm_misses);
  EXPECT_EQ(parsed->seconds, run.seconds);
  EXPECT_EQ(parsed->baseline, run.baseline);
  EXPECT_EQ(parsed->front, run.front);

  // A different fingerprint (spec changed) means the cell is stale.
  EXPECT_FALSE(parse_cell_result(text, "fp_other").has_value());
  // Truncation never yields a half-parsed cell.
  EXPECT_FALSE(parse_cell_result(text.substr(0, text.size() / 2), "fp123")
                   .has_value());
  EXPECT_FALSE(parse_cell_result("", "fp123").has_value());
}

TEST(Campaign, WorkerModeNeedsStoreAndValidShard) {
  CampaignSpec spec = tiny_spec();
  ASSERT_TRUE(spec.store_dir.empty());
  EXPECT_THROW(CampaignRunner(spec).run_worker(), std::invalid_argument);
  spec.store_dir = fresh_store_dir("badshard");
  EXPECT_THROW(CampaignRunner(spec).run_worker(0, 0), std::invalid_argument);
  EXPECT_THROW(CampaignRunner(spec).run_worker(2, 2), std::invalid_argument);
  EXPECT_THROW(collect_campaign(tiny_spec()), std::invalid_argument);
}

TEST(Campaign, WorkerPassesMatchSerialAndSkipDoneCells) {
  CampaignSpec spec = tiny_spec();
  spec.datasets = {"seeds", "redwine"};
  spec.store_dir = fresh_store_dir("worker");

  // First pass drains every cell; nothing is collectable before it.
  EXPECT_FALSE(collect_campaign(spec).has_value());
  const CampaignWorkerResult first = CampaignRunner(spec).run_worker();
  EXPECT_EQ(first.cells_run, 2u);
  EXPECT_EQ(first.cells_skipped_done, 0u);
  EXPECT_EQ(first.cells_skipped_claimed, 0u);
  // The on-disk layout stores written by older builds rely on.
  EXPECT_TRUE(std::filesystem::exists(spec.store_dir + "/claims/redwine_s5.claim"));
  EXPECT_TRUE(std::filesystem::exists(spec.store_dir + "/cells/redwine_s5.cell"));
  const std::optional<CampaignResult> collected = collect_campaign(spec);
  ASSERT_TRUE(collected.has_value());

  // The collected result is the serial result, byte for byte.
  CampaignSpec serial_spec = tiny_spec();
  serial_spec.datasets = {"seeds", "redwine"};
  serial_spec.store_dir = fresh_store_dir("worker_serial_ref");
  const CampaignResult serial = CampaignRunner(serial_spec).run();
  EXPECT_EQ(collected->fronts_json(), serial.fronts_json());

  // A second pass finds every cell published and runs nothing.
  const CampaignWorkerResult second = CampaignRunner(spec).run_worker();
  EXPECT_EQ(second.cells_run, 0u);
  EXPECT_EQ(second.cells_skipped_done, 2u);

  // Static sharding partitions the cells without overlap.
  CampaignSpec shard_spec = spec;
  shard_spec.store_dir = fresh_store_dir("worker_static");
  const CampaignWorkerResult shard0 = CampaignRunner(shard_spec).run_worker(0, 2);
  const CampaignWorkerResult shard1 = CampaignRunner(shard_spec).run_worker(1, 2);
  EXPECT_EQ(shard0.cells_run, 1u);
  EXPECT_EQ(shard0.cells_skipped_other_shard, 1u);
  EXPECT_EQ(shard1.cells_run, 1u);
  const std::optional<CampaignResult> sharded = collect_campaign(shard_spec);
  ASSERT_TRUE(sharded.has_value());
  EXPECT_EQ(sharded->fronts_json(), serial.fronts_json());
}

TEST(Campaign, TwoWorkerProcessesMatchSerial) {
  // The acceptance invariant at unit level: two real worker processes
  // draining one campaign produce byte-identical merged fronts to the
  // serial run, with zero duplicate evaluations in the shared store.
  CampaignSpec spec = tiny_spec();
  spec.seeds = {5, 6};  // two cells on one dataset
  spec.store_dir = fresh_store_dir("twoproc");

  ASSERT_TRUE(run_worker_processes(2, [&](std::size_t j) {
    CampaignSpec child_spec = spec;
    child_spec.writer_id = j;
    CampaignRunner(std::move(child_spec)).run_worker();
    return 0;
  }));

  const std::optional<CampaignResult> sharded = collect_campaign(spec);
  ASSERT_TRUE(sharded.has_value());
  ASSERT_EQ(sharded->runs.size(), 2u);

  CampaignSpec serial_spec = spec;
  serial_spec.store_dir.clear();  // persistence-free reference
  const CampaignResult serial = CampaignRunner(serial_spec).run();
  EXPECT_EQ(sharded->fronts_json(), serial.fronts_json());
  EXPECT_EQ(sharded->total_cache_misses(), serial.total_cache_misses());

  // Zero duplicate evaluations recorded anywhere in the shared store.
  for (const auto& entry :
       std::filesystem::directory_iterator(spec.store_dir)) {
    if (!entry.is_directory()) continue;
    const std::string name = entry.path().filename().string();
    if (name == "cells" || name == "claims") continue;
    EXPECT_EQ(EvalStore::count_duplicate_records(entry.path().string()), 0u)
        << entry.path();
  }
}

TEST(Campaign, ReportsNameDatasetsAndStats) {
  CampaignSpec spec = tiny_spec();
  const CampaignResult result = CampaignRunner(spec).run();
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
}

/// With MCM sharing on, every netlist front re-evaluation consults the
/// plan cache, so a cell's hit/miss deltas must record activity; the
/// totals and hit rate must be visible in both report renderings.
TEST(Campaign, McmPlanCacheCountersRecordWithSharingEnabled) {
  CampaignSpec spec = tiny_spec();
  spec.base.bespoke.share_subexpressions = true;
  const CampaignResult result = CampaignRunner(spec).run();
  ASSERT_EQ(result.runs.size(), 1u);
  const CampaignRunResult& run = result.runs[0];
  // Other tests may have pre-warmed the process-wide plan cache, so the
  // hit/miss split is order-dependent — but the cell must have looked
  // *something* up.
  EXPECT_GT(run.mcm_hits + run.mcm_misses, 0u);
  EXPECT_EQ(result.total_mcm_hits(), run.mcm_hits);
  EXPECT_EQ(result.total_mcm_misses(), run.mcm_misses);
  const double rate = result.mcm_plan_hit_rate();
  EXPECT_GE(rate, 0.0);
  EXPECT_LE(rate, 1.0);
  EXPECT_NE(result.report_json().find("\"mcm_plan_hit_rate\""), std::string::npos);
  EXPECT_NE(result.report_markdown().find("MCM plan cache:"), std::string::npos);

  // Sharing off: the plan cache is never consulted, counters stay 0.
  const CampaignResult off = CampaignRunner(tiny_spec()).run();
  ASSERT_EQ(off.runs.size(), 1u);
  EXPECT_EQ(off.runs[0].mcm_hits + off.runs[0].mcm_misses, 0u);
}

}  // namespace
}  // namespace pnm
