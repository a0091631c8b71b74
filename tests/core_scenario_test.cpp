/// Tests for the cell runner's grid layer: spec validation, grid
/// expansion order, cell fingerprints separating every axis, .scell
/// round-trips, the grid-spec file parser, report rendering, a tiny
/// end-to-end grid — determinism of grid_json/drift_report across reruns,
/// warm-store resume with zero fresh evaluations, and worker/collect
/// matching the serial run — and the fidelity-off cell a campaign runs.

#include "pnm/core/scenario.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <limits>
#include <optional>
#include <string>

#include "pnm/util/fileio.hpp"

namespace pnm {
namespace {

/// Tiny-but-real scenario: one small dataset, default topology, short GA.
ScenarioSpec tiny_spec() {
  ScenarioSpec spec;
  spec.datasets = {"seeds"};
  spec.seeds = {5};
  spec.base.train.epochs = 12;
  spec.base.finetune_epochs = 3;
  spec.ga_finetune_epochs = 1;
  spec.ga.population = 8;
  spec.ga.generations = 3;
  spec.drifts = {{"noise", 0.05, 0.0, 11}, {"shift", 0.0, 0.3, 12}};
  return spec;
}

std::string fresh_store_dir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "pnm_scenario_" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

TEST(ScenarioSpec, Validation) {
  ScenarioSpec spec = tiny_spec();
  spec.datasets = {};
  EXPECT_THROW(spec.validate(), std::invalid_argument);
  spec = tiny_spec();
  spec.datasets = {"seeds", "seeds"};
  EXPECT_THROW(spec.validate(), std::invalid_argument);
  spec = tiny_spec();
  spec.datasets = {"no-such-dataset"};
  EXPECT_THROW(spec.validate(), std::invalid_argument);
  spec = tiny_spec();
  spec.datasets = {"synth:bogus"};
  EXPECT_THROW(spec.validate(), std::invalid_argument);
  spec = tiny_spec();
  spec.datasets = {"synth:f8:c3:n600:sep2:ord0:k1:ln0.05"};  // valid token
  EXPECT_NO_THROW(spec.validate());
  // Two spellings of one synthetic config generate the same data: one
  // search twice, into two stores.
  for (const char* same : {"synth:f8:c3:n600:sep2:ord0:k1:ln0.050",
                           "synth:f08:c3:n600:sep2:ord0:k1:ln0.05",
                           "synth:f8:c3:n600:sep2.0:ord0:k1:ln0.05",
                           "synth:f8:c3:n600:sep2:ord0:k1:ln5e-2"}) {
    spec.datasets = {"synth:f8:c3:n600:sep2:ord0:k1:ln0.05", same};
    EXPECT_THROW(spec.validate(), std::invalid_argument) << same;
  }
  spec.datasets = {"synth:f8:c3:n600:sep2:ord0:k1:ln0.05",
                   "synth:f8:c3:n600:sep2:ord0:k1:ln0.1"};
  EXPECT_NO_THROW(spec.validate());
  // The 0.6/0.2/0.2 split rounds per class: 2 samples split 1/0/0 and 3
  // split 2/1/0, so with no class of 4 validation or test stays empty and
  // every cell would train, then throw.  One large class fills both.
  for (const char* tiny : {"synth:f4:c3:n6:sep2:ord0:k1:ln0",
                           "synth:f4:c3:n9:sep2:ord0:k1:ln0",
                           "synth:f4:c3:n8:sep2:ord0:k1:ln0:w1+1+1"}) {
    spec.datasets = {tiny};
    EXPECT_THROW(spec.validate(), std::invalid_argument) << tiny;
  }
  for (const char* enough : {"synth:f4:c3:n12:sep2:ord0:k1:ln0",
                             "synth:f4:c3:n10:sep2:ord0:k1:ln0",
                             "synth:f4:c3:n11:sep2:ord0:k1:ln0:w10+1+1"}) {
    spec.datasets = {enough};
    EXPECT_NO_THROW(spec.validate()) << enough;
  }
  spec = tiny_spec();
  spec.topologies = {};
  EXPECT_THROW(spec.validate(), std::invalid_argument);
  spec = tiny_spec();
  spec.topologies = {{16, 8}, {16, 8}};
  EXPECT_THROW(spec.validate(), std::invalid_argument);
  // seeds' default topology is {4}: `default,4` is one network twice.
  // On redwine (default {6}) the same list is two networks.
  spec = tiny_spec();
  spec.topologies = {{}, {4}};
  EXPECT_THROW(spec.validate(), std::invalid_argument);
  spec.datasets = {"redwine"};
  EXPECT_NO_THROW(spec.validate());
  spec.datasets = {"redwine", "seeds"};
  EXPECT_THROW(spec.validate(), std::invalid_argument);
  spec = tiny_spec();
  spec.topologies = {{8, 0}};
  EXPECT_THROW(spec.validate(), std::invalid_argument);
  spec = tiny_spec();
  spec.input_bits = {0};
  EXPECT_THROW(spec.validate(), std::invalid_argument);
  spec = tiny_spec();
  spec.input_bits = {4, 4};
  EXPECT_THROW(spec.validate(), std::invalid_argument);
  spec = tiny_spec();
  spec.tech_nodes = {"no-such-node"};
  EXPECT_THROW(spec.validate(), std::invalid_argument);
  spec = tiny_spec();
  spec.seeds = {};
  EXPECT_THROW(spec.validate(), std::invalid_argument);
  spec = tiny_spec();
  spec.drifts = {{"a", 0.1, 0.0, 1}, {"a", 0.2, 0.0, 2}};
  EXPECT_THROW(spec.validate(), std::invalid_argument);
  // TrainConfig::validate rejects, before any cell trains.
  spec = tiny_spec();
  spec.base.train.epochs = 0;
  EXPECT_THROW(spec.validate(), std::invalid_argument);
  spec = tiny_spec();
  spec.base.train.lr = 0.0;
  EXPECT_THROW(spec.validate(), std::invalid_argument);
  spec = tiny_spec();
  spec.ga.population = 1;  // GaConfig::validate rejects
  EXPECT_THROW(spec.validate(), std::invalid_argument);
}

TEST(ScenarioSpec, DriftValidation) {
  DriftSpec drift{"ok", 0.1, 0.2, 1};
  EXPECT_NO_THROW(drift.validate());
  drift.name = "";
  EXPECT_THROW(drift.validate(), std::invalid_argument);
  drift.name = "has space";
  EXPECT_THROW(drift.validate(), std::invalid_argument);
  drift.name = "has:colon";
  EXPECT_THROW(drift.validate(), std::invalid_argument);
  drift = {"ok", -0.1, 0.0, 1};
  EXPECT_THROW(drift.validate(), std::invalid_argument);
  drift = {"ok", 0.0, 1.0, 1};  // shift must stay below 1
  EXPECT_THROW(drift.validate(), std::invalid_argument);
  drift = {"ok", 0.0, 0.0, 1};  // identity drift is allowed
  EXPECT_NO_THROW(drift.validate());
}

TEST(ScenarioSpec, ExpandOrderAndCellIds) {
  ScenarioSpec spec = tiny_spec();
  spec.datasets = {"seeds", "redwine"};
  spec.topologies = {{}, {16, 8}};
  spec.input_bits = {4, 6};
  spec.tech_nodes = {"egt", "egt_lowcost"};
  spec.seeds = {5, 7};
  const std::vector<ScenarioCell> cells = spec.expand();
  ASSERT_EQ(cells.size(), 32u);
  // Datasets-major, then topology, bits, tech, seeds-minor.
  EXPECT_EQ(cells[0].id(), "seeds__hdef__b4__egt__s5");
  EXPECT_EQ(cells[1].id(), "seeds__hdef__b4__egt__s7");
  EXPECT_EQ(cells[2].id(), "seeds__hdef__b4__egt_lowcost__s5");
  EXPECT_EQ(cells[4].id(), "seeds__hdef__b6__egt__s5");
  EXPECT_EQ(cells[8].id(), "seeds__h16-8__b4__egt__s5");
  EXPECT_EQ(cells[16].id(), "redwine__hdef__b4__egt__s5");
  EXPECT_EQ(cells[31].id(), "redwine__h16-8__b6__egt_lowcost__s7");
}

TEST(ScenarioSpec, FingerprintSeparatesEveryAxis) {
  const ScenarioSpec spec = tiny_spec();
  const ScenarioCell cell = spec.expand().front();
  const std::string base = spec.fingerprint(cell);
  EXPECT_EQ(base, spec.fingerprint(cell));  // deterministic
  // Pinned: every hashed setting, the GA search space and the gate width
  // that are constants included, keeps its token, so cells published by
  // earlier builds stay done.
  EXPECT_EQ(base, "27d704c590729685");

  ScenarioCell other = cell;
  other.dataset = "redwine";
  EXPECT_NE(base, spec.fingerprint(other));
  other = cell;
  other.input_bits = 6;
  EXPECT_NE(base, spec.fingerprint(other));
  other = cell;
  other.tech = "egt_lowcost";
  EXPECT_NE(base, spec.fingerprint(other));
  other = cell;
  other.hidden = {16, 8};
  EXPECT_NE(base, spec.fingerprint(other));
  other = cell;
  other.seed += 1;
  EXPECT_NE(base, spec.fingerprint(other));

  ScenarioSpec other_spec = tiny_spec();
  other_spec.drifts[0].feature_noise = 0.06;
  EXPECT_NE(base, other_spec.fingerprint(cell));
  other_spec = tiny_spec();
  other_spec.drifts.pop_back();
  EXPECT_NE(base, other_spec.fingerprint(cell));
  other_spec = tiny_spec();
  other_spec.ga.generations += 1;
  EXPECT_NE(base, other_spec.fingerprint(cell));
  other_spec = tiny_spec();
  other_spec.ga_finetune_epochs += 1;
  EXPECT_NE(base, other_spec.fingerprint(cell));
  other_spec = tiny_spec();
  other_spec.base.train.epochs += 1;
  EXPECT_NE(base, other_spec.fingerprint(cell));
  // A cell without the fidelity pass records different results.
  other_spec = tiny_spec();
  other_spec.fidelity = false;
  EXPECT_NE(base, other_spec.fingerprint(cell));
}

ScenarioCellResult sample_cell_result() {
  ScenarioCellResult result;
  // 20 decimal digits: the full uint64 seed range must survive the round
  // trip (a rejected seed would make the cell permanently stale).
  result.cell = {"seeds", {16, 8}, 6, "egt_lowcost", 18446744073709551615ULL};
  result.baseline = {"baseline", "b8", 0.9, 12.5, 3.25, 0.125};
  result.front = {{"ga", "b4,4|s30,0|c4,0", 0.875, 6.5, 2.0, 0.0625},
                  {"ga", "b3,3|s0,0|c0,0", 0.75, 4.25, 1.5, 0.03125}};
  result.fidelity = {{"b3,3|s0,0|c0,0", 4.0, 4.25, 0.0588235294117647},
                     {"b4,4|s30,0|c4,0", 6.75, 6.5, 0.038461538461538464}};
  result.fidelity_gated = true;
  result.fidelity_max_rel_delta = 0.0588235294117647;
  result.drift = {{"noise", "b3,3|s0,0|c0,0", 0.75, 0.703125},
                  {"noise", "b4,4|s30,0|c4,0", 0.875, 0.84375},
                  {"shift", "b3,3|s0,0|c0,0", 0.75, 0.71875}};
  result.distinct_evaluations = 24;
  result.cache_hits = 7;
  result.cache_misses = 26;
  result.store_loaded = 3;
  result.mcm_hits = 100;
  result.mcm_misses = 13;
  result.seconds = 1.0 / 3.0;
  return result;
}

TEST(ScenarioCellFile, RoundTripsExactly) {
  const ScenarioCellResult result = sample_cell_result();
  const std::string fp = "0123456789abcdef";
  const std::string text = format_scenario_cell(result, fp);
  const std::optional<ScenarioCellResult> parsed = parse_scenario_cell(text, fp);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->cell.id(), result.cell.id());
  EXPECT_EQ(parsed->cell.seed, result.cell.seed);
  EXPECT_EQ(parsed->baseline, result.baseline);
  EXPECT_EQ(parsed->front, result.front);
  ASSERT_EQ(parsed->fidelity.size(), result.fidelity.size());
  for (std::size_t i = 0; i < result.fidelity.size(); ++i) {
    EXPECT_EQ(parsed->fidelity[i].genome, result.fidelity[i].genome);
    EXPECT_EQ(parsed->fidelity[i].proxy_area_mm2, result.fidelity[i].proxy_area_mm2);
    EXPECT_EQ(parsed->fidelity[i].netlist_area_mm2,
              result.fidelity[i].netlist_area_mm2);
    EXPECT_EQ(parsed->fidelity[i].rel_delta, result.fidelity[i].rel_delta);
  }
  EXPECT_EQ(parsed->fidelity_gated, result.fidelity_gated);
  EXPECT_EQ(parsed->fidelity_max_rel_delta, result.fidelity_max_rel_delta);
  ASSERT_EQ(parsed->drift.size(), result.drift.size());
  for (std::size_t i = 0; i < result.drift.size(); ++i) {
    EXPECT_EQ(parsed->drift[i].drift, result.drift[i].drift);
    EXPECT_EQ(parsed->drift[i].genome, result.drift[i].genome);
    EXPECT_EQ(parsed->drift[i].base_accuracy, result.drift[i].base_accuracy);
    EXPECT_EQ(parsed->drift[i].drift_accuracy, result.drift[i].drift_accuracy);
  }
  EXPECT_EQ(parsed->distinct_evaluations, result.distinct_evaluations);
  EXPECT_EQ(parsed->cache_hits, result.cache_hits);
  EXPECT_EQ(parsed->cache_misses, result.cache_misses);
  EXPECT_EQ(parsed->store_loaded, result.store_loaded);
  EXPECT_EQ(parsed->mcm_hits, result.mcm_hits);
  EXPECT_EQ(parsed->mcm_misses, result.mcm_misses);
  EXPECT_EQ(parsed->seconds, result.seconds);
  // Serialization is itself deterministic.
  EXPECT_EQ(text, format_scenario_cell(*parsed, fp));
}

TEST(ScenarioCellFile, RejectsStaleTruncatedOrMalformed) {
  const ScenarioCellResult result = sample_cell_result();
  const std::string fp = "0123456789abcdef";
  const std::string text = format_scenario_cell(result, fp);
  EXPECT_FALSE(parse_scenario_cell(text, "feedfacefeedface").has_value());
  EXPECT_FALSE(parse_scenario_cell("", fp).has_value());
  EXPECT_FALSE(parse_scenario_cell("garbage\n", fp).has_value());
  // Any truncation must fail the parse, never yield a partial result.
  for (std::size_t cut : {text.size() / 4, text.size() / 2, text.size() - 2}) {
    EXPECT_FALSE(parse_scenario_cell(text.substr(0, cut), fp).has_value())
        << "cut at " << cut;
  }
  // Extra trailing content is malformed too.
  EXPECT_FALSE(parse_scenario_cell(text + "extra\n", fp).has_value());
}

TEST(ScenarioCellFile, NonFiniteFidelityRendersAsJsonNull) {
  // A front design whose circuit folds to a constant class has netlist
  // area 0 while the proxy still prices it: its relative delta is
  // infinite.  The cell file keeps the value exactly; the JSON reports
  // render it as null; the gate still counts it as a violation.
  ScenarioCellResult result = sample_cell_result();
  const double inf = std::numeric_limits<double>::infinity();
  result.fidelity[0] = {"b2,2|s50,20|c0,4", 42.625999999999991, 0.0, inf};
  result.fidelity_max_rel_delta = inf;
  const std::string fp = "0123456789abcdef";
  const std::optional<ScenarioCellResult> parsed =
      parse_scenario_cell(format_scenario_cell(result, fp), fp);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->fidelity[0].rel_delta, inf);
  EXPECT_EQ(parsed->fidelity_max_rel_delta, inf);

  ScenarioResult grid;
  grid.cells = {result};
  const std::string json = grid.grid_json();
  EXPECT_EQ(json.find("inf"), std::string::npos) << json;
  EXPECT_NE(json.find("\"max_rel_delta\": null"), std::string::npos);
  EXPECT_NE(json.find("\"rel_delta\": null"), std::string::npos);
  EXPECT_EQ(grid.report_json().find("inf"), std::string::npos);
  EXPECT_EQ(grid.fidelity_violations(), 1u);

  // Finite values keep their round-trip rendering.
  grid.cells = {sample_cell_result()};
  EXPECT_NE(grid.grid_json().find("\"max_rel_delta\": 0.058823529411764698"),
            std::string::npos);
}

TEST(ScenarioSpecFile, ParsesFullSpec) {
  const std::string text =
      "# scenario grid\n"
      "datasets seeds,synth:f8:c3:n600:sep2:ord0:k1:ln0.05\n"
      "topologies default,24-16\n"
      "input_bits 4,6\n"
      "techs egt,egt_lowcost\n"
      "seeds 5,7\n"
      "drift noise 0.05 0 11\n"
      "drift shift 0 0.3 12\n"
      "pop 8\n"
      "gens 3\n"
      "train_epochs 12\n"
      "finetune 3\n"
      "ga_finetune 1\n"
      "fidelity off\n";
  const ScenarioSpec spec = parse_scenario_spec(text);
  EXPECT_EQ(spec.datasets.size(), 2u);
  ASSERT_EQ(spec.topologies.size(), 2u);
  EXPECT_TRUE(spec.topologies[0].empty());
  EXPECT_EQ(spec.topologies[1], (std::vector<std::size_t>{24, 16}));
  EXPECT_EQ(spec.input_bits, (std::vector<int>{4, 6}));
  EXPECT_EQ(spec.tech_nodes, (std::vector<std::string>{"egt", "egt_lowcost"}));
  EXPECT_EQ(spec.seeds, (std::vector<std::uint64_t>{5, 7}));
  ASSERT_EQ(spec.drifts.size(), 2u);
  EXPECT_EQ(spec.drifts[0].name, "noise");
  EXPECT_EQ(spec.drifts[0].feature_noise, 0.05);
  EXPECT_EQ(spec.drifts[1].class_prior_shift, 0.3);
  EXPECT_EQ(spec.drifts[1].seed, 12u);
  EXPECT_EQ(spec.ga.population, 8u);
  EXPECT_EQ(spec.ga.generations, 3u);
  EXPECT_EQ(spec.base.train.epochs, 12u);
  EXPECT_EQ(spec.base.finetune_epochs, 3u);
  EXPECT_EQ(spec.ga_finetune_epochs, 1u);
  EXPECT_FALSE(spec.fidelity);
  EXPECT_TRUE(parse_scenario_spec("datasets seeds\nfidelity on\n").fidelity);
  EXPECT_TRUE(parse_scenario_spec("datasets seeds\n").fidelity);
  EXPECT_EQ(spec.expand().size(), 32u);
}

TEST(ScenarioSpecFile, RejectsMalformedLines) {
  EXPECT_THROW(parse_scenario_spec("datasets\n"), std::invalid_argument);
  EXPECT_THROW(parse_scenario_spec("datasets seeds\nbogus_key 1\n"),
               std::invalid_argument);
  EXPECT_THROW(parse_scenario_spec("datasets seeds\ntopologies 8-x\n"),
               std::invalid_argument);
  EXPECT_THROW(parse_scenario_spec("datasets seeds\ndrift d 0.1 0\n"),
               std::invalid_argument);
  EXPECT_THROW(parse_scenario_spec("datasets seeds\ninput_bits 99\n"),
               std::invalid_argument);
  EXPECT_THROW(parse_scenario_spec("datasets seeds\nseeds 7,abc\n"),
               std::invalid_argument);
  EXPECT_THROW(parse_scenario_spec("datasets seeds\npop 8x\n"), std::invalid_argument);
  EXPECT_THROW(parse_scenario_spec("datasets seeds\nfidelity yes\n"),
               std::invalid_argument);
  // The fidelity gate's bound and width are constants, not keys.
  EXPECT_THROW(parse_scenario_spec("datasets seeds\nfidelity_tolerance 0.4\n"),
               std::invalid_argument);
  EXPECT_THROW(parse_scenario_spec("datasets seeds\nfidelity_gate_max_hidden 20\n"),
               std::invalid_argument);
  // Every line parses, but every cell would throw at run time.
  EXPECT_THROW(parse_scenario_spec("datasets seeds\ntrain_epochs 0\n"),
               std::invalid_argument);
  // A repeated key would silently replace the earlier line; only drift
  // repeats by design.
  try {
    parse_scenario_spec("datasets seeds\npop 4\npop 6\n");
    ADD_FAILURE() << "a repeated key was accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("line 3"), std::string::npos) << e.what();
  }
  // Valid lines but an invalid resulting spec (duplicate seeds).
  EXPECT_THROW(parse_scenario_spec("datasets seeds\nseeds 5,5\n"),
               std::invalid_argument);
}

TEST(Scenario, EndToEndDeterminismResumeAndWorkers) {
  ScenarioSpec spec = tiny_spec();

  // Cold serial run with persistence.
  const std::string store = fresh_store_dir("e2e");
  spec.store_dir = store;
  const ScenarioResult cold = ScenarioRunner(spec).run();
  ASSERT_EQ(cold.cells.size(), 1u);
  const ScenarioCellResult& cell = cold.cells.front();
  EXPECT_FALSE(cell.front.empty());
  EXPECT_GT(cell.distinct_evaluations, 0u);
  // seeds' default topology is {4} <= 16, so the cell is gated.
  EXPECT_TRUE(cell.fidelity_gated);
  ASSERT_FALSE(cell.fidelity.empty());
  // Fidelity records are sorted by genome key and duplicate-free, and
  // every relative delta is consistent with its two absolute areas.
  for (std::size_t i = 0; i + 1 < cell.fidelity.size(); ++i) {
    EXPECT_LT(cell.fidelity[i].genome, cell.fidelity[i + 1].genome);
  }
  double max_delta = 0.0;
  for (const FidelityRecord& f : cell.fidelity) {
    EXPECT_GT(f.netlist_area_mm2, 0.0);
    EXPECT_NEAR(f.rel_delta,
                std::abs(f.proxy_area_mm2 - f.netlist_area_mm2) / f.netlist_area_mm2,
                1e-12);
    max_delta = std::max(max_delta, f.rel_delta);
  }
  EXPECT_EQ(cell.fidelity_max_rel_delta, max_delta);
  // Drift records: drift-major, one per (drift, front genome), accuracies
  // in [0, 1], base accuracy consistent with the published front.
  ASSERT_EQ(cell.drift.size(), 2 * cell.fidelity.size());
  for (const DriftRecord& d : cell.drift) {
    EXPECT_GE(d.drift_accuracy, 0.0);
    EXPECT_LE(d.drift_accuracy, 1.0);
    EXPECT_GE(d.base_accuracy, 0.0);
    EXPECT_LE(d.base_accuracy, 1.0);
  }

  // Warm rerun: byte-identical deterministic reports, zero fresh
  // evaluations (every result served from the store).
  const ScenarioResult warm = ScenarioRunner(spec).run();
  EXPECT_EQ(warm.grid_json(), cold.grid_json());
  EXPECT_EQ(warm.drift_report(), cold.drift_report());
  EXPECT_EQ(warm.total_cache_misses(), 0u);
  EXPECT_GT(warm.total_cache_hits(), 0u);
  EXPECT_GT(warm.total_store_loaded(), 0u);

  // A worker pass over a fresh store publishes every cell; collect
  // reassembles the same deterministic reports.
  ScenarioSpec worker_spec = tiny_spec();
  worker_spec.store_dir = fresh_store_dir("e2e_worker");
  const CampaignWorkerResult pass = ScenarioRunner(worker_spec).run_worker();
  EXPECT_EQ(pass.cells_run, 1u);
  // The on-disk layout stores written by older builds rely on.
  const std::string id = worker_spec.expand().front().id();
  EXPECT_TRUE(std::filesystem::exists(worker_spec.store_dir + "/sclaims/" + id + ".claim"));
  EXPECT_TRUE(std::filesystem::exists(worker_spec.store_dir + "/scells/" + id + ".scell"));
  const std::optional<ScenarioResult> collected = collect_scenario(worker_spec);
  ASSERT_TRUE(collected.has_value());
  EXPECT_EQ(collected->grid_json(), cold.grid_json());
  EXPECT_EQ(collected->drift_report(), cold.drift_report());
  // A second pass finds the published cell and runs nothing.
  const CampaignWorkerResult second = ScenarioRunner(worker_spec).run_worker();
  EXPECT_EQ(second.cells_run, 0u);
  EXPECT_EQ(second.cells_skipped_done, 1u);
}

TEST(Scenario, FidelityOffCellDoesOnlyTheSearchWork) {
  // A campaign cell is a cell with the fidelity pass off.  It must find
  // the same front against the same baseline as the fidelity-on cell,
  // build no fidelity stack, and look up exactly the search's genomes:
  // the fidelity pass costs one front-cache lookup and one fidelity-stack
  // lookup per distinct front genome.
  ScenarioSpec on = tiny_spec();
  on.drifts.clear();
  on.store_dir = fresh_store_dir("fid_on");
  ScenarioSpec off = on;
  off.fidelity = false;
  off.store_dir = fresh_store_dir("fid_off");

  const ScenarioResult with_pass = ScenarioRunner(on).run();
  const ScenarioResult without_pass = ScenarioRunner(off).run();
  ASSERT_EQ(with_pass.cells.size(), 1u);
  ASSERT_EQ(without_pass.cells.size(), 1u);
  const ScenarioCellResult& a = with_pass.cells[0];
  const ScenarioCellResult& b = without_pass.cells[0];
  EXPECT_EQ(b.cell.id(), "seeds__hdef__b4__egt__s5");
  EXPECT_FALSE(b.front.empty());
  EXPECT_EQ(b.front, a.front);
  EXPECT_EQ(b.baseline, a.baseline);
  EXPECT_EQ(with_pass.fronts_json(), without_pass.fronts_json());
  ASSERT_FALSE(a.fidelity.empty());
  EXPECT_TRUE(b.fidelity.empty());
  EXPECT_FALSE(b.fidelity_gated);
  EXPECT_EQ(b.fidelity_max_rel_delta, 0.0);
  EXPECT_EQ(b.cache_hits + b.cache_misses,
            a.cache_hits + a.cache_misses - 2 * a.fidelity.size());

  // Stores are named by dataset and seed; only the fidelity-on cell has a
  // fidproxy store.
  const auto count_stores = [](const std::string& dir, const std::string& prefix) {
    std::size_t n = 0;
    for (const auto& entry : std::filesystem::directory_iterator(dir)) {
      n += entry.path().filename().string().rfind(prefix, 0) == 0 ? 1 : 0;
    }
    return n;
  };
  EXPECT_EQ(count_stores(on.store_dir, "seeds_s5_proxy_"), 1u);
  EXPECT_EQ(count_stores(on.store_dir, "seeds_s5_netlist_"), 1u);
  EXPECT_EQ(count_stores(on.store_dir, "seeds_s5_fidproxy_"), 1u);
  EXPECT_EQ(count_stores(off.store_dir, "seeds_s5_proxy_"), 1u);
  EXPECT_EQ(count_stores(off.store_dir, "seeds_s5_netlist_"), 1u);
  EXPECT_EQ(count_stores(off.store_dir, "seeds_s5_fidproxy_"), 0u);
}

TEST(ScenarioResult, MarkdownMinimumAreaCountsZeroAreaDesigns) {
  // A front design folded to a constant classifier costs 0 mm^2; the
  // summary's minimum area must show it, not the next-smallest design.
  ScenarioCellResult cell = sample_cell_result();
  cell.front = {{"ga", "b2,2|s70,70|c0,0", 0.25, 0.0, 0.0, 0.0},
                {"ga", "b4,4|s30,0|c4,0", 0.875, 6.5, 2.0, 0.0625}};
  ScenarioResult result;
  result.cells = {cell};
  const std::string md = result.report_markdown();
  const std::string row = "| " + cell.cell.id() + " | 2 | 0.875 | 0.00 | ";
  EXPECT_NE(md.find(row), std::string::npos) << md;
}

TEST(Scenario, WorkerRequiresStoreAndValidShards) {
  ScenarioSpec spec = tiny_spec();
  EXPECT_THROW(ScenarioRunner(spec).run_worker(), std::invalid_argument);
  EXPECT_THROW(collect_scenario(spec), std::invalid_argument);
  spec.store_dir = fresh_store_dir("shard_args");
  EXPECT_THROW(ScenarioRunner(spec).run_worker(0, 0), std::invalid_argument);
  EXPECT_THROW(ScenarioRunner(spec).run_worker(2, 2), std::invalid_argument);
}

}  // namespace
}  // namespace pnm
