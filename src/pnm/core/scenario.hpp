#ifndef PNM_CORE_SCENARIO_HPP
#define PNM_CORE_SCENARIO_HPP

/// \file scenario.hpp
/// \brief Scenario-matrix campaigns: the ROADMAP's "bigger models, more
///        datasets, harder regimes" item as a declarative grid over
///        dataset family x topology x input_bits x tech node x seed,
///        with two machine-gated measurements the plain campaign layer
///        does not record:
///
///   * proxy fidelity — for every genome on a cell's final front, the
///     analytic area proxy (hw/proxy.hpp) and the exact netlist price the
///     *identical* realized integer model; the relative delta
///     |proxy - netlist| / netlist is recorded per genome.  Cells whose
///     resolved hidden widths are all <= fidelity_gate_max_hidden are
///     *gated*: bench/scenario_bench.cpp exits nonzero when any gated
///     delta exceeds ScenarioSpec::fidelity_tolerance.  Wider/deeper
///     cells are recorded but ungated — the fidelity regime the ROADMAP
///     flags as untested becomes a tracked baseline first.
///
///   * drift robustness — each frozen front genome is realized once and
///     re-scored on seeded perturbations of the (scaled) test split:
///     additive feature noise clamped to [0, 1] and a class-prior shift
///     that deterministically resamples even-indexed classes down.  Every
///     draw derives from fnv1a(cell id | drift name) ^ drift seed, so the
///     same spec always produces byte-identical drift records, on any
///     worker topology (the bench and CI cmp the reports).
///
/// Scheduling is the campaign layer's cell scheduler
/// (pnm/core/cell_queue.hpp) under the scenario layout: a cell is a
/// claimable unit under the store directory (`sclaims/<id>.claim`,
/// published atomically as `scells/<id>.scell`, stamped with a
/// scenario_cell_fingerprint()), so N worker processes drain one grid
/// with zero duplicate evaluations and collect_scenario() reassembles a
/// result byte-identical to a serial run's.  Each cell's evaluator stacks
/// are the campaign ones (CellEvalStack) plus a third store-backed stack
/// for the fidelity pass's proxy re-pricing (its eval_fingerprint differs
/// from the GA fitness proxy's: front fine-tune budget, test split).

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "pnm/core/campaign.hpp"
#include "pnm/core/flow.hpp"
#include "pnm/core/ga.hpp"
#include "pnm/core/pareto.hpp"
#include "pnm/util/thread_pool.hpp"

namespace pnm {

/// One seeded perturbation of the test split.
struct DriftSpec {
  /// Report token; must be non-empty, without whitespace or ':'.
  std::string name;
  /// Sigma of zero-mean Gaussian noise added to every scaled feature
  /// (features live in [0, 1]; perturbed values are clamped back).
  double feature_noise = 0.0;
  /// In [0, 1): even-indexed classes keep each test sample with
  /// probability 1 - shift (first occurrence always kept, so no class
  /// ever disappears); odd-indexed classes are untouched.  Skews the
  /// test prior away from the training prior.
  double class_prior_shift = 0.0;
  /// Per-drift seed, mixed with the cell id so distinct cells never
  /// share a perturbation stream.
  std::uint64_t seed = 1;

  /// \throws std::invalid_argument on a malformed name or out-of-range
  ///         noise/shift.
  void validate() const;
};

/// One axis point of the matrix.
struct ScenarioCell {
  std::string dataset;               ///< named set or "synth:..." token
  std::vector<std::size_t> hidden;   ///< empty = per-dataset default
  int input_bits = 4;
  std::string tech = "egt";          ///< hw::TechLibrary::by_name token
  std::uint64_t seed = 42;

  /// Deterministic filename-safe identity encoding every axis, e.g.
  /// "seeds__hdef__b4__egt__s42" or "redwine__h16-8__b6__egt_lowcost__s7".
  [[nodiscard]] std::string id() const;
};

/// Declarative description of one scenario matrix: the cross product of
/// the five axis lists, run as campaign-style cells.
struct ScenarioSpec {
  /// Template for every cell; dataset_name, seed, hidden, input_bits and
  /// tech_name are overridden per cell.
  FlowConfig base{};

  std::vector<std::string> datasets;                ///< non-empty, unique
  std::vector<std::vector<std::size_t>> topologies = {{}};  ///< {} = default
  std::vector<int> input_bits = {4};
  std::vector<std::string> tech_nodes = {"egt"};
  std::vector<std::uint64_t> seeds = {42};
  std::vector<DriftSpec> drifts;                    ///< may be empty

  GaConfig ga{};
  std::size_t ga_finetune_epochs = 2;

  /// Hard bound on the relative proxy-vs-netlist area delta for *gated*
  /// cells (see fidelity_gate_max_hidden).  The analytic proxy is a
  /// ranking signal, not an absolute-area model: on printed-scale fronts
  /// the measured worst-case delta is ~2.2x (BENCH_scenario.json records
  /// max_gated_rel_delta), so the default gates at 3.0 — wide enough for
  /// the known bias, tight enough that a proxy-formula or netlist-DCE
  /// regression (order-of-magnitude shifts) still trips the bench.
  double fidelity_tolerance = 3.0;
  /// A cell is fidelity-gated iff every resolved hidden width is <= this
  /// (the small-topology regime where proxy fidelity is already claimed);
  /// wider/deeper cells record their deltas ungated.
  std::size_t fidelity_gate_max_hidden = 16;

  std::string store_dir;     ///< persistence + scheduling root ("" = none)
  std::size_t threads = 0;   ///< shared worker pool; 0 = hardware
  std::size_t writer_id = 0; ///< preferred EvalStore segment (see campaign)

  /// \throws std::invalid_argument on empty/duplicate axis lists, a
  ///         malformed "synth:" token, an unknown tech node, non-positive
  ///         input bits, duplicate drift names, or a non-finite/
  ///         non-positive fidelity tolerance (GaConfig::validate covers
  ///         the GA fields).
  void validate() const;

  /// The grid, datasets-major then topologies, input_bits, tech_nodes,
  /// seeds — the canonical cell order every report uses.
  [[nodiscard]] std::vector<ScenarioCell> expand() const;
};

/// Stable identity of one cell under a spec: both campaign backend
/// fingerprints plus the fidelity stack's, every GA knob, the drift list,
/// and the gate parameters.  Stamped into published .scell files so a
/// result computed under a different spec reads as absent, not stale data.
std::string scenario_cell_fingerprint(const ScenarioSpec& spec,
                                      const ScenarioCell& cell);

/// Proxy-vs-netlist area agreement for one front genome.
struct FidelityRecord {
  std::string genome;             ///< Genome::key()
  double proxy_area_mm2 = 0.0;
  double netlist_area_mm2 = 0.0;
  /// |proxy - netlist| / netlist (0 when both are 0, infinite when only
  /// the netlist area is 0).
  double rel_delta = 0.0;
};

/// Accuracy of one frozen front genome under one drift.
struct DriftRecord {
  std::string drift;              ///< DriftSpec::name
  std::string genome;             ///< Genome::key()
  double base_accuracy = 0.0;     ///< unperturbed test split
  double drift_accuracy = 0.0;    ///< perturbed test split
};

/// Outcome of one scenario cell; the CellStats cover all three evaluator
/// stacks of the cell.
struct ScenarioCellResult : CellStats {
  ScenarioCell cell;
  DesignPoint baseline;               ///< unminimized bespoke reference
  std::vector<DesignPoint> front;     ///< exact netlist front, test split
  /// One record per distinct front genome, sorted by genome key.
  std::vector<FidelityRecord> fidelity;
  bool fidelity_gated = false;        ///< small-topology hard-gate member
  /// Largest rel_delta (JSON reports render an infinite one as null).
  double fidelity_max_rel_delta = 0.0;
  /// Drift-major, genome-minor (genomes sorted by key).
  std::vector<DriftRecord> drift;
};

/// Serializes one cell outcome as the deterministic text published under
/// `scells/` (round-trip-exact doubles; same bytes for the same result).
std::string format_scenario_cell(const ScenarioCellResult& result,
                                 const std::string& cell_fp);

/// Parses a published .scell file back.  std::nullopt on malformed,
/// truncated, or fingerprint-mismatched text — all treated as "cell not
/// done, recompute" by the scheduler.
std::optional<ScenarioCellResult> parse_scenario_cell(std::string_view text,
                                                      const std::string& cell_fp);

/// Aggregated scenario outcome + report rendering.
struct ScenarioResult {
  std::vector<ScenarioCellResult> cells;  ///< ScenarioSpec::expand() order

  [[nodiscard]] std::size_t total_cache_hits() const;
  [[nodiscard]] std::size_t total_cache_misses() const;
  [[nodiscard]] std::size_t total_store_loaded() const;

  /// Largest relative fidelity delta across *gated* cells (0 if none).
  [[nodiscard]] double max_gated_rel_delta() const;
  /// Gated cells whose max delta exceeds the tolerance.
  [[nodiscard]] std::size_t fidelity_violations(double tolerance) const;

  /// Deterministic JSON of every cell's axes, front, fidelity records and
  /// drift records — no timing or cache stats, so any rerun or worker
  /// topology yields byte-identical output (the artifact CI cmp's).
  [[nodiscard]] std::string grid_json() const;

  /// Deterministic drift-robustness report: one tab-separated line per
  /// (cell, drift, genome).  Same determinism contract as grid_json; the
  /// bench runs the pass twice and byte-compares this.
  [[nodiscard]] std::string drift_report() const;

  /// Full JSON report: grid plus baselines and cache/timing statistics
  /// (not byte-stable across runs — timings differ).
  [[nodiscard]] std::string report_json() const;

  /// Human-readable markdown summary.
  [[nodiscard]] std::string report_markdown() const;
};

/// Executes a ScenarioSpec cell by cell.  Construction validates the spec
/// and spawns the shared worker pool.
class ScenarioRunner {
 public:
  /// \throws std::invalid_argument via ScenarioSpec validation.
  explicit ScenarioRunner(ScenarioSpec spec);

  /// Runs every cell in expand() order in this process.
  ScenarioResult run();

  /// One work-queue pass of the cell scheduler over the grid: flock-claims
  /// `sclaims/<id>.claim` under the store directory, runs the cell,
  /// atomically publishes `scells/<id>.scell`.  Semantics identical to
  /// CampaignRunner::run_worker (published-skip, live-claim skip, static
  /// sharding by cell index, crashed-claim recovery).
  ///
  /// \throws std::invalid_argument when store_dir is empty or the shard
  ///         arguments are inconsistent.
  /// \throws std::runtime_error when a computed cell cannot be published.
  CampaignWorkerResult run_worker(std::size_t shard_id = 0,
                                  std::size_t num_shards = 1);

  [[nodiscard]] const ScenarioSpec& spec() const { return spec_; }
  [[nodiscard]] std::size_t threads() const { return pool_.size(); }

 private:
  ScenarioCellResult run_cell(const ScenarioCell& cell);

  ScenarioSpec spec_;
  ThreadPool pool_;
};

/// Reassembles a (possibly multi-process) scenario run from the .scell
/// files under `spec.store_dir` — byte-identical grid_json/drift_report
/// to a serial run.  std::nullopt when any cell is missing or stale.
/// \throws std::invalid_argument via spec validation or empty store_dir.
std::optional<ScenarioResult> collect_scenario(const ScenarioSpec& spec);

/// Parses the scenario_main grid spec file format: one `key value` pair
/// per line, '#' comments and blank lines ignored.  Keys:
///
///   datasets   a,b,synth:f8:c3:n600:sep2:ord0:k1:ln0   (required)
///   topologies default,16-8        ("default" = {}; widths '-'-joined)
///   input_bits 4,6
///   techs      egt,egt_lowcost
///   seeds      42,43
///   drift      NAME FEATURE_NOISE PRIOR_SHIFT SEED     (repeatable)
///   pop/gens/train_epochs/finetune/ga_finetune  N
///   fidelity_tolerance X
///   fidelity_gate_max_hidden N
///
/// Unlisted keys keep ScenarioSpec defaults; store_dir/threads/writer_id
/// are CLI-side.  The returned spec is validate()d.
/// \throws std::invalid_argument naming the offending line.
ScenarioSpec parse_scenario_spec(std::string_view text);

}  // namespace pnm

#endif  // PNM_CORE_SCENARIO_HPP
