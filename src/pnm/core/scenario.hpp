#ifndef PNM_CORE_SCENARIO_HPP
#define PNM_CORE_SCENARIO_HPP

/// \file scenario.hpp
/// \brief The GA cell runner: the Fig. 2 hardware-aware search run as a
///        declarative grid over dataset family x topology x input_bits x
///        tech node x seed, with shared evaluation workers, persistent
///        result stores, a cross-process work queue, and two optional
///        measurements on every cell's final front.
///
/// A GA campaign is a one-axis grid: its spec lists datasets, seeds and
/// budgets and turns the fidelity pass off, so its cells (default
/// topology, 4-bit inputs, the `egt` node, no drifts) do exactly the
/// search's work.  For every cell the runner prepares a MinimizationFlow
/// and composes the two evaluator stacks of the search on one shared
/// ThreadPool —
///
///     GA fitness:  stored+cached( parallel( proxy,   shared pool ) )
///     front eval:  stored+cached( parallel( netlist, shared pool ) )
///
/// — and runs the GA.  With a store directory, each stack is backed by a
/// pnm::EvalStore named `<dataset>_s<seed>_<tag>_<fp>.evalstore`, where fp
/// is the eval_fingerprint() (pnm/core/campaign.hpp) of the stack's exact
/// configuration — topology, input bits, tech node and budgets included —
/// so an interrupted or repeated run resumes from disk, evaluates zero
/// previously seen genomes, and renders byte-identical reports.
///
/// The two optional measurements:
///
///   * proxy fidelity (ScenarioSpec::fidelity) — for every genome on a
///     cell's final front, the analytic area proxy (hw/proxy.hpp) and the
///     exact netlist price the *identical* realized integer model, through
///     a third store-backed stack (tag `fidproxy`: proxy backend at the
///     front's fine-tune budget, test split); the relative delta
///     |proxy - netlist| / netlist is recorded per genome.  Cells whose
///     resolved hidden widths are all <= kFidelityGateMaxHidden are
///     *gated*: ScenarioResult::fidelity_violations() counts the gated
///     cells whose delta exceeds kFidelityTolerance, and
///     tests/core_campaign_test.cpp fails on any for its reference grid.
///     Wider/deeper cells are recorded but ungated.
///
///   * drift robustness (ScenarioSpec::drifts) — each frozen front genome
///     is realized once and re-scored on seeded perturbations of the
///     (scaled) test split: additive feature noise clamped to [0, 1] and a
///     class-prior shift that deterministically resamples even-indexed
///     classes down.  Every draw derives from fnv1a(cell id | drift name)
///     ^ drift seed, so the same spec always produces byte-identical drift
///     records, on any worker topology.
///
/// Scheduling: run() executes every cell in-process, in expand() order.
/// run_worker() instead hands the cells to the shared cell scheduler
/// (pnm/core/cell_queue.hpp): a cell is claimed under the store directory
/// (`sclaims/<id>.claim`), published atomically as `scells/<id>.scell`
/// (stamped with ScenarioSpec::fingerprint()), so N worker processes
/// drain one grid with zero duplicate evaluations and collect_scenario()
/// reassembles a result byte-identical to a serial run's.
///
/// Reports: the deterministic artifacts — grid_json and drift_report (per
/// cell) and fronts_json (per dataset, with the merged front) — carry no
/// timing or cache statistics, so any rerun or worker topology yields the
/// same bytes (CI compares them with cmp); report_json and
/// report_markdown add the statistics.

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "pnm/core/cell_queue.hpp"
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

/// Hard bound on the relative proxy-vs-netlist area delta of *gated*
/// cells.  The analytic proxy is a ranking signal, not an absolute-area
/// model: on printed-scale fronts the measured worst-case delta is ~2.2x
/// (max gated delta 2.19 on the reference grid of
/// tests/core_campaign_test.cpp's two-process test), so the gate sits at
/// 3.0 — wide enough for the known bias, tight enough that a
/// proxy-formula or netlist-DCE regression (order-of-magnitude shifts)
/// still trips that test.
inline constexpr double kFidelityTolerance = 3.0;

/// A cell is fidelity-gated iff every resolved hidden width is <= this
/// (the small-topology regime where proxy fidelity is already claimed);
/// wider/deeper cells record their deltas ungated.
inline constexpr std::size_t kFidelityGateMaxHidden = 16;

/// Declarative description of one grid: the cross product of the five
/// axis lists, each cell one GA search.
struct ScenarioSpec {
  /// Template for every cell; dataset_name, seed, hidden, input_bits and
  /// tech_name are overridden per cell.  Controls the training recipe,
  /// bespoke options and front fine-tune budget.
  FlowConfig base{};

  std::vector<std::string> datasets;                ///< non-empty, unique
  std::vector<std::vector<std::size_t>> topologies = {{}};  ///< {} = default
  std::vector<int> input_bits = {4};
  std::vector<std::string> tech_nodes = {"egt"};
  std::vector<std::uint64_t> seeds = {42};
  std::vector<DriftSpec> drifts;                    ///< may be empty

  GaConfig ga{};                        ///< search hyper-parameters
  std::size_t ga_finetune_epochs = 2;   ///< fitness-pipeline budget

  /// Runs the proxy-fidelity pass.  Off, a cell builds only the GA
  /// fitness and front stacks, records no fidelity, is never gated, and
  /// (without drifts) skips the front-genome lookups too, so it does
  /// exactly the search's work — a campaign spec turns it off.
  bool fidelity = true;

  /// Persistence and scheduling root: EvalStores, claims and published
  /// cells live here, and it is created if missing.  Empty disables
  /// persistence (run() still works; nothing survives the process).
  std::string store_dir;
  std::size_t threads = 0;   ///< shared worker pool; 0 = hardware

  /// \throws std::invalid_argument on empty/duplicate axis lists (two
  ///         topologies duplicate when they resolve to the same widths on
  ///         a dataset; two datasets when they name one synthetic
  ///         config, e.g. "sep2" and "sep2.0"), an unknown dataset or
  ///         malformed "synth:" token, a synthetic dataset whose
  ///         stratified split leaves validation or test empty (no class
  ///         of 4 samples), an unknown tech node, input bits outside
  ///         [1, 16], or duplicate drift names
  ///         (TrainConfig::validate covers the base training recipe,
  ///         GaConfig::validate the GA fields).
  void validate() const;

  /// The grid, datasets-major then topologies, input_bits, tech_nodes,
  /// seeds — the canonical cell order every report uses.
  [[nodiscard]] std::vector<ScenarioCell> expand() const;

  /// Stable identity of one cell under this spec: both search stacks'
  /// eval_fingerprint()s, the GA settings and search space, the fidelity
  /// switch and the fidelity stack's fingerprint, the gate width, and the
  /// drift list.
  /// Stamped into published .scell files, so a result computed under a
  /// different spec reads as absent rather than merged.
  /// \return a 16-hex-digit whitespace-free token.
  [[nodiscard]] std::string fingerprint(const ScenarioCell& cell) const;
};

/// Work counters of one cell: the `stats` line of every published cell
/// file and the statistics half of the JSON/markdown reports.
struct CellStats {
  std::size_t distinct_evaluations = 0;  ///< GA-distinct genomes this cell
  std::size_t cache_hits = 0;          ///< across the cell's evaluator stacks
  std::size_t cache_misses = 0;        ///< fresh evaluations actually run
  std::size_t store_loaded = 0;        ///< records preloaded from disk
  /// MCM plan-cache lookups during this cell (hw/mcm.hpp memoized
  /// planner), counted as deltas of the process-wide counters around the
  /// cell: both the proxy pricing and the exact netlist front
  /// re-evaluation route per-column coefficient multisets through
  /// plan_mcm_cached, so the hit rate shows how much DAG planning the
  /// memoization saved.  Cells run serially within a process, so the
  /// deltas attribute cleanly.
  std::size_t mcm_hits = 0;
  std::size_t mcm_misses = 0;           ///< fresh MCM DAG plans computed
  double seconds = 0.0;                ///< wall time of the cell

  /// Field-wise sum (totals over cells).
  CellStats& operator+=(const CellStats& other);
};

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

/// Outcome of one cell; the CellStats cover every evaluator stack of the
/// cell.
struct ScenarioCellResult : CellStats {
  ScenarioCell cell;
  DesignPoint baseline;               ///< unminimized bespoke reference
  std::vector<DesignPoint> front;     ///< exact netlist front, test split
  /// One record per distinct front genome, sorted by genome key (empty
  /// when the fidelity pass is off).
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

/// Aggregated outcome + report rendering.
struct ScenarioResult {
  std::vector<ScenarioCellResult> cells;  ///< ScenarioSpec::expand() order

  [[nodiscard]] std::size_t total_cache_hits() const;
  [[nodiscard]] std::size_t total_cache_misses() const;
  [[nodiscard]] std::size_t total_store_loaded() const;
  /// hits / (hits + misses); 0 when nothing was requested.
  [[nodiscard]] double cache_hit_rate() const;
  [[nodiscard]] std::size_t total_mcm_hits() const;
  [[nodiscard]] std::size_t total_mcm_misses() const;
  /// MCM plan-cache hit rate across all cells; 0 when nothing was planned.
  [[nodiscard]] double mcm_plan_hit_rate() const;

  /// Largest relative fidelity delta across *gated* cells (0 if none).
  [[nodiscard]] double max_gated_rel_delta() const;
  /// Gated cells whose max delta exceeds kFidelityTolerance.
  [[nodiscard]] std::size_t fidelity_violations() const;

  /// Non-dominated union of the fronts of every cell on `dataset`
  /// (ascending area).  Across seeds this is a stability view, since
  /// every seed is an independent split + model.
  [[nodiscard]] std::vector<DesignPoint> merged_front(
      const std::string& dataset) const;

  /// Deterministic JSON of every cell's front grouped by dataset (in
  /// first-appearance order, which is spec order), plus each dataset's
  /// merged front — the campaign artifact.  No timing or cache stats, so
  /// a warm rerun's output is byte-identical to the cold run's.
  [[nodiscard]] std::string fronts_json() const;

  /// Deterministic JSON of every cell's axes, front, fidelity records and
  /// drift records — no timing or cache stats, so any rerun or worker
  /// topology yields byte-identical output (the artifact CI cmp's).
  [[nodiscard]] std::string grid_json() const;

  /// Deterministic drift-robustness report: one tab-separated line per
  /// (cell, drift, genome).  Same determinism contract as grid_json; the
  /// two-process test and CI byte-compare it across runs.
  [[nodiscard]] std::string drift_report() const;

  /// Full JSON report: totals, per-cell cache/timing statistics, the grid
  /// and the fronts (not byte-stable across runs — timings differ).
  [[nodiscard]] std::string report_json() const;

  /// Human-readable markdown: a per-cell summary, per-dataset front
  /// tables (area gain vs the cell's baseline) with the merged front,
  /// drift means when there are drifts, and a cache/timing table.
  [[nodiscard]] std::string report_markdown() const;
};

/// Executes a ScenarioSpec cell by cell.  Construction validates the spec
/// and spawns the shared worker pool; the pool is reused by every cell.
class ScenarioRunner {
 public:
  /// \throws std::invalid_argument via ScenarioSpec validation.
  explicit ScenarioRunner(ScenarioSpec spec);

  /// Runs every cell in expand() order in this process.  With a
  /// store_dir, creates the directory and resumes from any
  /// fingerprint-matching stores inside it.
  ScenarioResult run();

  /// One work-queue pass of the cell scheduler (run_cell_worker in
  /// pnm/core/cell_queue.hpp) over the grid in expand() order: claims
  /// each available cell (flock on `sclaims/<id>.claim` under the store
  /// directory), runs it, and atomically publishes `scells/<id>.scell`.
  /// Cells already published under the current fingerprint are skipped;
  /// cells whose claim is held by a live process are left to that
  /// process.  With `num_shards > 1` the pass only considers cells whose
  /// index modulo `num_shards` equals `shard_id` (static sharding — no
  /// two shards ever contend).
  ///
  /// One pass by each of N cooperating workers covers every cell unless
  /// a worker died mid-cell; its claim is already released, so any later
  /// pass picks the orphan up.  Requires a non-empty store_dir.
  ///
  /// \param shard_id    this worker's static shard (< num_shards).
  /// \param num_shards  static shard count; 1 = pure dynamic claiming.
  /// \return per-pass counters (cells run / skipped and why).
  /// \throws std::invalid_argument when store_dir is empty or the shard
  ///         arguments are inconsistent.
  /// \throws std::runtime_error when a computed cell cannot be published.
  CampaignWorkerResult run_worker(std::size_t shard_id = 0,
                                  std::size_t num_shards = 1);

  [[nodiscard]] const ScenarioSpec& spec() const { return spec_; }
  /// \return the shared worker pool's size.
  [[nodiscard]] std::size_t threads() const { return pool_.size(); }

 private:
  ScenarioCellResult run_cell(const ScenarioCell& cell);

  ScenarioSpec spec_;
  ThreadPool pool_;
};

/// Reassembles a (possibly multi-process) worker run from the .scell
/// files under `spec.store_dir` into the result a serial run() returns —
/// deterministic reports byte-identical, cache/timing stats as measured
/// by whichever worker ran each cell.  Spawns no worker pool, so a
/// supervisor that just forked workers may call it.
/// \return std::nullopt when any cell is missing or stale — run another
///         worker pass and collect again.
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
///   fidelity   on|off                                  (default on)
///
/// Each key but `drift` may appear once.  Unlisted keys keep ScenarioSpec
/// defaults; store_dir/threads are CLI-side.  The returned spec is
/// validate()d.
/// \throws std::invalid_argument naming the offending line.
ScenarioSpec parse_scenario_spec(std::string_view text);

}  // namespace pnm

#endif  // PNM_CORE_SCENARIO_HPP
