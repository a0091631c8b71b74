#ifndef PNM_CORE_CAMPAIGN_HPP
#define PNM_CORE_CAMPAIGN_HPP

/// \file campaign.hpp
/// \brief Multi-dataset GA campaigns: the Fig. 2 hardware-aware search
///        run as a declarative N-datasets x M-seeds spec, with shared
///        evaluation workers, persistent result stores, a merged
///        per-dataset Pareto-front report — and a cross-process work
///        queue so N worker processes drain one campaign together.
///
/// A campaign is the ROADMAP's "multi-dataset GA campaigns" workload made
/// first-class.  For every (dataset, seed) cell the runner prepares a
/// MinimizationFlow, composes the recommended evaluator stacks —
///
///     GA fitness:  stored+cached( parallel( proxy,   shared pool ) )
///     front eval:  stored+cached( parallel( netlist, shared pool ) )
///
/// — and runs the Fig. 2 GA.  One ThreadPool is borrowed by every
/// ParallelEvaluator, so worker threads are spawned once per campaign,
/// not once per run.  With a store directory set, each stack is backed by
/// a pnm::EvalStore keyed by an eval_fingerprint() of the run's exact
/// configuration: an interrupted or repeated campaign resumes from disk
/// and re-evaluates zero previously-seen genomes, while producing
/// byte-identical fronts (evaluations are deterministic per genome and
/// the store round-trips doubles exactly — asserted in
/// tests/core_campaign_test.cpp and in CI).
///
/// Cross-process scheduling: run() executes every cell in-process, in
/// spec order.  run_worker() instead hands the cells to the shared cell
/// scheduler (pnm/core/cell_queue.hpp) under the campaign layout —
/// `claims/<cell>.claim`, published as `cells/<cell>.cell` — so N worker
/// processes drain one campaign and collect_campaign() reassembles the
/// same CampaignResult a serial run returns (gated in tests,
/// bench/campaign_bench.cpp, and CI).
///
/// Reports: CampaignResult renders the merged per-dataset Pareto fronts
/// as deterministic JSON (fronts_json — stable across warm/cold runs and
/// across process counts, the artifact CI byte-compares), a full JSON
/// report with cache/timing stats (report_json), and a human-readable
/// markdown table (report_markdown).

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "pnm/core/cell_queue.hpp"
#include "pnm/core/eval.hpp"
#include "pnm/core/eval_store.hpp"
#include "pnm/core/flow.hpp"
#include "pnm/core/ga.hpp"
#include "pnm/core/pareto.hpp"
#include "pnm/util/thread_pool.hpp"

namespace pnm {

/// Stable identity of one evaluation context, for EvalStore headers and
/// store file names.  Hashes every knob that can change an evaluation
/// result: the flow's dataset/seed/topology/training recipe, the eval
/// config (bits, fine-tune budget, sharing policy, bespoke options,
/// reporting split), the backend ("proxy"/"netlist"), and the store
/// format version.  Two contexts agree on the fingerprint iff their
/// stored results are interchangeable.
///
/// Caveat: dataset content is identified by (dataset_name, seed), which
/// is exact for the named synthetic datasets campaigns run on.  A flow
/// constructed with an explicitly-supplied Dataset (e.g. a custom CSV)
/// is NOT distinguished by its content — if you persist results for
/// such a flow, mix your own content hash (e.g. fnv1a64_hex over the
/// raw samples) into the dataset_name before fingerprinting.
///
/// \param flow     the cell's flow configuration (dataset, seed, recipe).
/// \param eval     the evaluation-side knobs (bits, budget, sharing).
/// \param backend  cost backend name ("proxy" or "netlist").
/// \return a 16-hex-digit whitespace-free token.
std::string eval_fingerprint(const FlowConfig& flow, const EvalConfig& eval,
                             const std::string& backend);

// ---- Shared by campaign and scenario cells ------------------------------

/// Work counters of one cell (campaign and scenario cells alike): the
/// `stats` line of every published cell file and the statistics half of
/// the JSON/markdown reports.
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

/// Field-wise sum of the CellStats of every cell in `cells`.
template <typename Cell>
CellStats sum_cell_stats(const std::vector<Cell>& cells) {
  CellStats total;
  for (const CellStats& cell : cells) total += cell;
  return total;
}

/// The lines every published cell file shares, in this order: `stats`
/// (the seven CellStats fields), the `baseline` record, and the front
/// (`front\tN`, then N `point` records).  Doubles round-trip exactly.
///
/// \param stats     the cell's counters.
/// \param baseline  the unminimized reference design.
/// \param front     the cell's exact front.
/// \return the lines, each terminated by '\n'.
std::string format_cell_body(const CellStats& stats, const DesignPoint& baseline,
                             const std::vector<DesignPoint>& front);

/// Parses the block format_cell_body() writes, starting at lines[at].
///
/// \param lines     the file's lines (split_lines).
/// \param at        first line of the block; on success, the line after it.
/// \param stats     receives the counters.
/// \param baseline  receives the baseline design.
/// \param front     receives the front.
/// \return false when the block is malformed or truncated.
bool parse_cell_body(const std::vector<std::string_view>& lines, std::size_t& at,
                     CellStats& stats, DesignPoint& baseline,
                     std::vector<DesignPoint>& front);

/// One design point as a JSON object.  Doubles go through json_number, so
/// equal points render to equal bytes and non-finite values as null.
std::string point_json(const DesignPoint& p);

/// A front as a JSON array, one point per line, indented by `indent`.
std::string front_json(const std::vector<DesignPoint>& front, const std::string& indent);

/// The per-cell statistics fields of a report_json cell object, starting
/// with a comma: `, "distinct_evaluations": N, ..., "seconds": X`.
std::string cell_stats_json(const CellStats& stats);

/// One backend's evaluator stack in a cell —
/// stored+cached(parallel(backend)) on the runner's shared pool.  With a
/// non-empty `store_stem` the cache is persisted in the EvalStore
/// directory `<store_stem>_<tag>_<fp>.evalstore`, where fp =
/// eval_fingerprint(flow, backend.config(), backend.name()).
class CellEvalStack {
 public:
  /// \param backend     pipeline backend; must outlive the stack.
  /// \param pool        shared worker pool; must outlive the stack.
  /// \param flow        the cell's flow configuration.
  /// \param store_stem  "<store_dir>/<cell id>"; empty disables persistence.
  /// \param tag         backend tag in the store name ("proxy", "netlist",
  ///                    "fidproxy").
  /// \param writer_id   preferred EvalStore segment (see EvalStore).
  CellEvalStack(PipelineEvaluator& backend, ThreadPool& pool, const FlowConfig& flow,
                const std::string& store_stem, const char* tag,
                std::size_t writer_id);

  /// The top of the stack, handed to the GA or the front re-evaluation.
  CachedEvaluator& cached() { return *cached_; }

 private:
  ParallelEvaluator parallel_;
  std::optional<EvalStore> store_;
  std::optional<CachedEvaluator> cached_;
};

/// Measures one cell from construction: wall time and the MCM plan-cache
/// counter deltas.
class CellMeter {
 public:
  CellMeter();

  /// Fills `stats`: the measured time and MCM deltas, `distinct_evaluations`,
  /// and the cache counters summed over the cell's stacks.
  void record(CellStats& stats, std::size_t distinct_evaluations,
              std::initializer_list<CellEvalStack*> stacks) const;

 private:
  std::chrono::steady_clock::time_point start_;
  std::uint64_t mcm_hits_ = 0;
  std::uint64_t mcm_misses_ = 0;
};

/// Declarative description of one campaign: the Fig. 2 GA across
/// datasets x seeds, sharing workers and (optionally) persistent stores.
struct CampaignSpec {
  /// Template for every run; dataset_name and seed are overridden per
  /// cell.  Controls the training recipe, input bits, bespoke options,
  /// fine-tune budget, and split fractions.
  FlowConfig base{};

  /// Datasets to search (named synthetic sets: "whitewine", "redwine",
  /// "pendigits", "seeds").  Must be non-empty and duplicate-free.
  std::vector<std::string> datasets;

  /// Flow seeds per dataset — each seed is an independent data split,
  /// float model, and GA run.  Must be non-empty and duplicate-free.
  std::vector<std::uint64_t> seeds = {42};

  GaConfig ga{};                        ///< search hyper-parameters
  std::size_t ga_finetune_epochs = 2;   ///< fitness-pipeline budget

  /// Directory for persistent EvalStores (one file per run x backend,
  /// named by dataset/seed/backend/fingerprint).  Created if missing.
  /// Empty disables persistence: the campaign still runs, nothing
  /// survives the process.
  std::string store_dir;

  /// Shared worker-pool size; 0 selects the hardware concurrency.
  std::size_t threads = 0;

  /// Preferred EvalStore segment id for this *process* (see
  /// EvalStore::EvalStore): cooperating worker processes pass distinct
  /// ids (e.g. their shard id) so each lands on its preferred segment
  /// without probing.  Collisions are still safe — the store probes to
  /// the next free segment — so the default 0 is always correct.
  std::size_t writer_id = 0;

  /// \throws std::invalid_argument on an empty/duplicated dataset or
  /// seed list (GaConfig::validate covers the GA fields).
  void validate() const;
};

/// Stable identity of one (dataset, seed) cell under a spec: a hash over
/// both backend eval_fingerprint()s plus every GA knob that shapes the
/// search.  Stamped into the cell's published result file, so a result
/// computed under a different spec is treated as absent (stale) rather
/// than merged — the campaign-level analog of the store fingerprint.
///
/// \param spec     the campaign the cell belongs to.
/// \param dataset  the cell's dataset name.
/// \param seed     the cell's flow seed.
/// \return a 16-hex-digit whitespace-free token.
std::string cell_fingerprint(const CampaignSpec& spec, const std::string& dataset,
                             std::uint64_t seed);

/// Outcome of one (dataset, seed) cell; the CellStats cover both
/// evaluator stacks.
struct CampaignRunResult : CellStats {
  std::string dataset;
  std::uint64_t seed = 0;
  DesignPoint baseline;                ///< unminimized bespoke reference
  std::vector<DesignPoint> front;      ///< exact netlist front, test split
};

/// Serializes one cell outcome as the deterministic text published under
/// `cells/` by run_worker() (doubles round-trip exactly, so a collected
/// campaign renders byte-identical fronts to an in-process one).
///
/// \param run      the cell outcome to serialize.
/// \param cell_fp  the cell's cell_fingerprint(), stamped in the header.
/// \return the full file content.
std::string format_cell_result(const CampaignRunResult& run,
                               const std::string& cell_fp);

/// Parses a published cell file back.
///
/// \param text     full file content.
/// \param cell_fp  the expected cell_fingerprint(); a mismatch (spec
///                 changed since the cell was computed) fails the parse.
/// \return the cell outcome; std::nullopt when the text is malformed,
///         truncated, or carries a different fingerprint — callers treat
///         all three as "cell not done yet" and recompute (the scheduler's
///         retry semantics).
std::optional<CampaignRunResult> parse_cell_result(std::string_view text,
                                                   const std::string& cell_fp);

/// Aggregated campaign outcome + report rendering.
struct CampaignResult {
  std::vector<std::string> datasets;   ///< spec order
  std::vector<CampaignRunResult> runs; ///< datasets-major, seeds-minor

  [[nodiscard]] std::size_t total_cache_hits() const;
  [[nodiscard]] std::size_t total_cache_misses() const;
  [[nodiscard]] std::size_t total_store_loaded() const;
  /// hits / (hits + misses); 0 when nothing was requested.
  [[nodiscard]] double cache_hit_rate() const;
  [[nodiscard]] std::size_t total_mcm_hits() const;
  [[nodiscard]] std::size_t total_mcm_misses() const;
  /// MCM plan-cache hit rate across all cells; 0 when nothing was planned.
  [[nodiscard]] double mcm_plan_hit_rate() const;

  /// Non-dominated union of one dataset's per-seed fronts (ascending
  /// area).  Cross-seed: a useful stability view, since every seed is an
  /// independent split + model.
  [[nodiscard]] std::vector<DesignPoint> merged_front(
      const std::string& dataset) const;

  /// Deterministic JSON of every per-run front and merged per-dataset
  /// front — no timing or cache stats, so a warm rerun's output is
  /// byte-identical to the cold run's (CI compares these files with cmp).
  [[nodiscard]] std::string fronts_json() const;

  /// Full JSON report: fronts plus baselines, cache statistics, and wall
  /// times (not byte-stable across runs — timings differ).
  [[nodiscard]] std::string report_json() const;

  /// Human-readable markdown: per-dataset front tables (area gain vs the
  /// run's baseline) and a cache/timing summary table.
  [[nodiscard]] std::string report_markdown() const;
};

/// Executes a CampaignSpec cell by cell.  Construction validates the spec
/// and spawns the shared worker pool; run() does the work and may be
/// called once per runner.
class CampaignRunner {
 public:
  /// \throws std::invalid_argument via CampaignSpec/GaConfig validation.
  explicit CampaignRunner(CampaignSpec spec);

  /// Runs every (dataset, seed) cell in spec order and returns the
  /// aggregated result.  With a store_dir, creates the directory and
  /// resumes from any fingerprint-matching stores inside it.
  /// \return the aggregated campaign outcome (all cells, spec order).
  CampaignResult run();

  /// One work-queue pass of the cell scheduler (run_cell_worker in
  /// pnm/core/cell_queue.hpp) over the cells in spec order: claims each
  /// available one (flock on `claims/<cell>.claim` under the store
  /// directory), runs it, and atomically publishes `cells/<cell>.cell`.
  /// Cells already published under the current cell_fingerprint() are
  /// skipped; cells whose claim is held by a live process are left to
  /// that process.  With `num_shards > 1` the pass additionally
  /// restricts itself to cells whose index modulo `num_shards` equals
  /// `shard_id` (static sharding — no two shards ever contend).
  ///
  /// One pass by each of N cooperating workers covers every cell unless
  /// a worker died mid-cell; its claim is already released, so any later
  /// pass (or a collect-retry loop) picks the orphan up.  Requires a
  /// non-empty CampaignSpec::store_dir — the claim files, cell files,
  /// and eval stores all live there.
  ///
  /// \param shard_id    this worker's static shard (< num_shards).
  /// \param num_shards  static shard count; 1 = pure dynamic claiming.
  /// \return per-pass counters (cells run / skipped and why).
  /// \throws std::invalid_argument  when store_dir is empty or
  ///         shard_id >= num_shards or num_shards == 0.
  /// \throws std::runtime_error  when a computed cell cannot be
  ///         published to disk.
  CampaignWorkerResult run_worker(std::size_t shard_id = 0,
                                  std::size_t num_shards = 1);

  [[nodiscard]] const CampaignSpec& spec() const { return spec_; }
  /// Shared evaluation workers (reused by every run of the campaign).
  /// \return the pool size.
  [[nodiscard]] std::size_t threads() const { return pool_.size(); }

 private:
  CampaignRunResult run_cell(const std::string& dataset, std::uint64_t seed);

  CampaignSpec spec_;
  ThreadPool pool_;
};

/// Reassembles a (possibly multi-process) worker campaign from the cell
/// files under `spec.store_dir` into the same CampaignResult a serial
/// run() returns — fronts byte-identical, cache/timing stats as measured
/// by whichever worker ran each cell.  Does not spawn a worker pool, so
/// it is safe to call from a supervisor that just forked workers.
///
/// \param spec  the campaign to collect; must name a store_dir.
/// \return the merged result; std::nullopt when any cell file is
///         missing, malformed, or stale (fingerprint mismatch) — run
///         another worker pass and collect again.
/// \throws std::invalid_argument  via spec validation, or when
///         spec.store_dir is empty.
std::optional<CampaignResult> collect_campaign(const CampaignSpec& spec);

}  // namespace pnm

#endif  // PNM_CORE_CAMPAIGN_HPP
