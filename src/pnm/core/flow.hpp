#ifndef PNM_CORE_FLOW_HPP
#define PNM_CORE_FLOW_HPP

/// \file flow.hpp
/// \brief End-to-end minimization flows: the library's main entry point
///        and the engine behind every figure of the paper.
///
/// A MinimizationFlow owns one classification task: it synthesizes (or
/// accepts) the dataset, trains the float MLP, establishes the
/// unminimized bespoke baseline (Mubarik-style, 8-bit weights), and hands
/// out configured pnm::Evaluator backends over that prepared state.  The
/// sweeps (Fig. 1) and the combined hardware-aware GA (Fig. 2) are thin
/// drivers on top: every candidate goes through the same pipeline
///   prune -> cluster -> fine-tune (masked, tied, QAT/STE) -> integer
///   model -> bespoke cost (exact netlist or fast proxy) + accuracy,
/// which lives in pnm/core/eval.hpp and can be cached, parallelized, or
/// swapped per backend without touching the flow.

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "pnm/core/cluster.hpp"
#include "pnm/core/eval.hpp"
#include "pnm/core/ga.hpp"
#include "pnm/core/pareto.hpp"
#include "pnm/core/qmlp.hpp"
#include "pnm/data/dataset.hpp"
#include "pnm/data/scaler.hpp"
#include "pnm/hw/bespoke.hpp"
#include "pnm/hw/tech.hpp"
#include "pnm/nn/mlp.hpp"
#include "pnm/nn/trainer.hpp"

namespace pnm {

/// Every flow's stratified train/validation/test split of its dataset.
inline constexpr double kTrainFrac = 0.6;
inline constexpr double kValFrac = 0.2;
inline constexpr double kTestFrac = 0.2;

/// Weight precision of the unminimized bespoke baseline (Mubarik-style),
/// also the precision the standalone pruning, clustering and truncation
/// sweeps keep.
inline constexpr int kBaselineWeightBits = 8;

/// Configuration of one end-to-end flow.
struct FlowConfig {
  /// One of "whitewine", "redwine", "pendigits", "seeds" — or anything if
  /// `dataset` is supplied explicitly.
  std::string dataset_name = "seeds";
  std::uint64_t seed = 42;

  /// Hidden-layer widths; empty selects the per-dataset printed-scale
  /// default (see default_hidden()).
  std::vector<std::size_t> hidden;

  int input_bits = 4;  ///< sensor word width (printed ADC scale)

  /// Printed standard-cell library the flow prices circuits in, by
  /// hw::TechLibrary::by_name token ("egt", "egt_lowcost").  A scenario
  /// axis: the figures' normalized ratios should survive a node change.
  std::string tech_name = "egt";

  TrainConfig train{};              ///< baseline training
  std::size_t finetune_epochs = 8;  ///< per-technique fine-tuning budget

  /// Options for circuit generation and the matching area proxy —
  /// including hw/mcm.hpp's share_subexpressions knob, which flows
  /// through every evaluator, sweep, and the Fig. 2 GA fitness so the
  /// search sees the cross-coefficient adder-graph savings.
  hw::BespokeOptions bespoke{};

  /// Paper-faithful sharing policy (§II-C): bespoke RTL generators emit
  /// one constant multiplier per connection, and logic synthesis does not
  /// merge distinct arithmetic operators — *clustering* is what enables
  /// multiplier sharing.  When true (default), circuits are generated
  /// with cross-neuron product sharing only for designs whose genome
  /// actually clusters at least one layer; baseline/quantization/pruning
  /// designs use the per-connection datapath of the baseline [1].  Set to
  /// false to force config.bespoke.share_products for every design
  /// (an idealized synthesis with global resource sharing).
  bool share_only_when_clustered = true;

  /// Weight-sharing scope.  kPerLayer is Deep Compression's codebook (the
  /// paper's [5]): k distinct values per layer, which bounds every input
  /// column by k as well — the strongest multiplier sharing and the
  /// accuracy behaviour the paper reports (clustering meets the 5%
  /// threshold only on the wines).  kPerColumn is the gentler variant.
  ClusterScope cluster_scope = ClusterScope::kPerLayer;
};

/// End-to-end minimization flow for one dataset.
class MinimizationFlow {
 public:
  /// Uses the named synthetic dataset (DESIGN.md §4).
  explicit MinimizationFlow(FlowConfig config);

  /// Uses caller-provided data (e.g. real UCI CSVs) instead.
  MinimizationFlow(FlowConfig config, Dataset dataset);

  /// Generates/splits/scales data, trains the float model, and evaluates
  /// the baseline design.  Must be called once before anything else.
  void prepare();

  [[nodiscard]] bool prepared() const { return prepared_; }
  [[nodiscard]] const FlowConfig& config() const { return config_; }
  [[nodiscard]] const DataSplit& data() const;
  [[nodiscard]] const Mlp& float_model() const;
  [[nodiscard]] double float_test_accuracy() const;
  /// The unminimized bespoke design (technique "baseline").
  [[nodiscard]] const DesignPoint& baseline() const;
  [[nodiscard]] const hw::TechLibrary& tech() const { return *tech_; }

  // ---- Evaluator factories ----------------------------------------------
  // The evaluators hold references to this flow's prepared state; the flow
  // must outlive them.  Compose freely with the eval.hpp decorators, e.g.
  //   auto proxy = flow.proxy_evaluator(2);
  //   ParallelEvaluator fitness(proxy);
  //   auto outcome = flow.run_ga(fitness, ga);
  // (run_ga/nsga2_search already memoize within one search; wrap the stack
  // in a CachedEvaluator to additionally reuse results across searches.)

  /// EvalConfig for a flow (seed, bits, train recipe, sharing policy) at
  /// the given fine-tuning budget / reporting split — the single source
  /// of truth behind the evaluator factories and the cell runner's
  /// fingerprints (eval_fingerprint and ScenarioSpec::fingerprint must
  /// hash exactly the config the evaluators will run under, so both call
  /// this).
  ///
  /// \param config           the flow configuration to derive from.
  /// \param finetune_epochs  fitness-pipeline fine-tuning budget.
  /// \param use_test_set     reporting split (GA fitness uses validation).
  /// \return the evaluation-side configuration.
  [[nodiscard]] static EvalConfig eval_config_for(const FlowConfig& config,
                                                  std::size_t finetune_epochs,
                                                  bool use_test_set);

  /// Fast analytic-proxy backend (the GA inner loop's default fitness).
  [[nodiscard]] ProxyEvaluator proxy_evaluator(std::size_t finetune_epochs,
                                               bool use_test_set = false) const;

  /// Exact-netlist backend (area + power + delay; ~65x the proxy's cost).
  [[nodiscard]] NetlistEvaluator netlist_evaluator(std::size_t finetune_epochs,
                                                   bool use_test_set = false) const;

  // ---- Figure 1: standalone sweeps --------------------------------------

  /// QAT sweep over weight bit-widths [lo_bits, hi_bits] (paper: 2..7).
  std::vector<DesignPoint> sweep_quantization(int lo_bits = 2, int hi_bits = 7);

  /// Pruning sweep over sparsity fractions (paper: 0.2..0.6).
  std::vector<DesignPoint> sweep_pruning(
      const std::vector<double>& sparsities = {0.2, 0.3, 0.4, 0.5, 0.6});

  /// Column-wise weight clustering sweep over cluster counts.
  std::vector<DesignPoint> sweep_clustering(
      const std::vector<int>& cluster_counts = {2, 3, 4, 6, 8});

  /// Extension: precision-scaled accumulation sweep (product-LSB
  /// truncation at baseline weight precision; see QuantSpec::acc_shift).
  std::vector<DesignPoint> sweep_truncation(
      const std::vector<int>& shifts = {1, 2, 3, 4, 5});

  // ---- Figure 2: combined hardware-aware GA ------------------------------

  struct GaOutcome {
    GaResult raw;                    ///< genomes + inner-loop fitness
    std::vector<DesignPoint> front;  ///< exact-netlist re-evaluated front
  };

  /// NSGA-II over per-layer {bits, sparsity, clusters} with a caller-built
  /// fitness backend (typically Cached(Parallel(proxy_evaluator(2)))); the
  /// returned front is always re-evaluated with exact netlist costs and
  /// test accuracy.  Deterministic for a fixed FlowConfig::seed no matter
  /// how the evaluator stack is composed.
  GaOutcome run_ga(Evaluator& fitness, const GaConfig& ga = {});

  /// Same search, but the front re-evaluation also goes through a
  /// caller-built stack.  `front_eval` must measure exact netlist cost on
  /// the test split — i.e. wrap netlist_evaluator(config().finetune_epochs,
  /// /*use_test_set=*/true) in any decorators you like.  This is how the
  /// cell runner persists and parallelizes the exact re-evaluation too
  /// (CachedEvaluator over an EvalStore); results are bit-identical to the
  /// two-argument overload by evaluator-composition determinism.
  GaOutcome run_ga(Evaluator& fitness, Evaluator& front_eval, const GaConfig& ga);

  // ---- Shared evaluation pipeline ---------------------------------------

  /// The minimized integer model for a genome (for circuit export etc.).
  QuantizedMlp realize_genome(const Genome& genome, std::size_t finetune_epochs) const;

  /// Printed-scale default hidden widths for the four paper datasets.
  static std::vector<std::size_t> default_hidden(const std::string& dataset_name);

 private:
  FlowConfig config_;
  std::optional<Dataset> external_data_;
  const hw::TechLibrary* tech_ = nullptr;  ///< resolved from config_.tech_name

  bool prepared_ = false;
  DataSplit split_;
  MinMaxScaler scaler_;
  Mlp model_;
  double float_test_accuracy_ = 0.0;
  DesignPoint baseline_;
};

}  // namespace pnm

#endif  // PNM_CORE_FLOW_HPP
