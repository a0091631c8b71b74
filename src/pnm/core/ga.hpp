#ifndef PNM_CORE_GA_HPP
#define PNM_CORE_GA_HPP

/// \file ga.hpp
/// \brief Hardware-aware multi-objective genetic algorithm (paper Fig. 2).
///
/// The paper combines quantization, pruning and weight clustering with "a
/// hardware-aware Genetic Algorithm"; this module implements it as NSGA-II
/// (fast non-dominated sort + crowding distance + binary tournament) over
/// a per-layer genome:
///
///   genome = { weight_bits[layer], sparsity%[layer], clusters[layer] }
///
/// Fitness is bi-objective: maximize validation accuracy of the minimized
/// classifier, minimize its bespoke area ("hardware-aware": the area comes
/// from the CSD/range cost model or the exact netlist generator — the GA
/// never sees FLOPs or parameter counts, only printed-silicon cost).
/// The genome->objectives evaluation is injected as a pnm::Evaluator
/// (pnm/core/eval.hpp): the search core batches all uncached candidates of
/// a generation through Evaluator::evaluate_batch, so a ParallelEvaluator
/// backend fans fitness evaluation across threads with no GA change.
/// Analytic toy problems in tests wrap their objective in an Evaluator too
/// (tests/function_evaluator.hpp); the production evaluators live in
/// pnm::MinimizationFlow.

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "pnm/util/rng.hpp"

namespace pnm {

class Evaluator;  // pnm/core/eval.hpp

/// Per-layer minimization decisions for one candidate design.
struct Genome {
  std::vector<int> weight_bits;   ///< quantization precision per layer
  std::vector<int> sparsity_pct;  ///< pruning percentage per layer (0..90)
  std::vector<int> clusters;      ///< weight codebook size per layer, 0 = off
  /// Accumulator truncation per layer (QuantSpec::acc_shift); empty means
  /// exact accumulation (the paper's setting — truncation is this
  /// library's approximate-computing extension).
  std::vector<int> acc_shift;

  bool operator==(const Genome&) const = default;

  /// Stable text key, e.g. "b4,3|s20,40|c0,4" (plus "|t1,2" when the
  /// truncation genes are present); also the evaluation-cache key.
  [[nodiscard]] std::string key() const;
};

/// The per-layer search space every genome is drawn from: weight bits in
/// [kMinWeightBits, kMaxWeightBits], then one sparsity and one cluster
/// choice (0 = clustering off).
inline constexpr int kMinWeightBits = 2;
inline constexpr int kMaxWeightBits = 8;
inline constexpr std::array<int, 8> kSparsityChoices = {0, 10, 20, 30, 40, 50, 60, 70};
inline constexpr std::array<int, 6> kClusterChoices = {0, 2, 3, 4, 6, 8};

/// NSGA-II rates: a child is a uniform crossover of two parents with
/// kCrossoverProb (else a copy of one), then each gene is redrawn with
/// kMutationProb.
inline constexpr double kCrossoverProb = 0.9;
inline constexpr double kMutationProb = 0.25;

/// The search budget and the optional truncation gene.
struct GaConfig {
  std::size_t population = 32;
  std::size_t generations = 20;
  /// Accumulator-truncation gene values.  The default {} disables the
  /// gene (paper-faithful search space); e.g. {0, 1, 2, 3, 4} lets the GA
  /// trade accumulator LSBs for area (extension).
  std::vector<int> acc_shift_choices = {};

  void validate() const;
};

/// One genome drawn uniformly from the search space.  Per layer it draws
/// the bits, the sparsity, the clusters and, when `acc_shift_choices` is
/// non-empty, the truncation gene, in that order.
Genome random_genome(std::size_t n_layers, Rng& rng,
                     const std::vector<int>& acc_shift_choices = {});

/// Objectives of one evaluated genome (accuracy to maximize, area to
/// minimize — kept in natural units; the GA internally negates accuracy).
struct GenomeFitness {
  double accuracy = 0.0;
  double area_mm2 = 0.0;
};

/// One evaluated design in the result set.
struct EvaluatedGenome {
  Genome genome;
  GenomeFitness fitness;
};

/// Outcome of a GA run.
struct GaResult {
  std::vector<EvaluatedGenome> front;       ///< final non-dominated designs
  std::vector<EvaluatedGenome> population;  ///< final full population
  std::size_t evaluations = 0;              ///< distinct genomes evaluated
};

/// NSGA-II building blocks, exposed for unit testing. Both objectives are
/// MINIMIZED.  Returns fronts of indices, best (rank 0) first.
std::vector<std::vector<std::size_t>> fast_non_dominated_sort(
    const std::vector<std::array<double, 2>>& objectives);

/// Crowding distance of each member of `front` (indices into objectives);
/// boundary points get +infinity.
std::vector<double> crowding_distances(
    const std::vector<std::array<double, 2>>& objectives,
    const std::vector<std::size_t>& front);

/// Runs the search.  n_layers sizes the genomes; evaluations are memoized
/// by genome key, so `GaResult::evaluations` counts distinct designs.
/// Each generation's distinct new candidates go through one
/// evaluate_batch() call — stack ParallelEvaluator under the evaluator to
/// parallelize the inner loop (bit-identical results, see eval.hpp).
GaResult nsga2_search(const GaConfig& config, std::size_t n_layers,
                      Evaluator& evaluate, Rng& rng);

}  // namespace pnm

#endif  // PNM_CORE_GA_HPP
