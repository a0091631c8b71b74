#include "pnm/core/flow.hpp"

#include <cmath>
#include <sstream>
#include <stdexcept>
#include <unordered_set>

#include "pnm/data/synth.hpp"
#include "pnm/nn/metrics.hpp"
#include "pnm/util/table.hpp"

namespace pnm {

MinimizationFlow::MinimizationFlow(FlowConfig config)
    : config_(std::move(config)), tech_(&hw::TechLibrary::by_name(config_.tech_name)) {}

MinimizationFlow::MinimizationFlow(FlowConfig config, Dataset dataset)
    : config_(std::move(config)),
      external_data_(std::move(dataset)),
      tech_(&hw::TechLibrary::by_name(config_.tech_name)) {}

std::vector<std::size_t> MinimizationFlow::default_hidden(const std::string& dataset_name) {
  // One hidden layer at printed scale (cf. the topologies of Mubarik et
  // al., MICRO 2020, which keep bespoke MLPs to a handful of neurons).
  if (dataset_name == "whitewine") return {8};
  if (dataset_name == "redwine") return {6};
  if (dataset_name == "pendigits") return {10};
  if (dataset_name == "seeds") return {4};
  return {6};
}

void MinimizationFlow::prepare() {
  if (prepared_) return;
  Dataset data = external_data_ ? *external_data_
                                : make_named_dataset(config_.dataset_name, config_.seed);
  data.validate();

  Rng rng(config_.seed);
  split_ = stratified_split(data, kTrainFrac, kValFrac, kTestFrac, rng);
  // A class feeds validation and test only from 4 samples up, so a tiny
  // (or noisily labelled) dataset can leave a split empty, and nothing
  // could be scored on it: refuse before training.
  if (split_.val.size() == 0 || split_.test.size() == 0) {
    throw std::invalid_argument(
        "MinimizationFlow: dataset '" + data.name + "' splits " +
        std::to_string(split_.train.size()) + "/" + std::to_string(split_.val.size()) +
        "/" + std::to_string(split_.test.size()) +
        " into train/validation/test; validation and test need a sample each");
  }
  scale_split(split_, scaler_);

  // Topology: inputs -> hidden -> classes.
  std::vector<std::size_t> hidden =
      config_.hidden.empty() ? default_hidden(config_.dataset_name) : config_.hidden;
  std::vector<std::size_t> topology;
  topology.push_back(data.n_features());
  topology.insert(topology.end(), hidden.begin(), hidden.end());
  topology.push_back(data.n_classes);

  model_ = Mlp(topology, rng);
  Trainer trainer(config_.train);
  trainer.fit(model_, split_.train, rng);
  float_test_accuracy_ = accuracy(model_, split_.test);
  prepared_ = true;  // the evaluators require this

  // Baseline: the unminimized bespoke design at baseline precision.
  Genome baseline_genome;
  baseline_genome.weight_bits.assign(model_.layer_count(), kBaselineWeightBits);
  baseline_genome.sparsity_pct.assign(model_.layer_count(), 0);
  baseline_genome.clusters.assign(model_.layer_count(), 0);
  baseline_ = netlist_evaluator(config_.finetune_epochs, /*use_test_set=*/true)
                  .evaluate(baseline_genome);
  baseline_.technique = "baseline";
  baseline_.config = std::to_string(kBaselineWeightBits) + "b";
}

const DataSplit& MinimizationFlow::data() const {
  if (!prepared_) throw std::logic_error("MinimizationFlow: call prepare() first");
  return split_;
}

const Mlp& MinimizationFlow::float_model() const {
  if (!prepared_) throw std::logic_error("MinimizationFlow: call prepare() first");
  return model_;
}

double MinimizationFlow::float_test_accuracy() const {
  if (!prepared_) throw std::logic_error("MinimizationFlow: call prepare() first");
  return float_test_accuracy_;
}

const DesignPoint& MinimizationFlow::baseline() const {
  if (!prepared_) throw std::logic_error("MinimizationFlow: call prepare() first");
  return baseline_;
}

EvalConfig MinimizationFlow::eval_config_for(const FlowConfig& config,
                                             std::size_t finetune_epochs,
                                             bool use_test_set) {
  EvalConfig eval;
  eval.seed = config.seed;
  eval.input_bits = config.input_bits;
  eval.train = config.train;
  eval.finetune_epochs = finetune_epochs;
  eval.cluster_scope = config.cluster_scope;
  eval.share_only_when_clustered = config.share_only_when_clustered;
  eval.bespoke = config.bespoke;
  eval.use_test_set = use_test_set;
  return eval;
}

ProxyEvaluator MinimizationFlow::proxy_evaluator(std::size_t finetune_epochs,
                                                 bool use_test_set) const {
  if (!prepared_) throw std::logic_error("MinimizationFlow: call prepare() first");
  return ProxyEvaluator(model_, split_, *tech_,
                        eval_config_for(config_, finetune_epochs, use_test_set));
}

NetlistEvaluator MinimizationFlow::netlist_evaluator(std::size_t finetune_epochs,
                                                     bool use_test_set) const {
  if (!prepared_) throw std::logic_error("MinimizationFlow: call prepare() first");
  return NetlistEvaluator(model_, split_, *tech_,
                          eval_config_for(config_, finetune_epochs, use_test_set));
}

QuantizedMlp MinimizationFlow::realize_genome(const Genome& genome,
                                              std::size_t finetune_epochs) const {
  return proxy_evaluator(finetune_epochs).realize(genome);
}

namespace {

/// Builds + batch-evaluates one sweep through the exact-netlist backend,
/// fanned across cores (bit-identical to serial; see eval.hpp).
std::vector<DesignPoint> run_sweep(NetlistEvaluator& exact,
                                   std::vector<Genome> genomes,
                                   const std::string& technique,
                                   const std::vector<std::string>& configs) {
  ParallelEvaluator parallel(exact);
  std::vector<DesignPoint> points = parallel.evaluate_batch(genomes);
  for (std::size_t i = 0; i < points.size(); ++i) {
    points[i].technique = technique;
    points[i].config = configs[i];
  }
  return points;
}

}  // namespace

std::vector<DesignPoint> MinimizationFlow::sweep_quantization(int lo_bits, int hi_bits) {
  if (!prepared_) throw std::logic_error("MinimizationFlow: call prepare() first");
  if (lo_bits < 2 || hi_bits < lo_bits) {
    throw std::invalid_argument("sweep_quantization: bad bit range");
  }
  std::vector<Genome> genomes;
  std::vector<std::string> configs;
  for (int bits = lo_bits; bits <= hi_bits; ++bits) {
    Genome genome;
    genome.weight_bits.assign(model_.layer_count(), bits);
    genome.sparsity_pct.assign(model_.layer_count(), 0);
    genome.clusters.assign(model_.layer_count(), 0);
    genomes.push_back(std::move(genome));
    configs.push_back(std::to_string(bits) + "b");
  }
  NetlistEvaluator exact = netlist_evaluator(config_.finetune_epochs, true);
  return run_sweep(exact, std::move(genomes), "quant", configs);
}

std::vector<DesignPoint> MinimizationFlow::sweep_pruning(
    const std::vector<double>& sparsities) {
  if (!prepared_) throw std::logic_error("MinimizationFlow: call prepare() first");
  std::vector<Genome> genomes;
  std::vector<std::string> configs;
  for (double s : sparsities) {
    Genome genome;
    genome.weight_bits.assign(model_.layer_count(), kBaselineWeightBits);
    genome.sparsity_pct.assign(model_.layer_count(),
                               static_cast<int>(std::llround(s * 100.0)));
    genome.clusters.assign(model_.layer_count(), 0);
    genomes.push_back(std::move(genome));
    std::ostringstream cfg;
    cfg << "s=" << format_fixed(s, 2);
    configs.push_back(cfg.str());
  }
  NetlistEvaluator exact = netlist_evaluator(config_.finetune_epochs, true);
  return run_sweep(exact, std::move(genomes), "prune", configs);
}

std::vector<DesignPoint> MinimizationFlow::sweep_clustering(
    const std::vector<int>& cluster_counts) {
  if (!prepared_) throw std::logic_error("MinimizationFlow: call prepare() first");
  std::vector<Genome> genomes;
  std::vector<std::string> configs;
  for (int k : cluster_counts) {
    if (k < 1) throw std::invalid_argument("sweep_clustering: cluster count must be >= 1");
    Genome genome;
    genome.weight_bits.assign(model_.layer_count(), kBaselineWeightBits);
    genome.sparsity_pct.assign(model_.layer_count(), 0);
    genome.clusters.assign(model_.layer_count(), k);
    genomes.push_back(std::move(genome));
    configs.push_back("k=" + std::to_string(k));
  }
  NetlistEvaluator exact = netlist_evaluator(config_.finetune_epochs, true);
  return run_sweep(exact, std::move(genomes), "cluster", configs);
}

std::vector<DesignPoint> MinimizationFlow::sweep_truncation(
    const std::vector<int>& shifts) {
  if (!prepared_) throw std::logic_error("MinimizationFlow: call prepare() first");
  std::vector<Genome> genomes;
  std::vector<std::string> configs;
  for (int s : shifts) {
    if (s < 0) throw std::invalid_argument("sweep_truncation: negative shift");
    Genome genome;
    genome.weight_bits.assign(model_.layer_count(), kBaselineWeightBits);
    genome.sparsity_pct.assign(model_.layer_count(), 0);
    genome.clusters.assign(model_.layer_count(), 0);
    genome.acc_shift.assign(model_.layer_count(), s);
    genomes.push_back(std::move(genome));
    configs.push_back("t=" + std::to_string(s));
  }
  NetlistEvaluator exact = netlist_evaluator(config_.finetune_epochs, true);
  return run_sweep(exact, std::move(genomes), "truncate", configs);
}

namespace {

/// The distinct genomes of the search's final front, first copy first.
/// The final population can hold one genome several times; each copy
/// would be fine-tuned and netlisted again for a point pareto_front drops.
std::vector<Genome> front_genomes(const GaResult& raw) {
  std::vector<Genome> genomes;
  std::unordered_set<std::string> seen;
  for (const auto& member : raw.front) {
    if (seen.insert(member.genome.key()).second) genomes.push_back(member.genome);
  }
  return genomes;
}

}  // namespace

MinimizationFlow::GaOutcome MinimizationFlow::run_ga(Evaluator& fitness,
                                                     const GaConfig& ga) {
  if (!prepared_) throw std::logic_error("MinimizationFlow: call prepare() first");
  Rng rng(config_.seed + 0x9A);

  GaOutcome outcome;
  outcome.raw = nsga2_search(ga, model_.layer_count(), fitness, rng);

  // Re-evaluate the front with exact netlist costs and test accuracy,
  // fanned across cores (bit-identical to serial; see eval.hpp).  Built
  // only now, after the search: no idle worker pool or pre-quantized
  // test split is held alive while the GA runs.
  NetlistEvaluator exact = netlist_evaluator(config_.finetune_epochs, true);
  ParallelEvaluator parallel(exact);
  outcome.front = pareto_front(parallel.evaluate_batch(front_genomes(outcome.raw)));
  return outcome;
}

MinimizationFlow::GaOutcome MinimizationFlow::run_ga(Evaluator& fitness,
                                                     Evaluator& front_eval,
                                                     const GaConfig& ga) {
  if (!prepared_) throw std::logic_error("MinimizationFlow: call prepare() first");
  Rng rng(config_.seed + 0x9A);

  GaOutcome outcome;
  outcome.raw = nsga2_search(ga, model_.layer_count(), fitness, rng);
  outcome.front = pareto_front(front_eval.evaluate_batch(front_genomes(outcome.raw)));
  return outcome;
}

}  // namespace pnm
