#include "pnm/core/eval.hpp"

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <utility>

#include "pnm/core/eval_store.hpp"
#include "pnm/core/prune.hpp"
#include "pnm/core/quantize.hpp"
#include "pnm/hw/proxy.hpp"
#include "pnm/util/fileio.hpp"
#include "pnm/util/rng.hpp"

namespace pnm {
// ---- Evaluator ----------------------------------------------------------

std::vector<DesignPoint> Evaluator::evaluate_batch(std::span<const Genome> genomes) {
  std::vector<DesignPoint> points;
  points.reserve(genomes.size());
  for (const Genome& genome : genomes) points.push_back(evaluate(genome));
  return points;
}

// ---- PipelineEvaluator --------------------------------------------------

namespace {

/// Compiles a genome's constraints into the trainer's live layout
/// (nn/trainer.hpp).  A weight is live when the mask keeps it, or when a
/// tie group holding a live weight holds it too: projecting that group
/// writes a mean into it after every step.  Every other weight is +0.0
/// after prune + cluster, the mask keeps it +0.0, and each group it sits
/// in averages only +0.0s, so dropping it changes no bit.
LiveLayout compile_live_layout(const Mlp& model, const PruneMask& mask,
                               const ClusterAssignment& clusters,
                               const std::vector<int>& weight_bits) {
  LiveLayout live(model.layer_count());
  for (std::size_t li = 0; li < live.size(); ++li) {
    const auto& keep = mask.layer_mask(li);
    const auto& groups = clusters.layer_groups(li);
    std::vector<std::uint8_t> is_live(keep.begin(), keep.end());
    for (bool grew = true; grew;) {
      grew = false;
      for (const auto& group : groups) {
        if (std::none_of(group.members.begin(), group.members.end(),
                         [&](std::size_t i) { return is_live.at(i) != 0; })) {
          continue;
        }
        for (const std::size_t i : group.members) {
          if (is_live.at(i) == 0) {
            is_live[i] = 1;
            grew = true;
          }
        }
      }
    }

    LiveLayer& layer = live[li];
    const std::size_t rows = model.layer(li).out_features();
    const std::size_t cols = model.layer(li).in_features();
    std::vector<std::size_t> position(is_live.size());
    layer.row_begin.push_back(0);
    for (std::size_t r = 0; r < rows; ++r) {
      for (std::size_t c = 0; c < cols; ++c) {
        const std::size_t i = r * cols + c;
        if (is_live[i] == 0) continue;
        position[i] = layer.size();
        if (keep[i] == 0) layer.rezero.push_back(layer.size());
        layer.index.push_back(i);
        layer.col.push_back(c);
      }
      layer.row_begin.push_back(layer.size());
    }
    for (const auto& group : groups) {
      if (group.members.empty() || is_live[group.members.front()] == 0) continue;
      std::vector<std::size_t>& tie = layer.ties.emplace_back();
      for (const std::size_t i : group.members) tie.push_back(position[i]);
    }
    layer.weight_bits = weight_bits[li];
  }
  return live;
}

}  // namespace

PipelineEvaluator::PipelineEvaluator(const Mlp& model, const DataSplit& split,
                                     const hw::TechLibrary& tech, EvalConfig config)
    : model_(&model), split_(&split), tech_(&tech), config_(std::move(config)) {
  split.train.validate();
  // Quantize the reporting split once; all genome evaluations stream the
  // same read-only codes (the GA re-scores thousands of candidates on
  // identical data, so re-deriving them per genome was pure waste).
  reporting_set_ = quantize_dataset(config_.use_test_set ? split.test : split.val,
                                    config_.input_bits);
}

Mlp PipelineEvaluator::minimize_float(const Genome& genome) const {
  const std::size_t n_layers = model_->layer_count();
  if (genome.weight_bits.size() != n_layers || genome.sparsity_pct.size() != n_layers ||
      genome.clusters.size() != n_layers ||
      (!genome.acc_shift.empty() && genome.acc_shift.size() != n_layers)) {
    throw std::invalid_argument("PipelineEvaluator: genome arity mismatch");
  }

  Mlp candidate = *model_;
  Rng rng(config_.seed ^ fnv1a64(genome.key()));

  // 1. Prune.
  std::vector<double> sparsity(n_layers);
  for (std::size_t li = 0; li < n_layers; ++li) {
    sparsity[li] = static_cast<double>(genome.sparsity_pct[li]) / 100.0;
  }
  const PruneMask mask = magnitude_prune_per_layer(candidate, sparsity);

  // 2. Cluster (zeros pinned as one group per pool).
  const ClusterAssignment clusters =
      cluster_weights(candidate, genome.clusters, rng, config_.cluster_scope);

  // 3. Fine-tune with all constraints live: STE quantization in the
  //    forward pass, mask + cluster ties re-imposed after each step, over
  //    only the weights those constraints leave live.
  if (config_.finetune_epochs > 0) {
    TrainConfig ft = config_.train;
    ft.epochs = config_.finetune_epochs;
    ft.lr = config_.train.lr * 0.3;  // gentler: we are repairing, not learning
    Trainer trainer(ft);
    QuantSpec spec;
    spec.weight_bits = genome.weight_bits;
    spec.input_bits = config_.input_bits;
    spec.validate(n_layers);
    // NOTE: the QAT view models weight quantization only; accumulator
    // truncation is applied post-hoc by the integer model (like the paper
    // applies its approximations after training).
    trainer.fit_live(candidate, split_->train, rng,
                     compile_live_layout(candidate, mask, clusters, spec.weight_bits));
  }
  return candidate;
}

QuantizedMlp PipelineEvaluator::realize(const Genome& genome) const {
  const Mlp candidate = minimize_float(genome);
  QuantSpec spec;
  spec.weight_bits = genome.weight_bits;
  spec.input_bits = config_.input_bits;
  spec.acc_shift = genome.acc_shift;
  return QuantizedMlp::from_float(candidate, spec);
}

hw::BespokeOptions PipelineEvaluator::options_for(const Genome& genome) const {
  hw::BespokeOptions options = config_.bespoke;
  if (config_.share_only_when_clustered) {
    bool any_clustered = false;
    for (int k : genome.clusters) any_clustered |= (k > 0);
    options.share_products = any_clustered;
  }
  // Cross-coefficient MCM sharing rides on the shared-product table; a
  // per-connection datapath has no coefficient set to share across, so
  // the knob is normalized off here to keep proxy and netlist costs (and
  // cache keys) consistent with what the generator would build.
  if (!options.share_products) options.share_subexpressions = false;
  return options;
}

DesignPoint PipelineEvaluator::evaluate(const Genome& genome) {
  const QuantizedMlp qmodel = realize(genome);

  DesignPoint point;
  point.technique = "ga";
  point.config = genome.key();
  point.accuracy = qmodel.accuracy(reporting_set());
  measure(point, qmodel, options_for(genome));
  return point;
}

// ---- ProxyEvaluator / NetlistEvaluator ----------------------------------

void ProxyEvaluator::measure(DesignPoint& point, const QuantizedMlp& qmodel,
                             const hw::BespokeOptions& options) const {
  point.area_mm2 = hw::estimate_area_mm2(qmodel, tech(), options);
}

void NetlistEvaluator::measure(DesignPoint& point, const QuantizedMlp& qmodel,
                               const hw::BespokeOptions& options) const {
  const hw::BespokeCircuit circuit(qmodel, options);
  point.area_mm2 = circuit.area_mm2(tech());
  point.power_uw = circuit.power_uw(tech());
  point.delay_ms = circuit.critical_path_ms(tech());
}

// ---- CachedEvaluator ----------------------------------------------------

CachedEvaluator::CachedEvaluator(Evaluator& inner, EvalStore& store)
    : inner_(&inner), store_(&store) {
  // Preload everything the store holds: a warm process starts with the
  // cold process's full cache and re-evaluates nothing it already saw.
  for (auto& [key, point] : store.entries()) {
    cache_.emplace(std::move(key), point);
  }
  loaded_ = cache_.size();
}

DesignPoint CachedEvaluator::evaluate(const Genome& genome) {
  const std::string key = genome.key();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (const auto it = cache_.find(key); it != cache_.end()) {
      ++hits_;
      return it->second;
    }
    ++misses_;
  }
  // Evaluate outside the lock so concurrent misses on *different* genomes
  // proceed in parallel.  Racing misses on the same genome both compute
  // (identical, deterministic results) and the second insert is a no-op.
  DesignPoint point = inner_->evaluate(genome);
  if (store_) store_->put(key, point);  // incremental flush (own lock)
  std::lock_guard<std::mutex> lock(mutex_);
  cache_.emplace(key, point);
  return point;
}

std::vector<DesignPoint> CachedEvaluator::evaluate_batch(
    std::span<const Genome> genomes) {
  // Serialize each genome exactly once up front: the same key string is
  // used for the lookup, the miss bookkeeping, and the insert (key() walks
  // and formats the whole genome, so recomputing it per phase was the
  // second-largest cost of a fully-cached generation).
  std::vector<std::string> keys;
  keys.reserve(genomes.size());
  for (const Genome& genome : genomes) keys.push_back(genome.key());

  std::vector<DesignPoint> points(genomes.size());
  std::vector<std::size_t> miss_index;     // positions to fill from the inner batch
  std::vector<Genome> miss_genomes;        // distinct uncached genomes, first-seen order
  std::vector<const std::string*> miss_keys;  // their keys, same order
  std::unordered_map<std::string, std::size_t> miss_of_key;  // key -> miss_genomes slot
  std::vector<std::size_t> miss_slot;      // per miss_index entry

  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (std::size_t i = 0; i < genomes.size(); ++i) {
      if (const auto it = cache_.find(keys[i]); it != cache_.end()) {
        ++hits_;
        points[i] = it->second;
        continue;
      }
      ++misses_;
      const auto [slot_it, inserted] = miss_of_key.emplace(keys[i], miss_genomes.size());
      if (inserted) {
        miss_genomes.push_back(genomes[i]);
        miss_keys.push_back(&keys[i]);
      }
      miss_index.push_back(i);
      miss_slot.push_back(slot_it->second);
    }
  }

  if (!miss_genomes.empty()) {
    const std::vector<DesignPoint> fresh = inner_->evaluate_batch(miss_genomes);
    if (store_) {
      for (std::size_t m = 0; m < miss_genomes.size(); ++m) {
        store_->put(*miss_keys[m], fresh[m]);  // incremental flush (own lock)
      }
    }
    std::lock_guard<std::mutex> lock(mutex_);
    for (std::size_t m = 0; m < miss_genomes.size(); ++m) {
      cache_.emplace(*miss_keys[m], fresh[m]);
    }
    for (std::size_t k = 0; k < miss_index.size(); ++k) {
      points[miss_index[k]] = fresh[miss_slot[k]];
    }
  }
  return points;
}

std::size_t CachedEvaluator::hits() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return hits_;
}

std::size_t CachedEvaluator::misses() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return misses_;
}

std::size_t CachedEvaluator::loaded() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return loaded_;
}

std::size_t CachedEvaluator::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return cache_.size();
}

void CachedEvaluator::clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  cache_.clear();
  hits_ = 0;
  misses_ = 0;
  loaded_ = 0;
}

// ---- ParallelEvaluator --------------------------------------------------

std::vector<DesignPoint> ParallelEvaluator::evaluate_batch(
    std::span<const Genome> genomes) {
  std::vector<DesignPoint> points(genomes.size());
  pool_->parallel_for(genomes.size(), [this, genomes, &points](std::size_t i) {
    points[i] = inner_->evaluate(genomes[i]);
  });
  return points;
}

}  // namespace pnm
