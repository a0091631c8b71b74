#ifndef PNM_CORE_EVAL_HPP
#define PNM_CORE_EVAL_HPP

/// \file eval.hpp
/// \brief Composable design-point evaluation: the genome -> DesignPoint
///        pipeline as pluggable, stackable backends.
///
/// Every candidate design goes through the same pipeline (prune ->
/// cluster -> fine-tune with QAT/STE -> integer model -> bespoke cost);
/// what varies is *how the cost is measured* (analytic proxy vs exact
/// netlist, a ~65x gap per candidate), *whether results are memoized*,
/// and *how many evaluations run at once*.  This header separates those
/// concerns behind one small interface:
///
///   * Evaluator          — evaluate() one genome / evaluate_batch() many;
///   * ProxyEvaluator     — pipeline + analytic area proxy (GA inner loop);
///   * NetlistEvaluator   — pipeline + exact netlist area/power/delay;
///   * CachedEvaluator    — decorator memoizing by Genome::key(), optionally
///                          persisted across processes by an EvalStore;
///   * ParallelEvaluator  — decorator fanning batches across a ThreadPool
///                          (owned, or borrowed so campaigns reuse workers).
///
/// Determinism: the pipeline derives its fine-tuning RNG from
/// `seed ^ fnv1a(genome.key())`, never from shared mutable state, so an
/// evaluation's result depends only on (prepared state, config, genome) —
/// not on which thread runs it or in which order.  ParallelEvaluator is
/// therefore bit-identical to serial evaluation by construction, and the
/// stack Cached(Parallel(Proxy)) is the recommended GA fitness backend.
///
/// MinimizationFlow (pnm/core/flow.hpp) owns the prepared state and hands
/// out configured ProxyEvaluator/NetlistEvaluator instances.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "pnm/core/cluster.hpp"
#include "pnm/core/ga.hpp"
#include "pnm/core/pareto.hpp"
#include "pnm/core/qmlp.hpp"
#include "pnm/data/dataset.hpp"
#include "pnm/hw/bespoke.hpp"
#include "pnm/hw/tech.hpp"
#include "pnm/nn/mlp.hpp"
#include "pnm/nn/trainer.hpp"
#include "pnm/util/thread_pool.hpp"

namespace pnm {

/// Everything one pipeline evaluation needs besides the genome and the
/// prepared flow state.  MinimizationFlow::eval_config_for() derives this
/// from its FlowConfig.
struct EvalConfig {
  std::uint64_t seed = 42;  ///< base seed; per-genome streams derive from it
  int input_bits = 4;       ///< sensor word width
  /// Base training recipe; fine-tuning runs `finetune_epochs` epochs at
  /// 0.3x the learning rate (repairing, not learning).
  TrainConfig train{};
  std::size_t finetune_epochs = 2;
  ClusterScope cluster_scope = ClusterScope::kPerLayer;
  /// Paper-faithful sharing policy (FlowConfig::share_only_when_clustered).
  bool share_only_when_clustered = true;
  hw::BespokeOptions bespoke{};
  /// Which split accuracy is reported on (GA fitness uses validation,
  /// figures use test).
  bool use_test_set = false;
};

/// Abstract design-point evaluator: genome in, measured design out.
class Evaluator {
 public:
  virtual ~Evaluator() = default;

  /// Evaluates one candidate design.  Implementations must be safe to
  /// call concurrently from multiple threads (ParallelEvaluator relies
  /// on this).
  ///
  /// \param genome  per-layer minimization decisions (core/ga.hpp).
  /// \return the measured design: accuracy on the reporting split plus
  ///         whatever cost fields the backend fills (see subclasses).
  virtual DesignPoint evaluate(const Genome& genome) = 0;

  /// Evaluates a batch; result[i] corresponds to genomes[i].  The default
  /// runs serially in order; decorators override to cache or parallelize.
  /// Any composition of the decorators in this header returns results
  /// bit-identical to the serial default (see the determinism note in the
  /// file comment).
  virtual std::vector<DesignPoint> evaluate_batch(std::span<const Genome> genomes);

  /// Short backend name for reports ("proxy", "netlist", "cached(...)").
  [[nodiscard]] virtual std::string name() const = 0;
};

/// Shared prune -> cluster -> QAT fine-tune -> integer-model pipeline over
/// prepared flow state; subclasses decide how the hardware cost of the
/// resulting integer model is measured.  Holds references only: the
/// MinimizationFlow (or other owner) must outlive the evaluator.
class PipelineEvaluator : public Evaluator {
 public:
  /// Validates the training split once (Dataset::validate), since every
  /// genome's fine-tune reads it and none re-checks it, and quantizes the
  /// reporting split (validation unless config.use_test_set) once at
  /// config.input_bits; every evaluation (on every thread) then reads that
  /// one shared code buffer instead of re-quantizing the split per genome.
  /// The split it does not report on is neither encoded nor validated
  /// here.  `split` must outlive the evaluator unchanged.
  /// \throws std::invalid_argument when the training or reporting split
  ///         fails validation.
  PipelineEvaluator(const Mlp& model, const DataSplit& split,
                    const hw::TechLibrary& tech, EvalConfig config);

  DesignPoint evaluate(const Genome& genome) override;

  /// The minimized float model for a genome (prune + cluster + fine-tune).
  [[nodiscard]] Mlp minimize_float(const Genome& genome) const;

  /// The minimized integer model for a genome (for circuit export etc.).
  [[nodiscard]] QuantizedMlp realize(const Genome& genome) const;

  [[nodiscard]] const EvalConfig& config() const { return config_; }

  /// The pre-quantized reporting split this evaluator scores accuracy on
  /// (validation unless config().use_test_set).
  [[nodiscard]] const QuantizedDataset& reporting_set() const { return reporting_set_; }

 protected:
  /// Fills the cost fields (area, and power/delay if available) of an
  /// evaluated design.  Must be const and thread-safe.
  virtual void measure(DesignPoint& point, const QuantizedMlp& qmodel,
                       const hw::BespokeOptions& options) const = 0;

  /// Sharing policy applied to one genome (share_only_when_clustered).
  [[nodiscard]] hw::BespokeOptions options_for(const Genome& genome) const;

  const hw::TechLibrary& tech() const { return *tech_; }

 private:
  const Mlp* model_;
  const DataSplit* split_;
  const hw::TechLibrary* tech_;
  EvalConfig config_;
  /// The reporting split, quantized once at construction; immutable
  /// afterwards, so concurrent evaluations share it without locking.
  QuantizedDataset reporting_set_;
};

/// Fast analytic area proxy (pnm/hw/proxy.hpp); leaves power/delay at 0.
/// The GA's inner-loop fitness backend.
class ProxyEvaluator final : public PipelineEvaluator {
 public:
  using PipelineEvaluator::PipelineEvaluator;
  [[nodiscard]] std::string name() const override { return "proxy"; }

 protected:
  void measure(DesignPoint& point, const QuantizedMlp& qmodel,
               const hw::BespokeOptions& options) const override;
};

/// Exact bespoke netlist: real area plus power and critical-path delay.
/// ~65x the proxy's cost per candidate; used for baselines, sweeps, and
/// front re-evaluation.
class NetlistEvaluator final : public PipelineEvaluator {
 public:
  using PipelineEvaluator::PipelineEvaluator;
  [[nodiscard]] std::string name() const override { return "netlist"; }

 protected:
  void measure(DesignPoint& point, const QuantizedMlp& qmodel,
               const hw::BespokeOptions& options) const override;
};

class EvalStore;  // pnm/core/eval_store.hpp

/// Memoizing decorator keyed on Genome::key().  Thread-safe; batches
/// forward only the distinct misses to the inner evaluator (as one inner
/// batch, so a parallel inner backend still fans out).
///
/// With a backing EvalStore the cache becomes persistent: previously
/// stored results are preloaded at construction (counted by loaded()) and
/// every fresh miss is appended + flushed to disk, so a later process
/// resumes exactly where this one stopped — results stay byte-identical
/// to an uncached cold run because evaluations are deterministic per
/// genome and the store round-trips doubles exactly.
class CachedEvaluator final : public Evaluator {
 public:
  /// In-memory-only cache (dies with this object).
  explicit CachedEvaluator(Evaluator& inner) : inner_(&inner) {}

  /// Cache persisted in `store`; preloads every record the store holds.
  /// The store must outlive this evaluator and its fingerprint must match
  /// the inner evaluator's configuration (see eval_fingerprint() in
  /// pnm/core/campaign.hpp) — the cache trusts the caller on that.
  CachedEvaluator(Evaluator& inner, EvalStore& store);

  DesignPoint evaluate(const Genome& genome) override;
  std::vector<DesignPoint> evaluate_batch(std::span<const Genome> genomes) override;
  [[nodiscard]] std::string name() const override {
    return (store_ ? "stored+cached(" : "cached(") + inner_->name() + ")";
  }

  /// Exact lookup statistics (one hit or one miss per requested genome).
  [[nodiscard]] std::size_t hits() const;
  [[nodiscard]] std::size_t misses() const;
  /// Entries preloaded from the backing store (0 without one).
  [[nodiscard]] std::size_t loaded() const;
  /// Number of distinct genomes stored.
  [[nodiscard]] std::size_t size() const;
  /// Drops the in-memory cache and resets hit/miss counters.  The backing
  /// store's on-disk records are untouched (they are still correct).
  void clear();

 private:
  Evaluator* inner_;
  EvalStore* store_ = nullptr;
  mutable std::mutex mutex_;
  std::unordered_map<std::string, DesignPoint> cache_;
  std::size_t hits_ = 0;
  std::size_t misses_ = 0;
  std::size_t loaded_ = 0;
};

/// Decorator fanning evaluate_batch() across a ThreadPool.  Results are
/// bit-identical to the serial order because pipeline evaluations derive
/// all randomness from the genome itself.  The inner evaluator must be
/// thread-safe (PipelineEvaluator and CachedEvaluator are).
class ParallelEvaluator final : public Evaluator {
 public:
  /// Owns its pool; threads == 0 selects the hardware concurrency.
  explicit ParallelEvaluator(Evaluator& inner, std::size_t threads = 0)
      : inner_(&inner), owned_(std::in_place, threads), pool_(&*owned_) {}

  /// Borrows an existing pool instead of spawning one — this is how a
  /// ScenarioRunner reuses one set of workers across every cell of a
  /// campaign or grid.  The pool must outlive this evaluator.
  ParallelEvaluator(Evaluator& inner, ThreadPool& pool)
      : inner_(&inner), pool_(&pool) {}

  DesignPoint evaluate(const Genome& genome) override { return inner_->evaluate(genome); }
  std::vector<DesignPoint> evaluate_batch(std::span<const Genome> genomes) override;
  [[nodiscard]] std::string name() const override {
    return "parallel(" + inner_->name() + ")x" + std::to_string(pool_->size());
  }

  [[nodiscard]] std::size_t threads() const { return pool_->size(); }

 private:
  Evaluator* inner_;
  std::optional<ThreadPool> owned_;  ///< absent when the pool is borrowed
  ThreadPool* pool_;
};

}  // namespace pnm

#endif  // PNM_CORE_EVAL_HPP
