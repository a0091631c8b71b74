#ifndef PNM_CORE_PRUNE_HPP
#define PNM_CORE_PRUNE_HPP

/// \file prune.hpp
/// \brief Unstructured magnitude pruning (paper §II-B).
///
/// Bespoke circuits benefit from *unstructured* pruning directly: a pruned
/// connection's hard-wired multiplier disappears and its neuron's adder
/// chain loses an operand, so sparsity converts 1:1 into removed hardware
/// (no index/decompression logic as in programmable accelerators).  The
/// paper explores 20-60 % sparsity with fine-tuning; the mask is kept and
/// re-imposed after every fine-tuning step (the GA compiles it into
/// Trainer::fit_live's live layout; a Trainer projector does the same), so
/// fine-tuning cannot resurrect pruned weights, unless a clustering tie
/// group writes its mean into them (core/cluster.hpp).

#include <vector>

#include "pnm/nn/mlp.hpp"

namespace pnm {

/// Binary keep/drop mask over a network's weights.
class PruneMask {
 public:
  PruneMask() = default;

  /// All-keep mask shaped like the model.
  static PruneMask ones_like(const Mlp& model);

  /// Mask that keeps exactly the currently-nonzero weights.
  static PruneMask from_nonzero(const Mlp& model);

  [[nodiscard]] std::size_t layer_count() const { return keep_.size(); }
  [[nodiscard]] const std::vector<std::uint8_t>& layer_mask(std::size_t li) const {
    return keep_.at(li);
  }
  std::vector<std::uint8_t>& layer_mask(std::size_t li) { return keep_.at(li); }

  /// Fraction of dropped weights over the whole network.
  [[nodiscard]] double sparsity() const;

  /// Zeroes every dropped weight of the model in place.
  void apply(Mlp& model) const;

  /// True if every zero of the mask is a zero of the model.
  [[nodiscard]] bool satisfied_by(const Mlp& model) const;

 private:
  std::vector<std::vector<std::uint8_t>> keep_;  ///< row-major per layer
};

/// Prunes the globally smallest-magnitude weights until the requested
/// fraction of ALL weights is zero; returns the mask (already applied).
/// sparsity must be in [0, 1).
PruneMask magnitude_prune_global(Mlp& model, double sparsity);

/// Prunes each layer independently to its own sparsity level (the GA's
/// per-layer genes).  sparsity.size() must equal the layer count.
PruneMask magnitude_prune_per_layer(Mlp& model, const std::vector<double>& sparsity);

/// Structured pruning (§II-B's alternative): removes whole hidden neurons
/// instead of connections, producing a *smaller topology*.  Neurons are
/// ranked by the product of their incoming and outgoing L2 norms (a
/// standard saliency) and the lowest-ranked fraction is removed from every
/// hidden layer.  At least one neuron per layer survives.
///
/// The paper prefers unstructured pruning for bespoke circuits ("higher
/// accuracy for similar sparsity", and the hardware removes pruned
/// multipliers for free either way).  The structured-pruning ablation of
/// BENCH_paper.txt (bench/reproduce) compares both at matched levels and
/// states what it measured; it does not confirm that preference.
Mlp structured_prune(const Mlp& model, double neuron_fraction);

/// Saliency used by structured_prune, exposed for tests: importance of
/// each neuron of hidden layer li (incoming-row L2 * outgoing-column L2).
std::vector<double> neuron_saliency(const Mlp& model, std::size_t li);

}  // namespace pnm

#endif  // PNM_CORE_PRUNE_HPP
