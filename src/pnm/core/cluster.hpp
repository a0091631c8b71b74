#ifndef PNM_CORE_CLUSTER_HPP
#define PNM_CORE_CLUSTER_HPP

/// \file cluster.hpp
/// \brief Weight clustering for multiplier sharing (paper §II-C, after
///        Han et al.'s Deep Compression).
///
/// In a bespoke MLP every weight multiplies one specific input signal, so
/// forcing the weights *of the same input position* (one column of a
/// layer's weight matrix) to shared values lets all neurons consume the
/// same physical product: a column with k clusters needs at most k
/// multipliers no matter how many neurons the layer has.  Clustering is
/// 1-D k-means per column (k-means++ seeding, Lloyd iterations), with the
/// assignment kept so fine-tuning can keep cluster members tied together
/// (each group re-averaged after every step, as in Deep Compression: the
/// GA compiles the groups into Trainer::fit_live's live layout; project()
/// does the same through a Trainer projector).
///
/// Zero weights are pinned to a dedicated zero group per pool (composition
/// with §II-B): when every zero of a pool is a pruned weight, the group
/// averages zeros and pruned connections stay pruned.  Zeros the prune mask
/// keeps (exact zeros of the trained model) join the same group, though.
/// Fine-tuning then moves them off zero, and projecting the group writes
/// their mean into its pruned members too, so PruneMask::satisfied_by
/// fails after the fine-tune.

#include <vector>

#include "pnm/nn/mlp.hpp"
#include "pnm/util/rng.hpp"

namespace pnm {

/// Scope of weight sharing.
enum class ClusterScope {
  kPerColumn,  ///< k clusters per input position (the paper's §II-C)
  kPerLayer,   ///< k clusters over the whole layer (Deep Compression style)
};

/// Cluster structure of one network (groups of weights tied to one value).
class ClusterAssignment {
 public:
  /// One group of weight positions (layer-local flat indices) sharing a value.
  struct Group {
    std::vector<std::size_t> members;
  };

  ClusterAssignment() = default;
  explicit ClusterAssignment(std::size_t n_layers) : groups_(n_layers) {}

  [[nodiscard]] std::size_t layer_count() const { return groups_.size(); }
  [[nodiscard]] const std::vector<Group>& layer_groups(std::size_t li) const {
    return groups_.at(li);
  }
  std::vector<Group>& layer_groups(std::size_t li) { return groups_.at(li); }

  /// Sets every member of every group to the group's current mean — both
  /// the initial projection and the Deep-Compression fine-tuning step
  /// (per-step re-centering == averaging the members' gradient updates).
  void project(Mlp& model) const;

  /// True if all members of each group currently hold identical values.
  [[nodiscard]] bool satisfied_by(const Mlp& model) const;

  /// Distinct nonzero weight values in the given layer's column c.
  static std::size_t distinct_values_in_column(const Mlp& model, std::size_t li,
                                               std::size_t c);

 private:
  std::vector<std::vector<Group>> groups_;  ///< per layer
};

/// Clusters the model's weights in place and returns the assignment.
/// clusters_per_layer[li] == 0 disables clustering for that layer; values
/// >= 1 bound the number of distinct nonzero values per column (kPerColumn)
/// or per layer (kPerLayer).  Zero weights stay zero.
ClusterAssignment cluster_weights(Mlp& model, const std::vector<int>& clusters_per_layer,
                                  Rng& rng, ClusterScope scope = ClusterScope::kPerColumn);

/// 1-D k-means with k-means++ seeding; returns cluster index per value.
/// Exposed for testing.  k must be >= 1; empty clusters are re-seeded on
/// the farthest point.
std::vector<int> kmeans_1d(const std::vector<double>& values, int k, Rng& rng,
                           std::vector<double>* centroids_out = nullptr,
                           int max_iterations = 50);

}  // namespace pnm

#endif  // PNM_CORE_CLUSTER_HPP
