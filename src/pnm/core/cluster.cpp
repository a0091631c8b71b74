#include "pnm/core/cluster.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <set>
#include <stdexcept>

namespace pnm {

void ClusterAssignment::project(Mlp& model) const {
  if (model.layer_count() != groups_.size()) {
    throw std::invalid_argument("ClusterAssignment::project: model mismatch");
  }
  for (std::size_t li = 0; li < groups_.size(); ++li) {
    auto& raw = model.layer(li).weights.raw();
    for (const auto& group : groups_[li]) {
      if (group.members.empty()) continue;
      double mean = 0.0;
      for (std::size_t idx : group.members) mean += raw.at(idx);
      mean /= static_cast<double>(group.members.size());
      for (std::size_t idx : group.members) raw.at(idx) = mean;
    }
  }
}

bool ClusterAssignment::satisfied_by(const Mlp& model) const {
  if (model.layer_count() != groups_.size()) return false;
  for (std::size_t li = 0; li < groups_.size(); ++li) {
    const auto& raw = model.layer(li).weights.raw();
    for (const auto& group : groups_[li]) {
      if (group.members.empty()) continue;
      const double v = raw.at(group.members.front());
      for (std::size_t idx : group.members) {
        if (raw.at(idx) != v) return false;
      }
    }
  }
  return true;
}

std::size_t ClusterAssignment::distinct_values_in_column(const Mlp& model, std::size_t li,
                                                         std::size_t c) {
  const auto& layer = model.layer(li);
  std::set<double> distinct;
  for (std::size_t r = 0; r < layer.out_features(); ++r) {
    const double v = layer.weights(r, c);
    if (v != 0.0) distinct.insert(v);
  }
  return distinct.size();
}

std::vector<int> kmeans_1d(const std::vector<double>& values, int k, Rng& rng,
                           std::vector<double>* centroids_out, int max_iterations) {
  if (k < 1) throw std::invalid_argument("kmeans_1d: k must be >= 1");
  if (values.empty()) {
    if (centroids_out) centroids_out->clear();
    return {};
  }
  const int n = static_cast<int>(values.size());
  const int kk = std::min(k, n);

  // k-means++ seeding.
  std::vector<double> centroids;
  centroids.reserve(static_cast<std::size_t>(kk));
  centroids.push_back(values[static_cast<std::size_t>(
      rng.uniform_int(static_cast<std::uint64_t>(n)))]);
  std::vector<double> d2(values.size());
  while (static_cast<int>(centroids.size()) < kk) {
    double total = 0.0;
    for (std::size_t i = 0; i < values.size(); ++i) {
      double best = std::numeric_limits<double>::infinity();
      for (double c : centroids) best = std::min(best, (values[i] - c) * (values[i] - c));
      d2[i] = best;
      total += best;
    }
    if (total <= 0.0) {
      // All points coincide with existing centroids; pad arbitrarily.
      centroids.push_back(values.front());
      continue;
    }
    double pick = rng.uniform() * total;
    std::size_t chosen = values.size() - 1;
    for (std::size_t i = 0; i < values.size(); ++i) {
      pick -= d2[i];
      if (pick <= 0.0) {
        chosen = i;
        break;
      }
    }
    centroids.push_back(values[chosen]);
  }

  // Lloyd iterations.
  std::vector<int> assign(values.size(), 0);
  for (int iter = 0; iter < max_iterations; ++iter) {
    bool changed = false;
    for (std::size_t i = 0; i < values.size(); ++i) {
      int best = 0;
      double best_d = std::numeric_limits<double>::infinity();
      for (int c = 0; c < static_cast<int>(centroids.size()); ++c) {
        const double d = std::fabs(values[i] - centroids[static_cast<std::size_t>(c)]);
        if (d < best_d) {
          best_d = d;
          best = c;
        }
      }
      if (assign[i] != best) {
        assign[i] = best;
        changed = true;
      }
    }
    // Recompute centroids; re-seed empty clusters on the farthest point.
    std::vector<double> sum(centroids.size(), 0.0);
    std::vector<int> count(centroids.size(), 0);
    for (std::size_t i = 0; i < values.size(); ++i) {
      sum[static_cast<std::size_t>(assign[i])] += values[i];
      count[static_cast<std::size_t>(assign[i])]++;
    }
    for (std::size_t c = 0; c < centroids.size(); ++c) {
      if (count[c] > 0) {
        centroids[c] = sum[c] / count[c];
      } else {
        std::size_t far = 0;
        double far_d = -1.0;
        for (std::size_t i = 0; i < values.size(); ++i) {
          const double d =
              std::fabs(values[i] - centroids[static_cast<std::size_t>(assign[i])]);
          if (d > far_d) {
            far_d = d;
            far = i;
          }
        }
        centroids[c] = values[far];
        changed = true;
      }
    }
    if (!changed && iter > 0) break;
  }
  if (centroids_out) *centroids_out = centroids;
  return assign;
}

namespace {

/// Builds groups for one pool of weight positions (indices into the
/// layer's flat weight array): zero weights form one pinned group; the
/// nonzero values are k-means clustered into at most k groups.
void cluster_pool(const std::vector<double>& raw, const std::vector<std::size_t>& pool,
                  int k, Rng& rng, std::vector<ClusterAssignment::Group>& out_groups) {
  std::vector<std::size_t> zeros;
  std::vector<std::size_t> nonzeros;
  std::vector<double> nonzero_values;
  for (std::size_t idx : pool) {
    if (raw[idx] == 0.0) {
      zeros.push_back(idx);
    } else {
      nonzeros.push_back(idx);
      nonzero_values.push_back(raw[idx]);
    }
  }
  if (!zeros.empty()) {
    // Pinned zero group: projecting averages zeros with zeros, stays zero.
    out_groups.push_back(ClusterAssignment::Group{std::move(zeros)});
  }
  if (nonzeros.empty()) return;
  std::vector<double> centroids;
  const auto assign = kmeans_1d(nonzero_values, k, rng, &centroids);
  std::vector<ClusterAssignment::Group> groups(centroids.size());
  for (std::size_t i = 0; i < nonzeros.size(); ++i) {
    groups[static_cast<std::size_t>(assign[i])].members.push_back(nonzeros[i]);
  }
  for (auto& g : groups) {
    if (!g.members.empty()) out_groups.push_back(std::move(g));
  }
}

}  // namespace

ClusterAssignment cluster_weights(Mlp& model, const std::vector<int>& clusters_per_layer,
                                  Rng& rng, ClusterScope scope) {
  if (clusters_per_layer.size() != model.layer_count()) {
    throw std::invalid_argument("cluster_weights: clusters_per_layer size mismatch");
  }
  ClusterAssignment assignment(model.layer_count());
  for (std::size_t li = 0; li < model.layer_count(); ++li) {
    const int k = clusters_per_layer[li];
    if (k < 0) throw std::invalid_argument("cluster_weights: negative cluster count");
    if (k == 0) continue;  // layer not clustered
    const auto& layer = model.layer(li);
    const auto& raw = layer.weights.raw();
    auto& groups = assignment.layer_groups(li);

    if (scope == ClusterScope::kPerColumn) {
      for (std::size_t c = 0; c < layer.in_features(); ++c) {
        std::vector<std::size_t> pool;
        pool.reserve(layer.out_features());
        for (std::size_t r = 0; r < layer.out_features(); ++r) {
          pool.push_back(r * layer.in_features() + c);
        }
        cluster_pool(raw, pool, k, rng, groups);
      }
    } else {
      std::vector<std::size_t> pool(raw.size());
      for (std::size_t i = 0; i < raw.size(); ++i) pool[i] = i;
      cluster_pool(raw, pool, k, rng, groups);
    }
  }
  assignment.project(model);
  return assignment;
}

}  // namespace pnm
