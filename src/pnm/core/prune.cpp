#include "pnm/core/prune.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <stdexcept>

namespace pnm {

PruneMask PruneMask::ones_like(const Mlp& model) {
  PruneMask mask;
  for (const auto& layer : model.layers()) {
    mask.keep_.emplace_back(layer.weights.size(), std::uint8_t{1});
  }
  return mask;
}

PruneMask PruneMask::from_nonzero(const Mlp& model) {
  PruneMask mask;
  for (const auto& layer : model.layers()) {
    std::vector<std::uint8_t> keep(layer.weights.size(), 0);
    const auto& raw = layer.weights.raw();
    for (std::size_t i = 0; i < raw.size(); ++i) keep[i] = raw[i] != 0.0 ? 1 : 0;
    mask.keep_.push_back(std::move(keep));
  }
  return mask;
}

double PruneMask::sparsity() const {
  std::size_t total = 0;
  std::size_t dropped = 0;
  for (const auto& layer : keep_) {
    total += layer.size();
    for (std::uint8_t k : layer) dropped += (k == 0) ? 1 : 0;
  }
  return total == 0 ? 0.0 : static_cast<double>(dropped) / static_cast<double>(total);
}

void PruneMask::apply(Mlp& model) const {
  if (model.layer_count() != keep_.size()) {
    throw std::invalid_argument("PruneMask::apply: model shape mismatch");
  }
  for (std::size_t li = 0; li < keep_.size(); ++li) {
    auto& raw = model.layer(li).weights.raw();
    if (raw.size() != keep_[li].size()) {
      throw std::invalid_argument("PruneMask::apply: layer shape mismatch");
    }
    // A bitwise select, not a branch: every weight is rewritten, a kept
    // one with all its bits and a dropped one as +0.0 (all bits clear).
    // No jump depends on the mask, so the loop vectorizes and its speed
    // does not depend on where the linker places it.
    const std::vector<std::uint8_t>& keep = keep_[li];
    for (std::size_t i = 0; i < raw.size(); ++i) {
      const std::uint64_t select = std::uint64_t{0} - std::uint64_t{keep[i] != 0};
      raw[i] = std::bit_cast<double>(std::bit_cast<std::uint64_t>(raw[i]) & select);
    }
  }
}

bool PruneMask::satisfied_by(const Mlp& model) const {
  if (model.layer_count() != keep_.size()) return false;
  for (std::size_t li = 0; li < keep_.size(); ++li) {
    const auto& raw = model.layer(li).weights.raw();
    if (raw.size() != keep_[li].size()) return false;
    for (std::size_t i = 0; i < raw.size(); ++i) {
      if (keep_[li][i] == 0 && raw[i] != 0.0) return false;
    }
  }
  return true;
}

namespace {

/// Shared implementation: drop the n smallest-|w| entries of the listed
/// (layer, flat-index) candidates.
PruneMask prune_candidates(Mlp& model,
                           const std::vector<std::pair<std::size_t, std::size_t>>& order,
                           std::size_t n_drop) {
  PruneMask mask = PruneMask::ones_like(model);
  for (std::size_t k = 0; k < n_drop && k < order.size(); ++k) {
    mask.layer_mask(order[k].first)[order[k].second] = 0;
  }
  mask.apply(model);
  return mask;
}

}  // namespace

PruneMask magnitude_prune_global(Mlp& model, double sparsity) {
  if (sparsity < 0.0 || sparsity >= 1.0) {
    throw std::invalid_argument("magnitude_prune_global: sparsity out of [0,1)");
  }
  std::vector<std::pair<std::size_t, std::size_t>> order;
  order.reserve(model.weight_count());
  for (std::size_t li = 0; li < model.layer_count(); ++li) {
    for (std::size_t i = 0; i < model.layer(li).weights.size(); ++i) {
      order.emplace_back(li, i);
    }
  }
  const auto mag = [&model](const std::pair<std::size_t, std::size_t>& e) {
    return std::fabs(model.layer(e.first).weights.raw()[e.second]);
  };
  std::stable_sort(order.begin(), order.end(),
                   [&](const auto& a, const auto& b) { return mag(a) < mag(b); });
  const auto n_drop = static_cast<std::size_t>(
      std::llround(sparsity * static_cast<double>(order.size())));
  return prune_candidates(model, order, n_drop);
}

PruneMask magnitude_prune_per_layer(Mlp& model, const std::vector<double>& sparsity) {
  if (sparsity.size() != model.layer_count()) {
    throw std::invalid_argument("magnitude_prune_per_layer: sparsity size mismatch");
  }
  PruneMask mask = PruneMask::ones_like(model);
  for (std::size_t li = 0; li < model.layer_count(); ++li) {
    if (sparsity[li] < 0.0 || sparsity[li] >= 1.0) {
      throw std::invalid_argument("magnitude_prune_per_layer: sparsity out of [0,1)");
    }
    const auto& raw = model.layer(li).weights.raw();
    std::vector<std::size_t> order(raw.size());
    for (std::size_t i = 0; i < raw.size(); ++i) order[i] = i;
    std::stable_sort(order.begin(), order.end(), [&raw](std::size_t a, std::size_t b) {
      return std::fabs(raw[a]) < std::fabs(raw[b]);
    });
    const auto n_drop = static_cast<std::size_t>(
        std::llround(sparsity[li] * static_cast<double>(raw.size())));
    for (std::size_t k = 0; k < n_drop; ++k) mask.layer_mask(li)[order[k]] = 0;
  }
  mask.apply(model);
  return mask;
}

std::vector<double> neuron_saliency(const Mlp& model, std::size_t li) {
  if (li + 1 >= model.layer_count()) {
    throw std::invalid_argument("neuron_saliency: not a hidden layer");
  }
  const auto& layer = model.layer(li);
  const auto& next = model.layer(li + 1);
  std::vector<double> saliency(layer.out_features(), 0.0);
  for (std::size_t n = 0; n < layer.out_features(); ++n) {
    double in_norm2 = 0.0;
    for (std::size_t c = 0; c < layer.in_features(); ++c) {
      in_norm2 += layer.weights(n, c) * layer.weights(n, c);
    }
    double out_norm2 = 0.0;
    for (std::size_t r = 0; r < next.out_features(); ++r) {
      out_norm2 += next.weights(r, n) * next.weights(r, n);
    }
    saliency[n] = std::sqrt(in_norm2) * std::sqrt(out_norm2);
  }
  return saliency;
}

Mlp structured_prune(const Mlp& model, double neuron_fraction) {
  if (neuron_fraction < 0.0 || neuron_fraction >= 1.0) {
    throw std::invalid_argument("structured_prune: fraction out of [0,1)");
  }
  if (model.layer_count() < 2) {
    throw std::invalid_argument("structured_prune: model has no hidden layer");
  }
  std::vector<DenseLayer> layers(model.layers());

  // Process hidden layers front to back; removing neurons of layer li
  // drops the matching columns of layer li+1.
  for (std::size_t li = 0; li + 1 < layers.size(); ++li) {
    // Saliency on the *current* (possibly already shrunken) layers.
    const Mlp current{std::vector<DenseLayer>(layers)};
    const auto saliency = neuron_saliency(current, li);
    const std::size_t n_neurons = saliency.size();
    auto n_drop = static_cast<std::size_t>(
        std::llround(neuron_fraction * static_cast<double>(n_neurons)));
    if (n_drop >= n_neurons) n_drop = n_neurons - 1;  // keep >= 1 neuron
    if (n_drop == 0) continue;

    std::vector<std::size_t> order(n_neurons);
    for (std::size_t i = 0; i < n_neurons; ++i) order[i] = i;
    std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      return saliency[a] < saliency[b];
    });
    std::vector<std::uint8_t> keep(n_neurons, 1);
    for (std::size_t k = 0; k < n_drop; ++k) keep[order[k]] = 0;

    // Shrink layer li (rows) ...
    const auto& old_l = layers[li];
    DenseLayer new_l;
    new_l.act = old_l.act;
    new_l.weights = Matrix(n_neurons - n_drop, old_l.in_features());
    std::size_t row = 0;
    for (std::size_t n = 0; n < n_neurons; ++n) {
      if (!keep[n]) continue;
      for (std::size_t c = 0; c < old_l.in_features(); ++c) {
        new_l.weights(row, c) = old_l.weights(n, c);
      }
      new_l.bias.push_back(old_l.bias[n]);
      ++row;
    }
    // ... and layer li+1 (columns).
    const auto& old_n = layers[li + 1];
    DenseLayer new_n;
    new_n.act = old_n.act;
    new_n.bias = old_n.bias;
    new_n.weights = Matrix(old_n.out_features(), n_neurons - n_drop);
    for (std::size_t r = 0; r < old_n.out_features(); ++r) {
      std::size_t col = 0;
      for (std::size_t n = 0; n < n_neurons; ++n) {
        if (!keep[n]) continue;
        new_n.weights(r, col++) = old_n.weights(r, n);
      }
    }
    layers[li] = std::move(new_l);
    layers[li + 1] = std::move(new_n);
  }
  return Mlp(std::move(layers));
}

}  // namespace pnm
