#include "pnm/nn/mlp.hpp"

#include <stdexcept>

namespace pnm {

Mlp::Mlp(const std::vector<std::size_t>& topology, Rng& rng) {
  if (topology.size() < 2) {
    throw std::invalid_argument("Mlp: topology needs at least input and output sizes");
  }
  for (std::size_t s : topology) {
    if (s == 0) throw std::invalid_argument("Mlp: zero-sized layer");
  }
  layers_.reserve(topology.size() - 1);
  for (std::size_t i = 0; i + 1 < topology.size(); ++i) {
    DenseLayer layer;
    layer.weights = he_normal(topology[i + 1], topology[i], rng);
    layer.bias.assign(topology[i + 1], 0.0);
    const bool is_output = (i + 2 == topology.size());
    layer.act = is_output ? Activation::kIdentity : Activation::kRelu;
    layers_.push_back(std::move(layer));
  }
}

Mlp::Mlp(std::vector<DenseLayer> layers) : layers_(std::move(layers)) {
  for (std::size_t i = 0; i + 1 < layers_.size(); ++i) {
    if (layers_[i].out_features() != layers_[i + 1].in_features()) {
      throw std::invalid_argument("Mlp: inconsistent layer shapes");
    }
  }
  for (const auto& l : layers_) {
    if (l.bias.size() != l.out_features()) {
      throw std::invalid_argument("Mlp: bias size mismatch");
    }
  }
}

std::size_t Mlp::input_size() const {
  if (layers_.empty()) return 0;
  return layers_.front().in_features();
}

std::size_t Mlp::output_size() const {
  if (layers_.empty()) return 0;
  return layers_.back().out_features();
}

std::vector<std::size_t> Mlp::topology() const {
  std::vector<std::size_t> t;
  if (layers_.empty()) return t;
  t.push_back(layers_.front().in_features());
  for (const auto& l : layers_) t.push_back(l.out_features());
  return t;
}

std::vector<double> Mlp::forward(const std::vector<double>& x) const {
  std::vector<double> cur = x;
  std::vector<double> next;
  for (const auto& l : layers_) {
    l.weights.matvec(cur, next);
    for (std::size_t r = 0; r < next.size(); ++r) next[r] += l.bias[r];
    apply_activation(l.act, next);
    cur.swap(next);
  }
  return cur;
}

std::size_t Mlp::predict(const std::vector<double>& x) const { return argmax(forward(x)); }

std::size_t Mlp::weight_count() const {
  std::size_t n = 0;
  for (const auto& l : layers_) n += l.weights.size();
  return n;
}

std::size_t Mlp::zero_weight_count() const {
  std::size_t n = 0;
  for (const auto& l : layers_) n += l.weights.zero_count();
  return n;
}

std::size_t argmax(const std::vector<double>& v) {
  if (v.empty()) throw std::invalid_argument("argmax: empty vector");
  std::size_t best = 0;
  for (std::size_t i = 1; i < v.size(); ++i) {
    if (v[i] > v[best]) best = i;
  }
  return best;
}

}  // namespace pnm
