#include "pnm/nn/trainer.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "pnm/core/quantize.hpp"
#include "pnm/nn/dense_simd.hpp"

namespace pnm {

Gradients Gradients::zeros_like(const Mlp& model) {
  Gradients g;
  g.w.reserve(model.layer_count());
  g.b.reserve(model.layer_count());
  for (const auto& l : model.layers()) {
    g.w.emplace_back(l.out_features(), l.in_features());
    g.b.emplace_back(l.out_features(), 0.0);
  }
  return g;
}

namespace {

/// backprop_minibatch, whose weight gradients are packed in live order
/// when `live` is given.  Calls on_grad(li) as soon as layer li's weight
/// and bias gradients are stored; the pass reads neither again.
template <class OnGrad>
void backprop(const Mlp& model, const Dataset& train, const std::size_t* idx, std::size_t n,
              double grad_scale, Gradients& grads, BlockBackpropScratch& scratch,
              const LiveLayout* live, const OnGrad& on_grad) {
  constexpr std::size_t kB = simd::kDenseBlock;
  const auto& kernels = simd::dense_kernels();
  const std::size_t n_layers = model.layer_count();
  const std::size_t n_in = model.input_size();
  const std::size_t n_out = model.output_size();
  const std::size_t blocks = (n + kB - 1) / kB;

  // Gather the minibatch into SoA blocks: sample i is lane i%8 of block
  // i/8, and the last block's padding lanes are 0.
  scratch.rows.resize(n);
  scratch.labels.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    scratch.rows[i] = train.x[idx[i]].data();
    scratch.labels[i] = train.y[idx[i]];
    if (scratch.labels[i] >= n_out) {
      throw std::invalid_argument("backprop_minibatch: label out of range");
    }
  }
  auto& acts = scratch.acts;
  acts.resize(n_layers + 1);
  acts[0].resize(blocks * n_in * kB);
  kernels.gather(scratch.rows.data(), n, n_in, acts[0].data());

  // Forward: one weight visit per layer feeds every lane of the minibatch;
  // a ReLU is fused into the kernel, and identity is no activation at all.
  for (std::size_t li = 0; li < n_layers; ++li) {
    const auto& layer = model.layer(li);
    acts[li + 1].resize(blocks * layer.out_features() * kB);
    kernels.layer_fwd(layer.weights.raw().data(), layer.bias.data(), acts[li].data(),
                      acts[li + 1].data(), layer.out_features(), layer.in_features(),
                      blocks, layer.act == Activation::kRelu);
  }

  // Softmax cross-entropy gradient; padding lanes get delta = 0, so their
  // backward contributions vanish identically.
  auto& delta = scratch.delta;
  delta.resize(blocks * n_out * kB);
  kernels.softmax_xent(acts[n_layers].data(), scratch.labels.data(), n, n_out, delta.data());

  for (std::size_t li = n_layers; li-- > 0;) {
    const auto& layer = model.layer(li);
    // A layer whose weights are all live keeps layer_grad: its packed order
    // is the dense order, and the dense kernel is the faster one there.
    const LiveLayer* packed = live != nullptr ? &(*live)[li] : nullptr;
    if (packed != nullptr && packed->size() != layer.weights.size()) {
      kernels.layer_grad_live(delta.data(), acts[li].data(), grads.w[li].raw().data(),
                              grads.b[li].data(), layer.out_features(), layer.in_features(),
                              blocks, grad_scale, packed->row_begin.data(),
                              packed->col.data());
    } else {
      kernels.layer_grad(delta.data(), acts[li].data(), grads.w[li].raw().data(),
                         grads.b[li].data(), layer.out_features(), layer.in_features(),
                         blocks, grad_scale);
    }
    on_grad(li);
    if (li == 0) break;
    // acts[li] is the post-activation output of layer li-1; a ReLU's
    // gradient is fused into the backward kernel, and identity has none.
    auto& prev_delta = scratch.prev_delta;
    prev_delta.resize(blocks * layer.in_features() * kB);
    kernels.layer_back(layer.weights.raw().data(), delta.data(),
                       model.layer(li - 1).act == Activation::kRelu ? acts[li].data() : nullptr,
                       prev_delta.data(), layer.out_features(), layer.in_features(),
                       blocks);
    delta.swap(prev_delta);
  }
}

/// The epoch loop every fit shares: a fresh shuffle of the training set
/// each epoch, then step(idx, n, 1/n) on each minibatch of kTrainBatch.
template <typename Step>
void run_epochs(std::size_t epochs, std::size_t samples, Rng& rng, const Step& step) {
  std::vector<std::size_t> order(samples);
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  for (std::size_t epoch = 0; epoch < epochs; ++epoch) {
    rng.shuffle(order);
    for (std::size_t start = 0; start < order.size(); start += kTrainBatch) {
      const std::size_t end = std::min(order.size(), start + kTrainBatch);
      step(order.data() + start, end - start, 1.0 / static_cast<double>(end - start));
    }
  }
}

void check_fit(const Mlp& model, const Dataset& train) {
  if (train.size() == 0) throw std::invalid_argument("Trainer::fit: empty dataset");
  if (train.n_features() != model.input_size() || train.n_classes > model.output_size()) {
    throw std::invalid_argument("Trainer::fit: dataset/model shape mismatch");
  }
  if (model.layers().back().act != Activation::kIdentity) {
    throw std::invalid_argument("Trainer::fit: the output layer must be identity");
  }
}

/// The mask and the ties after one step, over one layer's packed live
/// weights: PruneMask::apply, then ClusterAssignment::project's mean.
void project(const LiveLayer& layer, double* w) {
  for (const std::size_t k : layer.rezero) w[k] = 0.0;
  for (const auto& tie : layer.ties) {
    double mean = 0.0;
    for (const std::size_t k : tie) mean += w[k];
    mean /= static_cast<double>(tie.size());
    for (const std::size_t k : tie) w[k] = mean;
  }
}

}  // namespace

void backprop_minibatch(const Mlp& model, const Dataset& train, const std::size_t* idx,
                        std::size_t n, double grad_scale, Gradients& grads,
                        BlockBackpropScratch& scratch) {
  backprop(model, train, idx, n, grad_scale, grads, scratch, nullptr, [](std::size_t) {});
}

void TrainConfig::validate() const {
  if (epochs == 0) throw std::invalid_argument("TrainConfig: epochs must be positive");
  if (!std::isfinite(lr) || lr <= 0.0) {
    throw std::invalid_argument("TrainConfig: lr must be finite and positive");
  }
}

Trainer::Trainer(TrainConfig config) : config_(config) { config_.validate(); }

void Trainer::fit(Mlp& model, const Dataset& train, Rng& rng) {
  train.validate();
  check_fit(model, train);
  Gradients grads = Gradients::zeros_like(model);
  reset_optimizer(grads);
  BlockBackpropScratch scratch;

  // The STE weight view's target: copied once, then rewritten by the view
  // before every step (a view sets every weight and bias).
  Mlp view_model;
  if (view_) view_model = model;

  run_epochs(config_.epochs, train.size(), rng,
             [&](const std::size_t* idx, std::size_t n, double inv_n) {
               const Mlp* fwd = &model;
               if (view_) {
                 view_(model, view_model);
                 fwd = &view_model;
               }
               // The whole minibatch per weight visit, 8 samples per SoA
               // block (the trainer-side twin of the inference engine's
               // blocking); it stores the mean gradient itself.
               backprop(*fwd, train, idx, n, inv_n, grads, scratch, nullptr,
                        [](std::size_t) {});
               const simd::AdamStep step = next_step();
               // Read each step: a projector may give a layer new storage.
               for (std::size_t li = 0; li < model.layer_count(); ++li) {
                 update_layer(li, model.layer(li).weights.raw().data(), model, grads, step);
               }
               if (projector_) projector_(model);
             });
}

void Trainer::fit_live(Mlp& model, const Dataset& train, Rng& rng, const LiveLayout& live) {
  check_fit(model, train);
  if (live.size() != model.layer_count()) {
    throw std::invalid_argument("Trainer::fit_live: layout/model layer mismatch");
  }
  const std::size_t n_layers = model.layer_count();

  // The master weights and their gradients, packed; the biases stay dense.
  std::vector<std::vector<double>> master(n_layers);
  Gradients grads;
  for (std::size_t li = 0; li < n_layers; ++li) {
    const auto& w = model.layer(li).weights.raw();
    for (const std::size_t i : live[li].index) master[li].push_back(w[i]);
    grads.w.emplace_back(1, live[li].size());
    grads.b.emplace_back(model.layer(li).out_features(), 0.0);
  }
  reset_optimizer(grads);
  BlockBackpropScratch scratch;

  // The QAT view: +0.0 outside the live weights for the whole fit, as the
  // dense view of a master whose other weights are +0.0 is.
  Mlp view = model;
  for (std::size_t li = 0; li < n_layers; ++li) view.layer(li).weights.fill(0.0);
  std::vector<double> quantized;

  run_epochs(config_.epochs, train.size(), rng,
             [&](const std::size_t* idx, std::size_t n, double inv_n) {
               for (std::size_t li = 0; li < n_layers; ++li) {
                 const LiveLayer& layer = live[li];
                 auto& vw = view.layer(li).weights.raw();
                 if (layer.size() == vw.size()) {
                   fake_quantize_values(master[li].data(), vw.data(), vw.size(),
                                        layer.weight_bits);
                 } else {
                   quantized.resize(layer.size());
                   fake_quantize_values(master[li].data(), quantized.data(), layer.size(),
                                        layer.weight_bits);
                   for (std::size_t k = 0; k < layer.size(); ++k) {
                     vw[layer.index[k]] = quantized[k];
                   }
                 }
                 view.layer(li).bias = model.layer(li).bias;
               }
               // Each layer's Adam step and projection run as soon as its
               // gradient is stored: the backward pass reads the view, never
               // the master, so they overlap the layers below.
               const simd::AdamStep step = next_step();
               backprop(view, train, idx, n, inv_n, grads, scratch, &live, [&](std::size_t li) {
                 update_layer(li, master[li].data(), model, grads, step);
                 project(live[li], master[li].data());
               });
             });

  for (std::size_t li = 0; li < n_layers; ++li) {
    auto& w = model.layer(li).weights;
    w.fill(0.0);
    for (std::size_t k = 0; k < live[li].size(); ++k) w.raw()[live[li].index[k]] = master[li][k];
  }
}

void Trainer::reset_optimizer(const Gradients& grads) {
  m_w_.clear();
  v_w_.clear();
  m_b_.clear();
  v_b_.clear();
  for (std::size_t li = 0; li < grads.w.size(); ++li) {
    m_w_.emplace_back(grads.w[li].size(), 0.0);
    v_w_.emplace_back(grads.w[li].size(), 0.0);
    m_b_.emplace_back(grads.b[li].size(), 0.0);
    v_b_.emplace_back(grads.b[li].size(), 0.0);
  }
  step_ = 0;
}

simd::AdamStep Trainer::next_step() {
  ++step_;
  simd::AdamStep step;
  step.bias_corr1 = 1.0 - std::pow(step.beta1, static_cast<double>(step_));
  step.bias_corr2 = 1.0 - std::pow(step.beta2, static_cast<double>(step_));
  step.lr = config_.lr;
  return step;
}

void Trainer::update_layer(std::size_t li, double* weights, Mlp& model, const Gradients& grads,
                           const simd::AdamStep& step) {
  // Adam updates every element independently, so the step runs through
  // the vectorized elementwise kernel (bit-identical to the scalar loop on
  // every ISA — see nn/dense_simd.hpp).
  const auto& kernels = simd::dense_kernels();
  auto& b = model.layer(li).bias;
  kernels.adam(weights, grads.w[li].raw().data(), m_w_[li].data(), v_w_[li].data(),
               grads.w[li].size(), step);
  kernels.adam(b.data(), grads.b[li].data(), m_b_[li].data(), v_b_[li].data(), b.size(), step);
}

}  // namespace pnm
