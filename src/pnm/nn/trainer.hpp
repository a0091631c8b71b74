#ifndef PNM_NN_TRAINER_HPP
#define PNM_NN_TRAINER_HPP

/// \file trainer.hpp
/// \brief Mini-batch training for pnm::Mlp with the two hooks every
///        minimization technique in the paper needs:
///
///  * a *weight view* — a forward-time substitution of the weights used
///    for forward/backward while gradients are applied to the float master
///    copy.  With a quantizer view this is exactly straight-through-
///    estimator quantization-aware training (the QKeras role in the paper);
///  * a *projector* — run after every optimizer step to re-impose a
///    constraint on the master weights: pruning masks re-zero pruned
///    connections, clustering re-averages each cluster to a shared value.
///
/// The GA's fine-tune (core/eval.hpp) does not set these callbacks: it
/// compiles a genome's prune mask and cluster ties once into a LiveLayout
/// and runs Trainer::fit_live, the same loop over only the weights those
/// constraints leave live, bit for bit what fit gives with the QAT view
/// and the mask + ties projector.
///
/// Every program trains with one recipe: Adam on the softmax
/// cross-entropy of the output logits, over shuffled minibatches of
/// kTrainBatch at a constant learning rate.  TrainConfig sets only the
/// epochs and the learning rate.

#include <functional>
#include <vector>

#include "pnm/data/dataset.hpp"
#include "pnm/nn/mlp.hpp"
#include "pnm/util/rng.hpp"

namespace pnm {

namespace simd {
struct AdamStep;
}  // namespace simd

/// The fine-tuning numerics generation: the minibatch backprop below with
/// the kernel table's fast softmax.  eval_fingerprint (core/campaign.hpp)
/// hashes it, so stored results never mix generations.  A change that
/// moves any fine-tuned bit (nn_trainer_golden_test's digests) bumps it in
/// the same change.
inline constexpr const char* kFinetuneMath = "fast-blocked";

/// One layer's live weights: the weights a constrained fine-tune changes
/// (Trainer::fit_live).  The mask keeps a live weight, or prunes it while
/// its tie group also holds a live weight, so projecting the group writes
/// a mean into it after every step.  Every other weight is +0.0 in the
/// master and in the QAT view for the whole fine-tune, and feeds nothing
/// that reaches a live weight.  Live weight k is position k of the layer's
/// packed arrays, in row-major order.
struct LiveLayer {
  std::vector<std::size_t> index;  ///< dense row-major index of each, ascending
  std::vector<std::size_t> col;    ///< column of each
  /// rows + 1 offsets: row r holds positions [row_begin[r], row_begin[r+1]).
  std::vector<std::size_t> row_begin;
  /// Positions of the pruned live weights, set to +0.0 after every step
  /// before the ties are projected (PruneMask::apply).
  std::vector<std::size_t> rezero;
  /// Tie groups over live positions in member order, each set to its
  /// members' mean after every step (ClusterAssignment::project).  Groups
  /// without a live member average +0.0s into +0.0 and are left out.
  std::vector<std::vector<std::size_t>> ties;
  int weight_bits = 0;  ///< bit width of the layer's QAT view (core/quantize.hpp)

  [[nodiscard]] std::size_t size() const { return index.size(); }
};

/// A network's live weights, one LiveLayer per layer.
using LiveLayout = std::vector<LiveLayer>;

/// Gradients of the loss w.r.t. one network's parameters.
struct Gradients {
  /// Same shapes as the layers' weights, or, for a fine-tune over a
  /// LiveLayout, one row of each layer's packed live weights.
  std::vector<Matrix> w;
  std::vector<std::vector<double>> b;    ///< same shapes as the biases

  /// Allocates zero gradients shaped like the model.
  static Gradients zeros_like(const Mlp& model);
};

/// Reusable buffers for the minibatch backprop path.  Layer buffers hold
/// the minibatch as consecutive 8-lane SoA blocks (nn/dense_simd.hpp's
/// blocked layout).  One scratch per fit(): every buffer is fully
/// overwritten before it is read.
struct BlockBackpropScratch {
  std::vector<const double*> rows;        ///< the minibatch's feature rows
  std::vector<std::vector<double>> acts;  ///< blocked activations per layer
  std::vector<double> delta;              ///< blocked dL/d(layer output)
  std::vector<double> prev_delta;         ///< blocked back-propagated delta
  std::vector<std::size_t> labels;        ///< the minibatch's class labels
};

/// Minibatch backprop, the one fine-tuning arithmetic (kFinetuneMath):
/// runs the n samples train.x[idx[0..n)] through forward + backward
/// together as ceil(n/8) SoA blocks, one kernel call per layer and
/// direction for the whole minibatch (nn/dense_simd.hpp), with the kernel
/// table's fast softmax cross-entropy gradient (fast_exp,
/// nn/fastmath.hpp).  The output layer's values are the logits, so it
/// must be identity, as Trainer::fit requires.  Stores grad_scale times
/// dL/dparams summed over the minibatch into grads, overwriting every
/// element (the trainer passes 1/n for the mean gradient): each element
/// is summed from +0.0 block by block and then scaled, the operations of
/// zeroing grads, accumulating each block and scaling it afterwards.
/// Padding lanes of the last block are zero-filled and their deltas
/// zeroed, so they contribute nothing.  The result is the same bit for
/// bit as summing one-block calls from +0.0 in block order, on every
/// kernel table.  The per-sample and libm-softmax references it is gated
/// against (accuracy-neutral, not bit-identical) live in
/// tests/trainer_reference.hpp.  Trainer::fit_live runs it with each
/// partly live layer's weight gradient stored packed by layer_grad_live.
/// \throws std::invalid_argument when a label is not below the model's
///         output width.
void backprop_minibatch(const Mlp& model, const Dataset& train, const std::size_t* idx,
                        std::size_t n, double grad_scale, Gradients& grads,
                        BlockBackpropScratch& scratch);

/// Minibatch size of the one training recipe.  The rest of the recipe is
/// fixed as well: Adam at simd::AdamStep's beta1, beta2 and eps
/// (nn/dense_simd.hpp), a fresh shuffle of the training set every epoch,
/// and a constant learning rate.
inline constexpr std::size_t kTrainBatch = 32;

/// What a program chooses about training: how long, and how fast.
struct TrainConfig {
  std::size_t epochs = 60;
  double lr = 3e-3;

  /// \throws std::invalid_argument when epochs is 0 or lr is not a finite
  ///         positive number.
  void validate() const;
};

/// Runs mini-batch training on `model` in place.
class Trainer {
 public:
  /// Substitutes the weights used in the forward/backward pass (STE). The
  /// callee receives the master model and the view model, a copy of the
  /// master made once per fit() and then reused for every step.  The view
  /// must rewrite every weight and every bias of it from the master on
  /// each call, as fake_quantize_mlp (core/quantize.hpp) does: whatever it
  /// leaves alone keeps the previous step's value.
  using WeightView = std::function<void(const Mlp& master, Mlp& view)>;
  /// Constraint re-imposed on the master model after each optimizer step.
  using Projector = std::function<void(Mlp& master)>;

  /// \throws std::invalid_argument via TrainConfig::validate.
  explicit Trainer(TrainConfig config);

  void set_weight_view(WeightView view) { view_ = std::move(view); }
  /// No program fine-tunes through a projector: the GA compiles its mask
  /// and ties into fit_live.  This callback path is the reference that
  /// fit_live is held to, bit for bit: the tests
  /// (tests/trainer_reference.hpp) and perfbench's stage replay drive it.
  void set_projector(Projector projector) { projector_ = std::move(projector); }

  /// Trains `model` in place. Deterministic given rng.  Every call starts
  /// from fresh optimizer state sized to `model`, so one Trainer may fit
  /// any sequence of models.
  /// \throws std::invalid_argument when `train` fails Dataset::validate,
  ///         is empty, or does not fit the model's shape, or when the
  ///         model's output layer is not identity.
  void fit(Mlp& model, const Dataset& train, Rng& rng);

  [[nodiscard]] const TrainConfig& config() const { return config_; }

 private:
  // PipelineEvaluator (core/eval.hpp) validates its training split once,
  // when it is built, and fine-tunes every genome on that split without
  // repeating the O(samples x features) Dataset::validate scan.
  friend class PipelineEvaluator;

  /// fit() with the QAT view and the mask + ties projector that `live`
  /// was compiled from, over the live weights only: master weights, Adam's
  /// moments and the weight gradient are packed arrays of live weights;
  /// the view quantizes only them (fake_quantize_values) into a dense view
  /// whose other weights stay +0.0; forward and backward run on that view
  /// unchanged; the projector zeroes `rezero`, then averages `ties`; at
  /// the end the model gets the live weights and +0.0 everywhere else.
  /// `live` must describe the model's layers as PipelineEvaluator compiles
  /// it, right after prune + cluster, while every weight outside it is
  /// zero.  The model then ends bit for bit as fit() with those callbacks
  /// leaves it.  Ignores set_weight_view and set_projector, and skips
  /// Dataset::validate: the caller has validated `train`.
  /// \throws std::invalid_argument on fit()'s shape checks, or when `live`
  ///         has another layer count than the model.
  void fit_live(Mlp& model, const Dataset& train, Rng& rng, const LiveLayout& live);

  /// Zeroes Adam's moments, sized like `grads`.
  void reset_optimizer(const Gradients& grads);
  /// Starts one Adam step: advances the step count and returns the step's
  /// bias corrections and learning rate.
  simd::AdamStep next_step();
  /// Layer li's share of an Adam step: `weights`, the layer's master
  /// weights (dense, or packed live ones), with grads.w[li] of the same
  /// length, and the layer's bias.
  void update_layer(std::size_t li, double* weights, Mlp& model, const Gradients& grads,
                    const simd::AdamStep& step);

  TrainConfig config_;
  WeightView view_;
  Projector projector_;
  // Adam's moments, zeroed and sized like the gradients at the start of a fit.
  std::vector<std::vector<double>> m_w_, v_w_, m_b_, v_b_;
  long step_ = 0;
};

}  // namespace pnm

#endif  // PNM_NN_TRAINER_HPP
