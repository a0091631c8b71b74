/// Bit-identity gate for fine-tuning.  Each case trains a network with
/// the one training recipe and hashes (fnv1a64) the exact bytes of the
/// trained weights and biases.  The committed digests pin the trainer's
/// arithmetic: any change to the blocked forward/backward kernels, the
/// softmax, the QAT view, the optimizer or the order in which any of them
/// reduce moves a digest.
///
/// Every digest must hold under the active dense-kernel table and under
/// the forced scalar table (the determinism contract in nn/dense_simd.hpp).
/// The fast digest is production's (Trainer::fit, and
/// PipelineEvaluator::minimize_float through Trainer::fit_live), and the
/// reference fit loop (tests/trainer_reference.hpp) must reproduce it with
/// the production gradient, so that loop cannot drift from Trainer::fit
/// unseen.  For minimize_float the reference runs the QAT view and the
/// mask + ties projector as callbacks, so the same digest also holds the
/// live-weight fine-tune to the callback path: the cases below cover a tie
/// group with kept and pruned members, a layer that is all zero when the
/// fine-tune starts, and three weight layers.  The libm digest is the
/// reference loop's with the blocked libm-softmax gradient.
///
/// Regenerate a digest only for a declared numerics change (and bump
/// kFinetuneMath with it): the test prints every computed digest next to
/// its name.

#include <gtest/gtest.h>

#include <cstring>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "pnm/core/cluster.hpp"
#include "pnm/core/eval.hpp"
#include "pnm/core/flow.hpp"
#include "pnm/core/prune.hpp"
#include "pnm/core/quantize.hpp"
#include "pnm/data/scaler.hpp"
#include "pnm/data/synth.hpp"
#include "pnm/nn/dense_simd.hpp"
#include "pnm/nn/trainer.hpp"
#include "pnm/util/fileio.hpp"
#include "trainer_reference.hpp"

namespace pnm {
namespace {

void append_bytes(std::string& out, const std::vector<double>& v) {
  const std::size_t at = out.size();
  out.resize(at + v.size() * sizeof(double));
  if (!v.empty()) std::memcpy(out.data() + at, v.data(), v.size() * sizeof(double));
}

std::string digest(const Mlp& model) {
  std::string bytes;
  for (const auto& layer : model.layers()) {
    append_bytes(bytes, layer.weights.raw());
    append_bytes(bytes, layer.bias);
  }
  return fnv1a64_hex(bytes);
}

struct Golden {
  const char* name;
  const char* fast;  ///< digest of production fine-tuning
  const char* libm;  ///< digest under the blocked libm-softmax reference
};

/// Who fine-tunes: production when empty, else the reference loop with that
/// gradient.
using Path = std::optional<reference::Gradient>;

/// Runs `run(path)` on both tables: production and the reference loop with
/// the production gradient must give the fast digest, the reference loop
/// with the blocked libm gradient the libm one.
template <typename Run>
void check_case(const Golden& golden, Run run) {
  for (const simd::Isa isa : {simd::active_isa(), simd::Isa::kScalar}) {
    const reference::ScopedKernels kernels(isa);
    const auto expect = [&](const char* path_name, Path path, const char* want) {
      const std::string d = run(path);
      const std::string mode = std::string(path_name) + "/" + simd::isa_name(isa);
      std::cout << "  " << golden.name << " [" << mode << "]: " << d << "\n";
      EXPECT_EQ(d, want) << golden.name << " under " << mode;
    };
    expect("fast", std::nullopt, golden.fast);
    expect("fast-reference", reference::Gradient::kProduction, golden.fast);
    expect("libm-reference", reference::Gradient::kBlockedLibm, golden.libm);
  }
}

/// Trains with Trainer::fit, or with the reference loop on `path`.
void train(Mlp& model, const Dataset& data, Rng& rng, const TrainConfig& config, Path path,
           const Trainer::WeightView& view = {}) {
  if (path) {
    reference::fit(model, data, rng, config, *path, view);
    return;
  }
  Trainer trainer(config);
  trainer.set_weight_view(view);
  trainer.fit(model, data, rng);
}

Dataset scaled_synthetic(std::size_t features, std::size_t classes, std::size_t samples,
                         std::uint64_t seed) {
  SynthConfig cfg;
  cfg.name = "golden";
  cfg.n_features = features;
  cfg.n_classes = classes;
  cfg.n_samples = samples;
  cfg.class_separation = 2.5;
  Rng rng(seed);
  Dataset data = make_synthetic(cfg, rng);
  MinMaxScaler scaler;
  scaler.fit(data);
  return scaler.transform(data);
}

/// The pendigits flow most cases minimize on, prepared once.
const MinimizationFlow& pendigits_flow() {
  static const MinimizationFlow flow = [] {
    FlowConfig config;
    config.dataset_name = "pendigits";
    config.seed = 42;
    config.train.epochs = 12;
    MinimizationFlow f(config);
    f.prepare();
    return f;
  }();
  return flow;
}

/// minimize_float of `genome` over the float model `model`, which stands in
/// for the flow's own (same shape, the flow's splits and GA-budget config):
/// production's PipelineEvaluator, and the reference pipeline.
void check_minimize(const MinimizationFlow& flow, const Mlp& model, const Genome& genome,
                    const Golden& golden) {
  const ProxyEvaluator proxy(model, flow.data(), flow.tech(),
                             flow.proxy_evaluator(2).config());
  check_case(golden, [&](Path path) {
    return digest(path ? reference::minimize_float(model, flow.data().train, proxy.config(),
                                                   genome, *path)
                       : proxy.minimize_float(genome));
  });
}

/// The GA fitness path: prune + cluster + QAT fine-tune on pendigits.  The
/// flow's baseline is itself trained by the same trainer, so its digest
/// is folded into every genome's.
TEST(TrainerGolden, MinimizeFloatOnPendigits) {
  const MinimizationFlow& flow = pendigits_flow();
  const std::string baseline = digest(flow.float_model());
  std::cout << "  pendigits baseline: " << baseline << "\n";
  EXPECT_EQ(baseline, "ac11d1e42db74689") << "pendigits baseline";

  struct GenomeCase {
    Genome genome;
    Golden golden;
  };
  const GenomeCase cases[] = {
      {{{2, 2}, {0, 0}, {0, 0}, {}}, {"b2,2|s0,0|c0,0", "5e1a13125902c47d", "31ef3b4f9a5c42df"}},
      {{{3, 4}, {10, 20}, {2, 0}, {}}, {"b3,4|s10,20|c2,0", "a5a6449ee4bf9067", "632e9a0f0ed08c16"}},
      {{{4, 4}, {30, 10}, {0, 8}, {}}, {"b4,4|s30,10|c0,8", "79ced1edbfb8beef", "8c58dfb1d29ad250"}},
      {{{5, 6}, {50, 0}, {8, 2}, {}}, {"b5,6|s50,0|c8,2", "2c02d0556e7df6b0", "ec85566fd631bab8"}},
      {{{6, 8}, {70, 40}, {0, 0}, {}}, {"b6,8|s70,40|c0,0", "5917a4fb558f9e5d", "9ec2823ccb16e215"}},
      {{{8, 7}, {20, 70}, {2, 8}, {}}, {"b8,7|s20,70|c2,8", "fc1f80837ca84a4d", "ac8d558233dc1592"}},
  };
  const ProxyEvaluator proxy = flow.proxy_evaluator(2);
  for (const GenomeCase& c : cases) {
    check_case(c.golden, [&](Path path) {
      return digest(path ? reference::minimize_float(flow.float_model(), flow.data().train,
                                                     proxy.config(), c.genome, *path)
                         : proxy.minimize_float(c.genome));
    });
  }
}

/// A tie group that holds kept and pruned weights.  Every fourth weight of
/// the seed-1 model's layer 0 is set to an exact zero: pruning 10% of the
/// layer drops 16 of those 40 zeros and keeps the other 24, and clustering
/// pins all 40 into one zero group.  The group's mean moves with its kept
/// members, and projecting it writes that mean into the pruned ones
/// (core/cluster.hpp), so they are live weights, not +0.0, at every step.
TEST(TrainerGolden, TieGroupHoldingKeptAndPrunedWeights) {
  static const MinimizationFlow flow = [] {
    FlowConfig config;
    config.dataset_name = "pendigits";
    config.seed = 1;
    MinimizationFlow f(config);
    f.prepare();
    return f;
  }();
  Mlp model = flow.float_model();
  auto& w0 = model.layer(0).weights.raw();
  for (std::size_t i = 0; i < w0.size(); i += 4) w0[i] = 0.0;
  const Genome genome{{6, 6}, {10, 0}, {2, 0}, {}};

  // The input really holds the group this case is named for.
  Mlp pruned = model;
  const PruneMask mask = magnitude_prune_per_layer(pruned, {0.1, 0.0});
  Rng rng(1);
  const ClusterAssignment ties = cluster_weights(pruned, genome.clusters, rng,
                                                 flow.proxy_evaluator(2).config().cluster_scope);
  bool mixed = false;
  for (const auto& group : ties.layer_groups(0)) {
    std::size_t kept = 0;
    for (const std::size_t i : group.members) kept += mask.layer_mask(0)[i];
    mixed |= kept > 0 && kept < group.members.size();
  }
  ASSERT_TRUE(mixed);

  check_minimize(flow, model, genome,
                 {"mixed-tie-group b6,6|s10,0|c2,0", "b2ad303c152ec007", "d596356a5be38df8"});
}

/// A layer whose live weights are all zero when fine-tuning starts: the
/// output layer is zeroed and 30% of it pruned, so the first step's QAT
/// view of it takes the amax == 0 rule (every view weight +0.0).
TEST(TrainerGolden, LayerAllZeroAtTheFirstStep) {
  const MinimizationFlow& flow = pendigits_flow();
  Mlp model = flow.float_model();
  model.layer(1).weights.fill(0.0);
  check_minimize(flow, model, Genome{{4, 5}, {20, 30}, {3, 0}, {}},
                 {"zero-output-layer b4,5|s20,30|c3,0", "1c8a78bbab224c99", "8357304af780c24d"});
}

/// A flow with two hidden layers: three weight layers, each pruned,
/// clustered and quantized on its own, and a hidden layer below a hidden
/// layer in the backward pass.
TEST(TrainerGolden, TwoHiddenLayerFlow) {
  static const MinimizationFlow flow = [] {
    FlowConfig config;
    config.dataset_name = "seeds";
    config.seed = 7;
    config.hidden = {8, 6};
    config.train.epochs = 30;
    MinimizationFlow f(config);
    f.prepare();
    return f;
  }();
  const struct {
    Genome genome;
    Golden golden;
  } cases[] = {
      {{{5, 4, 6}, {30, 20, 10}, {3, 2, 0}, {}},
       {"b5,4,6|s30,20,10|c3,2,0", "232c0d9910c2f16f", "8b1309a8333b4258"}},
      {{{3, 6, 4}, {0, 50, 40}, {0, 4, 2}, {}},
       {"b3,6,4|s0,50,40|c0,4,2", "ce7aba2a15fb0f50", "a214eb30b280d176"}},
  };
  for (const auto& c : cases) check_minimize(flow, flow.float_model(), c.genome, c.golden);
}

/// 101 samples at batch 32: the last minibatch is short (5 samples, one
/// partial 8-lane block), under a QAT weight view.
TEST(TrainerGolden, PartialBlocksAndShortLastMinibatch) {
  const Dataset data = scaled_synthetic(5, 3, 101, 501);
  const Golden golden{"qat-n101", "a1152f97092ef376", "ba443c2cd2945f7c"};
  check_case(golden, [&](Path path) {
    Rng init(502);
    Mlp model({5, 7, 3}, init);
    TrainConfig cfg;
    cfg.epochs = 4;
    cfg.lr = 4e-3;
    Rng rng(503);
    train(model, data, rng, cfg, path, make_qat_view(QuantSpec::uniform(2, 4)));
    return digest(model);
  });
}

/// Two hidden ReLU layers: the backward pass masks a ReLU gradient below
/// a layer that is not the first.
TEST(TrainerGolden, TwoHiddenReluLayers) {
  const Dataset data = scaled_synthetic(6, 4, 150, 601);
  const Golden golden{"relu-2-hidden", "3c3b33e74ba3c32a", "7cff9c300be56ddf"};
  check_case(golden, [&](Path path) {
    Rng init(602);
    Mlp model({6, 8, 5, 4}, init);
    TrainConfig cfg;
    cfg.epochs = 5;
    Rng rng(603);
    train(model, data, rng, cfg, path);
    return digest(model);
  });
}

/// Plain training: no weight view, no projector.
TEST(TrainerGolden, PlainTrainingWithoutHooks) {
  const Dataset data = scaled_synthetic(4, 3, 300, 701);
  const Golden golden{"plain", "58fb535288968551", "09dab403c53c1762"};
  check_case(golden, [&](Path path) {
    Rng init(702);
    Mlp model({4, 6, 3}, init);
    TrainConfig cfg;
    cfg.epochs = 6;
    Rng rng(703);
    train(model, data, rng, cfg, path);
    return digest(model);
  });
}

}  // namespace
}  // namespace pnm
