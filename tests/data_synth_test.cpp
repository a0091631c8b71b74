/// Tests for the synthetic UCI-analog generators (DESIGN.md §4): schema
/// fidelity, determinism, imbalance, and learnability ordering.

#include "pnm/data/synth.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>

#include "pnm/data/scaler.hpp"
#include "pnm/nn/metrics.hpp"
#include "pnm/nn/trainer.hpp"
#include "pnm/util/fileio.hpp"

namespace pnm {
namespace {

TEST(Synth, WhitewineSchemaMatchesUci) {
  const Dataset d = make_whitewine();
  EXPECT_NO_THROW(d.validate());
  EXPECT_EQ(d.n_features(), 11U);
  EXPECT_EQ(d.n_classes, 7U);
  EXPECT_EQ(d.size(), 4898U);
}

TEST(Synth, RedwineSchemaMatchesUci) {
  const Dataset d = make_redwine();
  EXPECT_EQ(d.n_features(), 11U);
  EXPECT_EQ(d.n_classes, 6U);
  EXPECT_EQ(d.size(), 1599U);
}

TEST(Synth, PendigitsSchemaMatchesUci) {
  const Dataset d = make_pendigits();
  EXPECT_EQ(d.n_features(), 16U);
  EXPECT_EQ(d.n_classes, 10U);
  EXPECT_EQ(d.size(), 7494U);
}

TEST(Synth, SeedsSchemaMatchesUci) {
  const Dataset d = make_seeds();
  EXPECT_EQ(d.n_features(), 7U);
  EXPECT_EQ(d.n_classes, 3U);
  EXPECT_EQ(d.size(), 630U);
}

TEST(Synth, GeneratorsAreDeterministic) {
  const Dataset a = make_seeds(999);
  const Dataset b = make_seeds(999);
  ASSERT_EQ(a.size(), b.size());
  EXPECT_EQ(a.x, b.x);
  EXPECT_EQ(a.y, b.y);
}

TEST(Synth, DifferentSeedsDiffer) {
  const Dataset a = make_seeds(1);
  const Dataset b = make_seeds(2);
  EXPECT_NE(a.x, b.x);
}

TEST(Synth, WinesAreImbalancedMidHeavy) {
  const Dataset d = make_whitewine();
  const auto hist = d.class_histogram();
  // Mid-quality classes dominate, extremes are rare (like the real set).
  const std::size_t mid = *std::max_element(hist.begin(), hist.end());
  EXPECT_GE(mid, hist.front() * 20);
  EXPECT_GE(mid, hist.back() * 20);
  for (std::size_t c : hist) EXPECT_GT(c, 0U);  // every class present
}

TEST(Synth, EveryClassPresentInAllSets) {
  for (const auto& name : paper_dataset_names()) {
    const Dataset d = make_named_dataset(name, 7);
    for (std::size_t c : d.class_histogram()) {
      EXPECT_GT(c, 0U) << name;
    }
  }
}

TEST(Synth, NamedDatasetRejectsUnknown) {
  EXPECT_THROW(make_named_dataset("mnist", 1), std::invalid_argument);
}

TEST(Synth, PaperDatasetListHasFigureOrder) {
  const auto& names = paper_dataset_names();
  ASSERT_EQ(names.size(), 4U);
  EXPECT_EQ(names[0], "whitewine");
  EXPECT_EQ(names[1], "redwine");
  EXPECT_EQ(names[2], "pendigits");
  EXPECT_EQ(names[3], "seeds");
}

TEST(Synth, ConfigValidation) {
  Rng rng(1);
  SynthConfig cfg;
  cfg.n_classes = 1;
  EXPECT_THROW(make_synthetic(cfg, rng), std::invalid_argument);
  cfg = SynthConfig{};
  cfg.class_weights = {1.0};  // wrong arity
  EXPECT_THROW(make_synthetic(cfg, rng), std::invalid_argument);
  cfg = SynthConfig{};
  cfg.clusters_per_class = 0;
  EXPECT_THROW(make_synthetic(cfg, rng), std::invalid_argument);
}

TEST(Synth, ConfigValidationRejectsDegenerateShapes) {
  SynthConfig cfg;
  cfg.n_features = 0;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg = SynthConfig{};
  cfg.n_samples = 0;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  // The generator floors every class at 2 samples for the stratified
  // split; asking for fewer than 2 per class would silently overshoot.
  cfg = SynthConfig{};
  cfg.n_classes = 3;
  cfg.n_samples = 5;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg.n_samples = 6;  // exactly 2 per class is the floor
  EXPECT_NO_THROW(cfg.validate());
}

TEST(Synth, ConfigValidationRejectsBadWeightsNoiseAndSeparation) {
  SynthConfig cfg;
  cfg.class_weights = {1.0, -0.5, 2.0};
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg = SynthConfig{};
  cfg.class_weights = {1.0, std::numeric_limits<double>::quiet_NaN(), 1.0};
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg = SynthConfig{};
  cfg.class_weights = {0.0, 0.0, 0.0};  // weight mass must be positive
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg = SynthConfig{};
  const double huge = std::numeric_limits<double>::max();
  cfg.class_weights = {huge, huge, huge};  // sum overflows to infinity
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg = SynthConfig{};
  cfg.label_noise = -0.01;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg.label_noise = 1.01;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg = SynthConfig{};
  cfg.class_separation = -1.0;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg.class_separation = std::numeric_limits<double>::infinity();
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
}

TEST(Synth, DatasetNameTokenRoundTrips) {
  SynthConfig cfg;
  cfg.n_features = 11;
  cfg.n_classes = 6;
  cfg.n_samples = 1599;
  cfg.class_separation = 1.25;
  cfg.ordinal = true;
  cfg.clusters_per_class = 1;
  cfg.class_weights = {10, 53, 681, 638, 199, 18};
  // Exactly-representable doubles keep the token short; a value like 0.2
  // would legitimately encode as its full round-trip form.
  cfg.label_noise = 0.25;
  const std::string token = synth_dataset_name(cfg);
  EXPECT_EQ(token,
            "synth:f11:c6:n1599:sep1.25:ord1:k1:ln0.25:w10+53+681+638+199+18");
  const SynthConfig parsed = parse_synth_dataset_name(token);
  EXPECT_EQ(parsed.name, token);  // the token is its own name
  EXPECT_EQ(parsed.n_features, cfg.n_features);
  EXPECT_EQ(parsed.n_classes, cfg.n_classes);
  EXPECT_EQ(parsed.n_samples, cfg.n_samples);
  EXPECT_EQ(parsed.class_separation, cfg.class_separation);
  EXPECT_EQ(parsed.ordinal, cfg.ordinal);
  EXPECT_EQ(parsed.clusters_per_class, cfg.clusters_per_class);
  EXPECT_EQ(parsed.class_weights, cfg.class_weights);
  EXPECT_EQ(parsed.label_noise, cfg.label_noise);
  // Re-encoding the parsed config reproduces the token exactly.
  EXPECT_EQ(synth_dataset_name(parsed), token);
  // Without weights the `w` field is absent.
  SynthConfig balanced;
  EXPECT_EQ(synth_dataset_name(balanced), "synth:f8:c3:n1000:sep2:ord0:k1:ln0");
}

TEST(Synth, DatasetNameParserIsStrict) {
  EXPECT_THROW(parse_synth_dataset_name(""), std::invalid_argument);
  EXPECT_THROW(parse_synth_dataset_name("synth"), std::invalid_argument);
  EXPECT_THROW(parse_synth_dataset_name("synth:"), std::invalid_argument);
  EXPECT_THROW(parse_synth_dataset_name("synth:f8"), std::invalid_argument);
  // Wrong field order.
  EXPECT_THROW(parse_synth_dataset_name("synth:c3:f8:n600:sep2:ord0:k1:ln0"),
               std::invalid_argument);
  // Malformed numbers / flags.
  EXPECT_THROW(parse_synth_dataset_name("synth:fX:c3:n600:sep2:ord0:k1:ln0"),
               std::invalid_argument);
  EXPECT_THROW(parse_synth_dataset_name("synth:f8:c3:n600:sep2:ord2:k1:ln0"),
               std::invalid_argument);
  EXPECT_THROW(parse_synth_dataset_name("synth:f8:c3:n600:sep2:ord0:k1:ln0:w1+x+1"),
               std::invalid_argument);
  // Trailing garbage field.
  EXPECT_THROW(
      parse_synth_dataset_name("synth:f8:c3:n600:sep2:ord0:k1:ln0:w1+1+1:extra"),
      std::invalid_argument);
  // Well-formed token, degenerate config (validate() runs on the result).
  EXPECT_THROW(parse_synth_dataset_name("synth:f0:c3:n600:sep2:ord0:k1:ln0"),
               std::invalid_argument);
  EXPECT_THROW(parse_synth_dataset_name("synth:f8:c1:n600:sep2:ord0:k1:ln0"),
               std::invalid_argument);
}

TEST(Synth, NamedDatasetDispatchesSynthTokens) {
  const std::string token = "synth:f8:c3:n600:sep2:ord0:k1:ln0.05";
  const Dataset a = make_named_dataset(token, 7);
  EXPECT_EQ(a.n_features(), 8u);
  EXPECT_EQ(a.n_classes, 3u);
  EXPECT_EQ(a.size(), 600u);
  const Dataset b = make_named_dataset(token, 7);
  EXPECT_EQ(a.x, b.x);  // deterministic per (token, seed)
  EXPECT_EQ(a.y, b.y);
  const Dataset c = make_named_dataset(token, 8);
  EXPECT_NE(a.x, c.x);
  EXPECT_THROW(make_named_dataset("synth:bogus", 1), std::invalid_argument);
}

/// Canonical digest of a dataset: class count plus every sample and label,
/// doubles formatted round-trip-exactly.
std::string dataset_digest(const Dataset& d) {
  std::string text = std::to_string(d.n_classes) + "\n";
  for (std::size_t i = 0; i < d.size(); ++i) {
    for (double v : d.x[i]) {
      text += format_double_roundtrip(v);
      text += ' ';
    }
    text += std::to_string(d.y[i]);
    text += '\n';
  }
  return fnv1a64_hex(text);
}

/// Cross-platform determinism golden: a fixed SynthConfig and seed must
/// generate byte-identical data on every platform/compiler this repo
/// supports — the property every scenario fingerprint and stored
/// evaluation silently relies on.  The generator path runs through
/// Rng::normal (Marsaglia polar, one std::log per pair), so this also
/// pins the libm dependency: if a platform's log() ever rounds
/// differently, this digest — not a subtle downstream front mismatch —
/// is what breaks.
TEST(Synth, GoldenDigestIsStableAcrossPlatforms) {
  const std::string token = "synth:f8:c3:n600:sep2:ord0:k1:ln0.05";
  const Dataset d = make_named_dataset(token, 1234);
  EXPECT_EQ(dataset_digest(d), "7bd7d77a9c2f64ce")
      << "synthetic generator output changed — if intentional, update the "
         "committed digest";
}

TEST(Synth, SeparationControlsDifficulty) {
  // The same topology trains much better on well-separated data.
  auto train_acc = [](double separation, std::uint64_t seed) {
    SynthConfig cfg;
    cfg.n_features = 6;
    cfg.n_classes = 4;
    cfg.n_samples = 600;
    cfg.class_separation = separation;
    Rng gen(seed);
    Dataset d = make_synthetic(cfg, gen);
    Rng rng(seed + 1);
    DataSplit split = stratified_split(d, 0.7, 0.0, 0.3, rng);
    MinMaxScaler scaler;
    scale_split(split, scaler);
    Mlp net({6, 6, 4}, rng);
    TrainConfig tc;
    tc.epochs = 40;
    Trainer(tc).fit(net, split.train, rng);
    return accuracy(net, split.test);
  };
  EXPECT_GT(train_acc(3.5, 10), train_acc(0.4, 10) + 0.15);
}

/// The learnability ordering the paper's accuracy levels rely on:
/// pendigits/seeds easy, wines hard (ordinal overlap).
TEST(Synth, TaskHardnessOrderingMatchesPaper) {
  auto test_acc = [](const Dataset& data, std::vector<std::size_t> hidden) {
    Rng rng(99);
    DataSplit split = stratified_split(data, 0.6, 0.2, 0.2, rng);
    MinMaxScaler scaler;
    scale_split(split, scaler);
    std::vector<std::size_t> topo{data.n_features()};
    topo.insert(topo.end(), hidden.begin(), hidden.end());
    topo.push_back(data.n_classes);
    Mlp net(topo, rng);
    TrainConfig tc;
    tc.epochs = 40;
    Trainer(tc).fit(net, split.train, rng);
    return accuracy(net, split.test);
  };
  const double wine = test_acc(make_whitewine(), {8});
  const double digits = test_acc(make_pendigits(), {10});
  const double seeds = test_acc(make_seeds(), {4});
  EXPECT_GT(digits, 0.85);
  EXPECT_GT(seeds, 0.85);
  EXPECT_LT(wine, 0.75);  // wine quality is genuinely hard
  EXPECT_GT(wine, 0.40);  // but far above chance (1/7)
}

TEST(Synth, OrdinalConfusionIsAdjacent) {
  // For ordinal data, a trained model's mistakes should mostly hit
  // neighbouring quality classes.
  const Dataset d = make_redwine();
  Rng rng(5);
  DataSplit split = stratified_split(d, 0.7, 0.0, 0.3, rng);
  MinMaxScaler scaler;
  scale_split(split, scaler);
  Mlp net({11, 6, 6}, rng);
  TrainConfig tc;
  tc.epochs = 40;
  Trainer(tc).fit(net, split.train, rng);
  std::size_t adjacent = 0, far = 0;
  for (std::size_t i = 0; i < split.test.size(); ++i) {
    const std::size_t t = split.test.y[i];
    const std::size_t p = net.predict(split.test.x[i]);
    if (t == p) continue;
    const std::size_t dist = t > p ? t - p : p - t;
    if (dist == 1) {
      ++adjacent;
    } else {
      ++far;
    }
  }
  EXPECT_GT(adjacent, far);
}

}  // namespace
}  // namespace pnm
