#ifndef PNM_DATA_SYNTH_HPP
#define PNM_DATA_SYNTH_HPP

/// \file synth.hpp
/// \brief Synthetic analogs of the paper's four UCI datasets.
///
/// The reproduction environment has no network access, so the UCI data the
/// paper trains on (WhiteWine, RedWine, Pendigits, Seeds) is replaced by
/// seeded Gaussian-mixture generators matched to each set's published
/// schema: feature count, class count, sample count, class imbalance, and
/// task hardness (chosen so the float baselines land in the accuracy bands
/// printed-ML papers report: wines ~55-65 %, Pendigits ~93-97 %, Seeds
/// ~90-95 %).  See DESIGN.md §4 for the substitution rationale.
///
/// Two structural properties of the real sets are modelled explicitly
/// because the minimization experiments are sensitive to them:
///  * the wine-quality labels are *ordinal* — neighbouring quality classes
///    overlap strongly (this is why wine accuracies are low), so class
///    means are laid out along a latent direction with small spacing;
///  * the wines are heavily *imbalanced* (mid qualities dominate), which
///    stresses the stratified split and the accuracy metric.

#include <cstdint>

#include "pnm/data/dataset.hpp"

namespace pnm {

/// Configuration of the Gaussian-mixture generator.
struct SynthConfig {
  std::string name = "synth";
  std::size_t n_features = 8;
  std::size_t n_classes = 3;
  std::size_t n_samples = 1000;
  /// Distance between adjacent class means in units of feature noise sigma.
  /// ~1 is hard (wines), ~4 is easy (pendigits/seeds).
  double class_separation = 2.0;
  /// If true, class means advance along one latent direction (ordinal
  /// labels, wine-style); if false, means are placed at random (nominal
  /// labels, digit-style).
  bool ordinal = false;
  /// Sub-clusters per class (handwriting styles in Pendigits > 1).
  std::size_t clusters_per_class = 1;
  /// Relative class frequencies; empty = balanced. Normalized internally.
  std::vector<double> class_weights;
  /// Fraction of label noise (samples given a random neighbouring label).
  double label_noise = 0.0;

  /// Rejects degenerate configurations with a precise error instead of
  /// letting them reach the generator as UB or a silently-wrong dataset:
  /// < 2 classes, 0 features, 0 clusters, fewer samples than the 2 per
  /// class the generator floors every class at, a class_weights arity
  /// mismatch, negative / non-finite / overflowing weights, label_noise
  /// outside [0, 1], and a negative or non-finite class_separation.
  /// \throws std::invalid_argument naming the offending field.
  void validate() const;
};

/// Samples make_synthetic draws per class, before label noise: each
/// class's weighted share of n_samples rounded down and floored at 2, then
/// the rounding remainder one sample at a time.  `cfg` must be valid.
std::vector<std::size_t> synth_class_counts(const SynthConfig& cfg);

/// Draws a dataset from the mixture described by cfg.
/// \throws std::invalid_argument via SynthConfig::validate().
Dataset make_synthetic(const SynthConfig& cfg, Rng& rng);

/// Canonical dataset-name token for a parameterized generator config —
/// the spelling scenario specs and campaign fingerprints use for a
/// synthetic-sweep axis point, e.g.
///   "synth:f8:c3:n600:sep2:ord0:k1:ln0.05"
///   "synth:f11:c6:n1599:sep1.25:ord1:k1:ln0.2:w10+53+681+638+199+18"
/// Fields appear in that fixed order; `w` (relative class weights, '+'
/// separated) is present iff cfg.class_weights is non-empty.  Doubles are
/// formatted round-trip-exactly, so the token is filename-safe, collision
/// -free per distinct config, and stable across platforms.  cfg.name is
/// NOT encoded — parsing yields a config whose name is the token itself.
std::string synth_dataset_name(const SynthConfig& cfg);

/// Parses a token produced by synth_dataset_name() (strict: exact field
/// order, round-trip-parsable numbers).  The returned config carries the
/// token as its name and has been validate()d.
/// \throws std::invalid_argument on malformed tokens or degenerate configs.
SynthConfig parse_synth_dataset_name(const std::string& name);

/// UCI "Wine Quality - White" analog: 11 features, 7 quality classes,
/// 4898 samples, strong ordinal overlap and imbalance.
Dataset make_whitewine(std::uint64_t seed = 7001);

/// UCI "Wine Quality - Red" analog: 11 features, 6 quality classes,
/// 1599 samples, ordinal, imbalanced.
Dataset make_redwine(std::uint64_t seed = 7002);

/// UCI "Pen-Based Recognition of Handwritten Digits" analog: 16 features,
/// 10 classes, 7494 samples, well separated with 2 styles per digit.
Dataset make_pendigits(std::uint64_t seed = 7003);

/// UCI "Seeds" analog: 7 features, 3 wheat varieties, 630 samples
/// (3x the original 210 so the test split is statistically usable).
Dataset make_seeds(std::uint64_t seed = 7004);

/// Builds a dataset by name: one of the four paper analogs ("whitewine",
/// "redwine", "pendigits", "seeds") or any parameterized generator token
/// beginning with "synth:" (see synth_dataset_name); throws
/// std::invalid_argument otherwise.
Dataset make_named_dataset(const std::string& name, std::uint64_t seed);

/// The four paper dataset names in Figure 1 order (a)-(d).
const std::vector<std::string>& paper_dataset_names();

}  // namespace pnm

#endif  // PNM_DATA_SYNTH_HPP
