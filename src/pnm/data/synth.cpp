#include "pnm/data/synth.hpp"

#include <cmath>
#include <limits>
#include <stdexcept>

#include "pnm/util/fileio.hpp"

namespace pnm {
namespace {

/// Draws a unit vector roughly uniform on the sphere.
std::vector<double> random_direction(std::size_t dim, Rng& rng) {
  std::vector<double> v(dim);
  double norm2 = 0.0;
  do {
    norm2 = 0.0;
    for (auto& e : v) {
      e = rng.normal();
      norm2 += e * e;
    }
  } while (norm2 < 1e-12);
  const double inv = 1.0 / std::sqrt(norm2);
  for (auto& e : v) e *= inv;
  return v;
}

}  // namespace

void SynthConfig::validate() const {
  if (n_classes < 2) {
    throw std::invalid_argument("SynthConfig: need >= 2 classes (a 1-class task has "
                                "nothing to separate)");
  }
  if (n_features == 0) throw std::invalid_argument("SynthConfig: need features");
  if (clusters_per_class == 0) {
    throw std::invalid_argument("SynthConfig: clusters_per_class must be >= 1");
  }
  if (n_samples == 0) throw std::invalid_argument("SynthConfig: need samples");
  if (n_samples < 2 * n_classes) {
    // The generator floors every class at 2 samples, so every class
    // reaches the training split; fewer requested samples would silently
    // overshoot the budget instead of honoring it.  (A class reaches the
    // validation split from 3 samples and the test split from 4 up;
    // ScenarioSpec::validate and MinimizationFlow::prepare refuse a
    // dataset that leaves either empty.)
    throw std::invalid_argument(
        "SynthConfig: n_samples (" + std::to_string(n_samples) +
        ") must be >= 2 per class (" + std::to_string(2 * n_classes) + ")");
  }
  if (!std::isfinite(class_separation) || class_separation < 0.0) {
    throw std::invalid_argument(
        "SynthConfig: class_separation must be finite and >= 0");
  }
  if (!std::isfinite(label_noise) || label_noise < 0.0 || label_noise > 1.0) {
    throw std::invalid_argument("SynthConfig: label_noise must be in [0, 1]");
  }
  if (!class_weights.empty() && class_weights.size() != n_classes) {
    throw std::invalid_argument("SynthConfig: class_weights size mismatch");
  }
  double w_sum = 0.0;
  for (double w : class_weights) {
    if (!std::isfinite(w) || w < 0.0) {
      throw std::invalid_argument(
          "SynthConfig: class weights must be finite and >= 0");
    }
    w_sum += w;
  }
  if (!class_weights.empty() && w_sum <= 0.0) {
    throw std::invalid_argument("SynthConfig: class weights sum to zero");
  }
  if (!std::isfinite(w_sum)) {
    // Weights are *relative* (they are normalized by their sum), so any
    // finite imbalance is fine — but a sum past the representable range
    // would turn every per-class budget into floor(n * w / inf) = 0.
    throw std::invalid_argument("SynthConfig: class weights sum overflows");
  }
}

std::vector<std::size_t> synth_class_counts(const SynthConfig& cfg) {
  std::vector<double> w = cfg.class_weights;
  if (w.empty()) w.assign(cfg.n_classes, 1.0);
  double w_sum = 0.0;
  for (double e : w) w_sum += e;  // finite and > 0 per validate()

  std::vector<std::size_t> counts(cfg.n_classes, 0);
  std::size_t assigned = 0;
  for (std::size_t c = 0; c < cfg.n_classes; ++c) {
    counts[c] = static_cast<std::size_t>(std::floor(cfg.n_samples * w[c] / w_sum));
    counts[c] = std::max<std::size_t>(counts[c], 2);  // every class present
    assigned += counts[c];
  }
  while (assigned < cfg.n_samples) {  // distribute the rounding remainder
    counts[assigned % cfg.n_classes]++;
    ++assigned;
  }
  return counts;
}

Dataset make_synthetic(const SynthConfig& cfg, Rng& rng) {
  cfg.validate();

  // --- class means -------------------------------------------------------
  // Ordinal: means advance along a latent direction with per-class jitter,
  // so class c and c+1 overlap most — mimicking wine-quality confusion.
  // Nominal: independent random means at radius ~separation.
  const double sigma = 1.0;  // feature noise; separation is relative to it
  std::vector<std::vector<std::vector<double>>> means(cfg.n_classes);
  const auto axis = random_direction(cfg.n_features, rng);
  for (std::size_t c = 0; c < cfg.n_classes; ++c) {
    means[c].resize(cfg.clusters_per_class);
    for (std::size_t k = 0; k < cfg.clusters_per_class; ++k) {
      auto& mu = means[c][k];
      mu.assign(cfg.n_features, 0.0);
      if (cfg.ordinal) {
        const double pos = cfg.class_separation * static_cast<double>(c);
        for (std::size_t f = 0; f < cfg.n_features; ++f) {
          mu[f] = axis[f] * pos + 0.35 * cfg.class_separation * rng.normal();
        }
      } else {
        const auto dir = random_direction(cfg.n_features, rng);
        // Random center at radius separation, plus sub-cluster spread.
        for (std::size_t f = 0; f < cfg.n_features; ++f) {
          mu[f] = dir[f] * cfg.class_separation * std::sqrt(static_cast<double>(cfg.n_features)) +
                  0.6 * cfg.class_separation * rng.normal();
        }
      }
    }
  }

  // --- draw samples --------------------------------------------------------
  const std::vector<std::size_t> counts = synth_class_counts(cfg);
  Dataset data;
  data.name = cfg.name;
  data.n_classes = cfg.n_classes;
  for (std::size_t c = 0; c < cfg.n_classes; ++c) {
    for (std::size_t i = 0; i < counts[c]; ++i) {
      const std::size_t k = cfg.clusters_per_class == 1
                                ? 0
                                : static_cast<std::size_t>(rng.uniform_int(
                                      static_cast<std::uint64_t>(cfg.clusters_per_class)));
      std::vector<double> row(cfg.n_features);
      for (std::size_t f = 0; f < cfg.n_features; ++f) {
        row[f] = means[c][k][f] + sigma * rng.normal();
      }
      std::size_t label = c;
      if (cfg.label_noise > 0.0 && rng.bernoulli(cfg.label_noise)) {
        if (cfg.ordinal) {
          // Ordinal noise: mislabel into an adjacent quality class.
          const int delta = rng.bernoulli(0.5) ? 1 : -1;
          const int nl = static_cast<int>(c) + delta;
          if (nl >= 0 && nl < static_cast<int>(cfg.n_classes)) label = static_cast<std::size_t>(nl);
        } else {
          label = static_cast<std::size_t>(rng.uniform_int(static_cast<std::uint64_t>(cfg.n_classes)));
        }
      }
      data.x.push_back(std::move(row));
      data.y.push_back(label);
    }
  }

  // Shuffle so splits aren't class-ordered even without stratification.
  auto perm = random_permutation(data.size(), rng);
  data = subset(data, perm);
  data.name = cfg.name;
  data.validate();
  return data;
}

Dataset make_whitewine(std::uint64_t seed) {
  // 4898 samples / 11 physicochemical features / quality 3..9 (7 classes).
  // Real histogram is ~ {20, 163, 1457, 2198, 880, 175, 5}: mid-heavy.
  SynthConfig cfg;
  cfg.name = "whitewine";
  cfg.n_features = 11;
  cfg.n_classes = 7;
  cfg.n_samples = 4898;
  cfg.ordinal = true;
  cfg.class_separation = 1.15;
  cfg.label_noise = 0.22;
  cfg.class_weights = {20, 163, 1457, 2198, 880, 175, 5};
  Rng rng(seed);
  return make_synthetic(cfg, rng);
}

Dataset make_redwine(std::uint64_t seed) {
  // 1599 samples / 11 features / quality 3..8 (6 classes).
  // Real histogram ~ {10, 53, 681, 638, 199, 18}.
  SynthConfig cfg;
  cfg.name = "redwine";
  cfg.n_features = 11;
  cfg.n_classes = 6;
  cfg.n_samples = 1599;
  cfg.ordinal = true;
  cfg.class_separation = 1.25;
  cfg.label_noise = 0.20;
  cfg.class_weights = {10, 53, 681, 638, 199, 18};
  Rng rng(seed);
  return make_synthetic(cfg, rng);
}

Dataset make_pendigits(std::uint64_t seed) {
  // 7494 training samples / 16 resampled pen-coordinate features /
  // 10 digits, well separated; 2 sub-clusters model writing styles.
  SynthConfig cfg;
  cfg.name = "pendigits";
  cfg.n_features = 16;
  cfg.n_classes = 10;
  cfg.n_samples = 7494;
  cfg.ordinal = false;
  cfg.class_separation = 2.1;
  cfg.clusters_per_class = 2;
  cfg.label_noise = 0.01;
  Rng rng(seed);
  return make_synthetic(cfg, rng);
}

Dataset make_seeds(std::uint64_t seed) {
  // 7 geometric kernel features / 3 wheat varieties. The original set has
  // only 210 rows; we draw 630 so the 20% test split is ~125 samples.
  SynthConfig cfg;
  cfg.name = "seeds";
  cfg.n_features = 7;
  cfg.n_classes = 3;
  cfg.n_samples = 630;
  cfg.ordinal = false;
  cfg.class_separation = 1.55;
  cfg.label_noise = 0.03;
  Rng rng(seed);
  return make_synthetic(cfg, rng);
}

std::string synth_dataset_name(const SynthConfig& cfg) {
  std::string out = "synth";
  out += ":f" + std::to_string(cfg.n_features);
  out += ":c" + std::to_string(cfg.n_classes);
  out += ":n" + std::to_string(cfg.n_samples);
  out += ":sep" + format_double_roundtrip(cfg.class_separation);
  out += cfg.ordinal ? ":ord1" : ":ord0";
  out += ":k" + std::to_string(cfg.clusters_per_class);
  out += ":ln" + format_double_roundtrip(cfg.label_noise);
  if (!cfg.class_weights.empty()) {
    out += ":w";
    for (std::size_t i = 0; i < cfg.class_weights.size(); ++i) {
      if (i > 0) out += '+';
      out += format_double_roundtrip(cfg.class_weights[i]);
    }
  }
  return out;
}

namespace {

[[noreturn]] void bad_synth_token(const std::string& name, const char* why) {
  throw std::invalid_argument("parse_synth_dataset_name: " + std::string(why) +
                              " in '" + name + "'");
}

/// The field's numeric payload, or nullopt when the prefix does not match.
std::optional<std::string_view> field_payload(std::string_view field,
                                              std::string_view prefix) {
  if (field.substr(0, prefix.size()) != prefix) return std::nullopt;
  return field.substr(prefix.size());
}

}  // namespace

SynthConfig parse_synth_dataset_name(const std::string& name) {
  const std::vector<std::string_view> fields = split_fields(name, ':');
  if (fields.empty() || fields[0] != "synth") {
    bad_synth_token(name, "missing 'synth' prefix");
  }
  if (fields.size() < 8 || fields.size() > 9) {
    bad_synth_token(name, "expected 7 or 8 ':'-separated fields after 'synth'");
  }
  SynthConfig cfg;
  const auto take_size = [&](std::string_view field, std::string_view prefix,
                             const char* what) {
    const std::optional<std::string_view> payload = field_payload(field, prefix);
    if (!payload) bad_synth_token(name, what);
    const std::optional<std::uint64_t> v = parse_u64_strict(*payload);
    if (!v || *v > std::numeric_limits<std::size_t>::max()) {
      bad_synth_token(name, what);
    }
    return static_cast<std::size_t>(*v);
  };
  const auto take_double = [&](std::string_view field, std::string_view prefix,
                               const char* what) {
    const std::optional<std::string_view> payload = field_payload(field, prefix);
    if (!payload) bad_synth_token(name, what);
    const std::optional<double> v = parse_double_strict(*payload);
    if (!v) bad_synth_token(name, what);
    return *v;
  };
  cfg.n_features = take_size(fields[1], "f", "bad feature field (fN)");
  cfg.n_classes = take_size(fields[2], "c", "bad class field (cN)");
  cfg.n_samples = take_size(fields[3], "n", "bad sample field (nN)");
  cfg.class_separation = take_double(fields[4], "sep", "bad separation field (sepX)");
  const std::size_t ord = take_size(fields[5], "ord", "bad ordinal field (ord0|1)");
  if (ord > 1) bad_synth_token(name, "bad ordinal field (ord0|1)");
  cfg.ordinal = ord == 1;
  cfg.clusters_per_class = take_size(fields[6], "k", "bad cluster field (kN)");
  cfg.label_noise = take_double(fields[7], "ln", "bad label-noise field (lnX)");
  if (fields.size() == 9) {
    const std::optional<std::string_view> payload =
        field_payload(fields[8], "w");
    if (!payload) bad_synth_token(name, "bad weight field (wA+B+...)");
    for (std::string_view token : split_fields(*payload, '+')) {
      const std::optional<double> v = parse_double_strict(token);
      if (!v) bad_synth_token(name, "bad weight field (wA+B+...)");
      cfg.class_weights.push_back(*v);
    }
  }
  cfg.name = name;
  cfg.validate();
  return cfg;
}

Dataset make_named_dataset(const std::string& name, std::uint64_t seed) {
  if (name == "whitewine") return make_whitewine(seed);
  if (name == "redwine") return make_redwine(seed);
  if (name == "pendigits") return make_pendigits(seed);
  if (name == "seeds") return make_seeds(seed);
  if (name.rfind("synth:", 0) == 0) {
    const SynthConfig cfg = parse_synth_dataset_name(name);
    Rng rng(seed);
    return make_synthetic(cfg, rng);
  }
  throw std::invalid_argument("make_named_dataset: unknown dataset '" + name + "'");
}

const std::vector<std::string>& paper_dataset_names() {
  static const std::vector<std::string> names = {"whitewine", "redwine", "pendigits",
                                                 "seeds"};
  return names;
}

}  // namespace pnm
