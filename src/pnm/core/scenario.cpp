#include "pnm/core/scenario.hpp"

#include <algorithm>
#include <cctype>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <initializer_list>
#include <limits>
#include <stdexcept>
#include <unordered_set>
#include <utility>

#include "pnm/core/campaign.hpp"
#include "pnm/core/eval.hpp"
#include "pnm/core/eval_store.hpp"
#include "pnm/core/quantize.hpp"
#include "pnm/data/synth.hpp"
#include "pnm/hw/mcm.hpp"
#include "pnm/hw/tech.hpp"
#include "pnm/util/fileio.hpp"
#include "pnm/util/table.hpp"

namespace pnm {
namespace {

constexpr char kScellMagic[] = "pnm-scenario-cell";
// v2: the fingerprint hashes the search stacks' fingerprints and GA knobs
// directly and gained the fidelity switch.
constexpr int kScellVersion = 2;

/// "default" for the per-dataset topology, else '-'-joined hidden widths.
std::string hidden_token(const std::vector<std::size_t>& hidden) {
  if (hidden.empty()) return "default";
  std::string out;
  for (std::size_t i = 0; i < hidden.size(); ++i) {
    if (i > 0) out += '-';
    out += std::to_string(hidden[i]);
  }
  return out;
}

std::optional<std::vector<std::size_t>> parse_hidden_token(std::string_view token) {
  if (token == "default") return std::vector<std::size_t>{};
  std::vector<std::size_t> hidden;
  for (std::string_view field : split_fields(token, '-')) {
    const std::optional<std::size_t> w = parse_size_strict(field);
    if (!w || *w == 0) return std::nullopt;
    hidden.push_back(*w);
  }
  return hidden;
}

FlowConfig cell_flow_config(const ScenarioSpec& spec, const ScenarioCell& cell) {
  FlowConfig config = spec.base;
  config.dataset_name = cell.dataset;
  config.seed = cell.seed;
  config.hidden = cell.hidden;
  config.input_bits = cell.input_bits;
  config.tech_name = cell.tech;
  return config;
}

/// The hidden widths a topology means on `dataset` ({} = its default).
std::vector<std::size_t> resolved_hidden(const std::string& dataset,
                                         const std::vector<std::size_t>& hidden) {
  return hidden.empty() ? MinimizationFlow::default_hidden(dataset) : hidden;
}

bool cell_is_gated(const ScenarioCell& cell) {
  for (std::size_t w : resolved_hidden(cell.dataset, cell.hidden)) {
    if (w > kFidelityGateMaxHidden) return false;
  }
  return true;
}

constexpr CellLayout kScenarioLayout{"sclaims", "scells", ".scell"};

std::string scell_header(const std::string& cell_fp) {
  return std::string(kScellMagic) + " v" + std::to_string(kScellVersion) + " " + cell_fp;
}

/// The grid's cells for the scheduler, in expand() order.
std::vector<CellRef> scenario_cells(const ScenarioSpec& spec,
                                    const std::vector<ScenarioCell>& cells) {
  std::vector<CellRef> refs;
  refs.reserve(cells.size());
  for (const ScenarioCell& cell : cells) {
    refs.push_back({cell.id(), spec.fingerprint(cell)});
  }
  return refs;
}

/// The cells' datasets in first-appearance order (spec order).
std::vector<std::string> datasets_in_order(const std::vector<ScenarioCellResult>& cells) {
  std::vector<std::string> datasets;
  for (const ScenarioCellResult& c : cells) {
    if (std::find(datasets.begin(), datasets.end(), c.cell.dataset) == datasets.end()) {
      datasets.push_back(c.cell.dataset);
    }
  }
  return datasets;
}

CellStats totals(const std::vector<ScenarioCellResult>& cells) {
  CellStats total;
  for (const CellStats& cell : cells) total += cell;
  return total;
}

double hit_rate(std::size_t hits, std::size_t misses) {
  const std::size_t total = hits + misses;
  return total == 0 ? 0.0 : static_cast<double>(hits) / static_cast<double>(total);
}

/// One design point as a JSON object.  Doubles go through json_number, so
/// equal points render to equal bytes and non-finite values as null.
std::string point_json(const DesignPoint& p) {
  std::string out = "{\"genome\": \"" + json_escape(p.config) + "\"";
  out += ", \"technique\": \"" + json_escape(p.technique) + "\"";
  out += ", \"accuracy\": " + json_number(p.accuracy);
  out += ", \"area_mm2\": " + json_number(p.area_mm2);
  out += ", \"power_uw\": " + json_number(p.power_uw);
  out += ", \"delay_ms\": " + json_number(p.delay_ms);
  out += "}";
  return out;
}

/// A front as a JSON array, one point per line, indented by `indent`.
std::string front_json(const std::vector<DesignPoint>& front, const std::string& indent) {
  std::string out = "[";
  for (std::size_t i = 0; i < front.size(); ++i) {
    out += (i == 0 ? "\n" : ",\n") + indent + "  " + point_json(front[i]);
  }
  out += front.empty() ? "]" : "\n" + indent + "]";
  return out;
}

/// One backend's evaluator stack in a cell — stored+cached(parallel(
/// backend)) on the runner's shared pool.  With a non-empty `store_stem`
/// the cache is persisted in the EvalStore directory
/// `<store_stem>_<tag>_<fp>.evalstore`, where fp =
/// eval_fingerprint(flow, backend.config(), backend.name()).
class CellEvalStack {
 public:
  CellEvalStack(PipelineEvaluator& backend, ThreadPool& pool, const FlowConfig& flow,
                const std::string& store_stem, const char* tag)
      : parallel_(backend, pool) {
    if (store_stem.empty()) {
      cached_.emplace(parallel_);
      return;
    }
    // One store per cell x backend, named by fingerprint, so a config
    // change opens a fresh store instead of invalidating the old one.
    const std::string fp = eval_fingerprint(flow, backend.config(), backend.name());
    store_.emplace(store_stem + "_" + tag + "_" + fp + ".evalstore", fp);
    cached_.emplace(parallel_, *store_);
  }

  /// The top of the stack, handed to the GA or the front re-evaluation.
  CachedEvaluator& cached() { return *cached_; }

 private:
  ParallelEvaluator parallel_;
  std::optional<EvalStore> store_;
  std::optional<CachedEvaluator> cached_;
};

/// Measures one cell from construction: wall time and the MCM plan-cache
/// counter deltas.
class CellMeter {
 public:
  CellMeter() : start_(std::chrono::steady_clock::now()) {
    const hw::McmCacheStats mcm = hw::mcm_plan_cache_stats();
    mcm_hits_ = mcm.hits;
    mcm_misses_ = mcm.misses;
  }

  /// Fills `stats`: the measured time and MCM deltas,
  /// `distinct_evaluations`, and the cache counters summed over the
  /// cell's stacks (null entries are stacks the cell did not build).
  void record(CellStats& stats, std::size_t distinct_evaluations,
              std::initializer_list<CellEvalStack*> stacks) const {
    stats.distinct_evaluations = distinct_evaluations;
    stats.cache_hits = stats.cache_misses = stats.store_loaded = 0;
    for (CellEvalStack* stack : stacks) {
      if (stack == nullptr) continue;
      stats.cache_hits += stack->cached().hits();
      stats.cache_misses += stack->cached().misses();
      stats.store_loaded += stack->cached().loaded();
    }
    // Cells run serially within a process, so the process-wide counter
    // deltas are this cell's own lookups.
    const hw::McmCacheStats mcm = hw::mcm_plan_cache_stats();
    stats.mcm_hits = static_cast<std::size_t>(mcm.hits - mcm_hits_);
    stats.mcm_misses = static_cast<std::size_t>(mcm.misses - mcm_misses_);
    stats.seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start_).count();
  }

 private:
  std::chrono::steady_clock::time_point start_;
  std::uint64_t mcm_hits_ = 0;
  std::uint64_t mcm_misses_ = 0;
};

/// Deterministic perturbation of the (scaled) test split: every draw
/// derives from the cell id and the drift, never from global state.
Dataset perturbed_test(const Dataset& test, const DriftSpec& drift,
                       const std::string& cell_id) {
  Rng rng(fnv1a64(cell_id + "|" + drift.name) ^ drift.seed);
  Dataset out = test;
  if (drift.feature_noise > 0.0) {
    // Features are min-max scaled to [0, 1] before quantization; the
    // perturbation happens in that domain and clamps back, exactly like
    // an out-of-range sensor reading would saturate the input word.
    for (auto& row : out.x) {
      for (double& v : row) {
        v += drift.feature_noise * rng.normal();
        v = v < 0.0 ? 0.0 : (v > 1.0 ? 1.0 : v);
      }
    }
  }
  if (drift.class_prior_shift > 0.0) {
    // Resample even-indexed classes down; the first sample of every class
    // is always kept so no label disappears from the split.
    std::vector<char> seen(out.n_classes, 0);
    std::vector<std::size_t> keep;
    keep.reserve(out.size());
    for (std::size_t i = 0; i < out.size(); ++i) {
      const std::size_t c = out.y[i];
      const bool forced = seen[c] == 0;
      seen[c] = 1;
      const bool drop = (c % 2 == 0) && rng.bernoulli(drift.class_prior_shift);
      if (forced || !drop) keep.push_back(i);
    }
    out = subset(out, keep);
  }
  return out;
}

/// Refuses a synthetic dataset whose stratified split leaves validation
/// or test empty before label noise (MinimizationFlow::prepare refuses
/// what noise empties): every cell would train and then throw.  A class
/// feeds validation from 3 samples and test from 4 up, so the largest
/// class decides.  Balanced classes hold ceil(n / classes) samples at
/// most; only weighted configs, whose class count the spec text bounds,
/// need the generator's per-class budget.
void require_splittable(const std::string& name, const SynthConfig& cfg) {
  std::size_t largest = cfg.n_samples / cfg.n_classes + (cfg.n_samples % cfg.n_classes != 0);
  if (!cfg.class_weights.empty()) {
    const std::vector<std::size_t> counts = synth_class_counts(cfg);
    largest = *std::max_element(counts.begin(), counts.end());
  }
  const auto [train, val, test] =
      stratified_class_counts(largest, kTrainFrac, kValFrac, kTestFrac);
  if (val == 0 || test == 0) {
    throw std::invalid_argument(
        "ScenarioSpec: dataset '" + name + "' is too small to split: its largest class (" +
        std::to_string(largest) + " samples) splits " + std::to_string(train) + "/" +
        std::to_string(val) + "/" + std::to_string(test) +
        " into train/validation/test, and a class needs 4 to fill all three");
  }
}

}  // namespace

// ---- Spec ---------------------------------------------------------------

void DriftSpec::validate() const {
  if (name.empty()) throw std::invalid_argument("DriftSpec: empty name");
  for (char c : name) {
    if (std::isspace(static_cast<unsigned char>(c)) || c == ':') {
      throw std::invalid_argument(
          "DriftSpec: name must be whitespace- and ':'-free, got '" + name + "'");
    }
  }
  if (!std::isfinite(feature_noise) || feature_noise < 0.0) {
    throw std::invalid_argument("DriftSpec: feature_noise must be finite and >= 0");
  }
  if (!std::isfinite(class_prior_shift) || class_prior_shift < 0.0 ||
      class_prior_shift >= 1.0) {
    throw std::invalid_argument("DriftSpec: class_prior_shift must be in [0, 1)");
  }
}

std::string ScenarioCell::id() const {
  return dataset + "__h" + (hidden.empty() ? "def" : hidden_token(hidden)) + "__b" +
         std::to_string(input_bits) + "__" + tech + "__s" + std::to_string(seed);
}

void ScenarioSpec::validate() const {
  require_unique_nonempty(datasets, "ScenarioSpec", "dataset");
  // Two spellings of one synthetic config ("sep2" and "sep2.0") generate
  // the same data: they would run one search twice, into two stores.
  std::unordered_set<std::string> configs;
  for (const std::string& d : datasets) {
    std::string config = d;
    if (d.rfind("synth:", 0) == 0) {
      // Throws with the offending field.
      const SynthConfig synth = parse_synth_dataset_name(d);
      config = synth_dataset_name(synth);
      require_splittable(d, synth);
    } else {
      const auto& known = paper_dataset_names();
      if (std::find(known.begin(), known.end(), d) == known.end()) {
        throw std::invalid_argument("ScenarioSpec: unknown dataset '" + d + "'");
      }
    }
    if (!configs.insert(config).second) {
      throw std::invalid_argument("ScenarioSpec: dataset '" + d +
                                  "' names the same config as an earlier one");
    }
  }
  if (topologies.empty()) {
    throw std::invalid_argument("ScenarioSpec: topology list must be non-empty");
  }
  // Two topologies that resolve to the same widths on a dataset are one
  // network: they would run one search twice, into the same stores.
  for (const std::string& d : datasets) {
    std::unordered_set<std::string> seen;
    for (const auto& hidden : topologies) {
      if (std::find(hidden.begin(), hidden.end(), 0) != hidden.end()) {
        throw std::invalid_argument("ScenarioSpec: zero hidden width");
      }
      const std::string widths = hidden_token(resolved_hidden(d, hidden));
      if (!seen.insert(widths).second) {
        throw std::invalid_argument("ScenarioSpec: duplicate topology " + widths +
                                    " on dataset '" + d + "'");
      }
    }
  }
  require_unique_nonempty(input_bits, "ScenarioSpec", "input_bits");
  for (int bits : input_bits) {
    if (bits < 1 || bits > 16) {
      throw std::invalid_argument("ScenarioSpec: input_bits must be in [1, 16]");
    }
  }
  require_unique_nonempty(tech_nodes, "ScenarioSpec", "tech node");
  for (const std::string& t : tech_nodes) hw::TechLibrary::by_name(t);  // throws
  require_unique_nonempty(seeds, "ScenarioSpec", "seed");
  {
    std::unordered_set<std::string> seen;
    for (const DriftSpec& d : drifts) {
      d.validate();
      if (!seen.insert(d.name).second) {
        throw std::invalid_argument("ScenarioSpec: duplicate drift name " + d.name);
      }
    }
  }
  base.train.validate();
  ga.validate();
}

std::vector<ScenarioCell> ScenarioSpec::expand() const {
  std::vector<ScenarioCell> cells;
  cells.reserve(datasets.size() * topologies.size() * input_bits.size() *
                tech_nodes.size() * seeds.size());
  for (const std::string& dataset : datasets) {
    for (const auto& hidden : topologies) {
      for (int bits : input_bits) {
        for (const std::string& tech : tech_nodes) {
          for (std::uint64_t seed : seeds) {
            cells.push_back(ScenarioCell{dataset, hidden, bits, tech, seed});
          }
        }
      }
    }
  }
  return cells;
}

std::string ScenarioSpec::fingerprint(const ScenarioCell& cell) const {
  const FlowConfig config = cell_flow_config(*this, cell);
  const auto ints = [](const auto& values) {
    std::string out;
    for (int v : values) out += std::to_string(v) + ",";
    return out;
  };
  std::string canon;
  canon.reserve(512);
  append_kv(canon, "scell_version", std::to_string(kScellVersion));
  // The two search stacks' fingerprints cover everything evaluation-side
  // (dataset, seed, topology, input bits, tech node, training recipe,
  // budgets, split); the GA settings and search space on top decide which
  // genomes get evaluated and in what order, so they shape the front too.
  // The search space and rates are constants that keep the tokens they had
  // as GaConfig fields, so every published cell keeps its fingerprint.
  append_kv(canon, "proxy_fp",
            eval_fingerprint(config,
                             MinimizationFlow::eval_config_for(
                                 config, ga_finetune_epochs, false),
                             "proxy"));
  append_kv(canon, "netlist_fp",
            eval_fingerprint(config,
                             MinimizationFlow::eval_config_for(
                                 config, config.finetune_epochs, true),
                             "netlist"));
  append_kv(canon, "population", std::to_string(ga.population));
  append_kv(canon, "generations", std::to_string(ga.generations));
  append_kv(canon, "crossover", format_double_roundtrip(kCrossoverProb));
  append_kv(canon, "mutation", format_double_roundtrip(kMutationProb));
  append_kv(canon, "min_bits", std::to_string(kMinWeightBits));
  append_kv(canon, "max_bits", std::to_string(kMaxWeightBits));
  append_kv(canon, "sparsity_choices", ints(kSparsityChoices));
  append_kv(canon, "cluster_choices", ints(kClusterChoices));
  append_kv(canon, "acc_shift_choices", ints(ga.acc_shift_choices));
  // The fidelity pass re-prices the front through a third stack: proxy
  // backend at the front's fine-tune budget on the test split.
  append_kv(canon, "fidelity", fidelity ? "1" : "0");
  append_kv(canon, "fidelity_fp",
            eval_fingerprint(config,
                             MinimizationFlow::eval_config_for(
                                 config, config.finetune_epochs, true),
                             "proxy"));
  // Gate membership is stored in the cell file; the tolerance is not (it
  // is applied at report time), so changing only the tolerance re-gates
  // published results instead of recomputing them.
  append_kv(canon, "gate_max_hidden", std::to_string(kFidelityGateMaxHidden));
  for (const DriftSpec& d : drifts) {
    append_kv(canon, "drift",
              d.name + "," + format_double_roundtrip(d.feature_noise) + "," +
                  format_double_roundtrip(d.class_prior_shift) + "," +
                  std::to_string(d.seed));
  }
  return fnv1a64_hex(canon);
}

CellStats& CellStats::operator+=(const CellStats& other) {
  distinct_evaluations += other.distinct_evaluations;
  cache_hits += other.cache_hits;
  cache_misses += other.cache_misses;
  store_loaded += other.store_loaded;
  mcm_hits += other.mcm_hits;
  mcm_misses += other.mcm_misses;
  seconds += other.seconds;
  return *this;
}

// ---- Cell files ---------------------------------------------------------

std::string format_scenario_cell(const ScenarioCellResult& result,
                                 const std::string& cell_fp) {
  const ScenarioCell& c = result.cell;
  std::string out = scell_header(cell_fp) + "\n";
  out += "cell\t" + c.dataset + "\t" + hidden_token(c.hidden) + "\t" +
         std::to_string(c.input_bits) + "\t" + c.tech + "\t" +
         std::to_string(c.seed) + "\n";
  out += "stats\t" + std::to_string(result.distinct_evaluations) + "\t" +
         std::to_string(result.cache_hits) + "\t" +
         std::to_string(result.cache_misses) + "\t" +
         std::to_string(result.store_loaded) + "\t" +
         std::to_string(result.mcm_hits) + "\t" +
         std::to_string(result.mcm_misses) + "\t" +
         format_double_roundtrip(result.seconds) + "\n";
  out += format_eval_record("baseline", result.baseline);
  out += "front\t" + std::to_string(result.front.size()) + "\n";
  for (const DesignPoint& p : result.front) out += format_eval_record("point", p);
  out += "fidelity\t" + std::to_string(result.fidelity.size()) + "\t" +
         (result.fidelity_gated ? "1" : "0") + "\t" +
         format_double_roundtrip(result.fidelity_max_rel_delta) + "\n";
  for (const FidelityRecord& f : result.fidelity) {
    out += "fid\t" + f.genome + "\t" + format_double_roundtrip(f.proxy_area_mm2) +
           "\t" + format_double_roundtrip(f.netlist_area_mm2) + "\t" +
           format_double_roundtrip(f.rel_delta) + "\n";
  }
  out += "drift\t" + std::to_string(result.drift.size()) + "\n";
  for (const DriftRecord& d : result.drift) {
    out += "dr\t" + d.drift + "\t" + d.genome + "\t" +
           format_double_roundtrip(d.base_accuracy) + "\t" +
           format_double_roundtrip(d.drift_accuracy) + "\n";
  }
  // Terminator sentinel: without it, truncating the file mid-way through
  // the final record's last double could still parse (a shortened decimal
  // is itself a valid double).  Atomic publishing already prevents
  // partial files; this makes the parser reject them independently.
  out += "end\n";
  return out;
}

std::optional<ScenarioCellResult> parse_scenario_cell(std::string_view text,
                                                      const std::string& cell_fp) {
  const std::vector<std::string_view> lines = split_lines(text);
  // Header, cell, stats, baseline, the front, the fidelity and drift
  // sections, and the "end" sentinel.
  if (lines.size() < 5 || lines[0] != scell_header(cell_fp)) return std::nullopt;
  ScenarioCellResult result;
  {
    const std::vector<std::string_view> fields = split_fields(lines[1], '\t');
    if (fields.size() != 6 || fields[0] != "cell" || fields[1].empty()) {
      return std::nullopt;
    }
    result.cell.dataset.assign(fields[1]);
    const auto hidden = parse_hidden_token(fields[2]);
    const auto bits = parse_size_strict(fields[3]);
    const auto seed = parse_u64_strict(fields[5]);
    if (!hidden || !bits || *bits == 0 || *bits > 16 || fields[4].empty() || !seed) {
      return std::nullopt;
    }
    result.cell.hidden = *hidden;
    result.cell.input_bits = static_cast<int>(*bits);
    result.cell.tech.assign(fields[4]);
    result.cell.seed = *seed;
  }
  {
    const std::vector<std::string_view> fields = split_fields(lines[2], '\t');
    if (fields.size() != 8 || fields[0] != "stats") return std::nullopt;
    std::size_t* const counters[] = {&result.distinct_evaluations, &result.cache_hits,
                                     &result.cache_misses,         &result.store_loaded,
                                     &result.mcm_hits,             &result.mcm_misses};
    for (std::size_t i = 0; i < 6; ++i) {
      const std::optional<std::size_t> v = parse_size_strict(fields[i + 1]);
      if (!v) return std::nullopt;
      *counters[i] = *v;
    }
    const std::optional<double> seconds = parse_double_strict(fields[7]);
    if (!seconds) return std::nullopt;
    result.seconds = *seconds;
  }
  std::string tag;
  if (!parse_eval_record(lines[3], tag, result.baseline) || tag != "baseline") {
    return std::nullopt;
  }
  std::size_t at = 4;
  {
    const std::vector<std::string_view> head = split_fields(lines[at], '\t');
    const auto count =
        head.size() == 2 && head[0] == "front" ? parse_size_strict(head[1]) : std::nullopt;
    ++at;
    // The points plus the fidelity head must follow.
    if (!count || *count >= lines.size() - at) return std::nullopt;
    result.front.reserve(*count);
    for (std::size_t i = 0; i < *count; ++i, ++at) {
      DesignPoint point;
      if (!parse_eval_record(lines[at], tag, point) || tag != "point") return std::nullopt;
      result.front.push_back(std::move(point));
    }
  }
  {
    const std::vector<std::string_view> fields = split_fields(lines[at], '\t');
    if (fields.size() != 4 || fields[0] != "fidelity") return std::nullopt;
    const auto count = parse_size_strict(fields[1]);
    const auto max_delta = parse_double_strict(fields[3]);
    if (!count || (fields[2] != "0" && fields[2] != "1") || !max_delta) {
      return std::nullopt;
    }
    result.fidelity_gated = fields[2] == "1";
    result.fidelity_max_rel_delta = *max_delta;
    ++at;
    // The records plus the drift head must follow.
    if (*count >= lines.size() - at) return std::nullopt;
    result.fidelity.reserve(*count);
    for (std::size_t i = 0; i < *count; ++i, ++at) {
      const std::vector<std::string_view> f = split_fields(lines[at], '\t');
      if (f.size() != 5 || f[0] != "fid" || f[1].empty()) return std::nullopt;
      const auto proxy = parse_double_strict(f[2]);
      const auto netlist = parse_double_strict(f[3]);
      const auto rel = parse_double_strict(f[4]);
      if (!proxy || !netlist || !rel) return std::nullopt;
      result.fidelity.push_back(
          FidelityRecord{std::string(f[1]), *proxy, *netlist, *rel});
    }
  }
  {
    const std::vector<std::string_view> head = split_fields(lines[at], '\t');
    const auto count =
        head.size() == 2 && head[0] == "drift" ? parse_size_strict(head[1]) : std::nullopt;
    ++at;
    // Exactly the records and the "end" sentinel must follow.
    if (!count || at >= lines.size() || *count != lines.size() - at - 1) {
      return std::nullopt;
    }
    result.drift.reserve(*count);
    for (std::size_t i = 0; i < *count; ++i, ++at) {
      const std::vector<std::string_view> f = split_fields(lines[at], '\t');
      if (f.size() != 5 || f[0] != "dr" || f[1].empty() || f[2].empty()) {
        return std::nullopt;
      }
      const auto base = parse_double_strict(f[3]);
      const auto drifted = parse_double_strict(f[4]);
      if (!base || !drifted) return std::nullopt;
      result.drift.push_back(
          DriftRecord{std::string(f[1]), std::string(f[2]), *base, *drifted});
    }
  }
  if (lines[at] != "end") return std::nullopt;
  return result;
}

// ---- ScenarioResult -----------------------------------------------------

std::size_t ScenarioResult::total_cache_hits() const { return totals(cells).cache_hits; }

std::size_t ScenarioResult::total_cache_misses() const {
  return totals(cells).cache_misses;
}

std::size_t ScenarioResult::total_store_loaded() const {
  return totals(cells).store_loaded;
}

double ScenarioResult::cache_hit_rate() const {
  return hit_rate(total_cache_hits(), total_cache_misses());
}

std::size_t ScenarioResult::total_mcm_hits() const { return totals(cells).mcm_hits; }

std::size_t ScenarioResult::total_mcm_misses() const { return totals(cells).mcm_misses; }

double ScenarioResult::mcm_plan_hit_rate() const {
  return hit_rate(total_mcm_hits(), total_mcm_misses());
}

double ScenarioResult::max_gated_rel_delta() const {
  double max_delta = 0.0;
  for (const ScenarioCellResult& c : cells) {
    if (c.fidelity_gated && c.fidelity_max_rel_delta > max_delta) {
      max_delta = c.fidelity_max_rel_delta;
    }
  }
  return max_delta;
}

std::size_t ScenarioResult::fidelity_violations() const {
  std::size_t n = 0;
  for (const ScenarioCellResult& c : cells) {
    if (c.fidelity_gated && c.fidelity_max_rel_delta > kFidelityTolerance) ++n;
  }
  return n;
}

std::vector<DesignPoint> ScenarioResult::merged_front(const std::string& dataset) const {
  std::vector<DesignPoint> all;
  for (const ScenarioCellResult& c : cells) {
    if (c.cell.dataset != dataset) continue;
    all.insert(all.end(), c.front.begin(), c.front.end());
  }
  return pareto_front(std::move(all));
}

std::string ScenarioResult::fronts_json() const {
  std::string out = "{\n  \"datasets\": [";
  bool first_dataset = true;
  for (const std::string& dataset : datasets_in_order(cells)) {
    out += first_dataset ? "\n" : ",\n";
    first_dataset = false;
    out += "    {\"dataset\": \"" + json_escape(dataset) + "\", \"runs\": [";
    bool first_run = true;
    for (const ScenarioCellResult& c : cells) {
      if (c.cell.dataset != dataset) continue;
      out += first_run ? "\n" : ",\n";
      first_run = false;
      out += "      {\"seed\": " + std::to_string(c.cell.seed) +
             ", \"front\": " + front_json(c.front, "      ") + "}";
    }
    out += "\n    ], \"merged_front\": " + front_json(merged_front(dataset), "    ") +
           "}";
  }
  out += "\n  ]\n}\n";
  return out;
}

std::string ScenarioResult::grid_json() const {
  std::string out = "{\n  \"cells\": [";
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const ScenarioCellResult& c = cells[i];
    out += (i == 0 ? "\n" : ",\n");
    out += "    {\"id\": \"" + json_escape(c.cell.id()) + "\"";
    out += ", \"dataset\": \"" + json_escape(c.cell.dataset) + "\"";
    out += ", \"topology\": \"" + hidden_token(c.cell.hidden) + "\"";
    out += ", \"input_bits\": " + std::to_string(c.cell.input_bits);
    out += ", \"tech\": \"" + json_escape(c.cell.tech) + "\"";
    out += ", \"seed\": " + std::to_string(c.cell.seed);
    out += ",\n     \"baseline\": " + point_json(c.baseline);
    out += ",\n     \"front\": " + front_json(c.front, "     ");
    out += ",\n     \"fidelity\": {\"gated\": " +
           std::string(c.fidelity_gated ? "true" : "false");
    out += ", \"max_rel_delta\": " + json_number(c.fidelity_max_rel_delta);
    out += ", \"records\": [";
    for (std::size_t j = 0; j < c.fidelity.size(); ++j) {
      const FidelityRecord& f = c.fidelity[j];
      out += (j == 0 ? "\n" : ",\n");
      out += "       {\"genome\": \"" + json_escape(f.genome) + "\"";
      out += ", \"proxy_area_mm2\": " + json_number(f.proxy_area_mm2);
      out += ", \"netlist_area_mm2\": " + json_number(f.netlist_area_mm2);
      out += ", \"rel_delta\": " + json_number(f.rel_delta) + "}";
    }
    out += c.fidelity.empty() ? "]}" : "\n     ]}";
    out += ",\n     \"drift\": [";
    for (std::size_t j = 0; j < c.drift.size(); ++j) {
      const DriftRecord& d = c.drift[j];
      out += (j == 0 ? "\n" : ",\n");
      out += "       {\"drift\": \"" + json_escape(d.drift) + "\"";
      out += ", \"genome\": \"" + json_escape(d.genome) + "\"";
      out += ", \"base_accuracy\": " + json_number(d.base_accuracy);
      out += ", \"drift_accuracy\": " + json_number(d.drift_accuracy) + "}";
    }
    out += c.drift.empty() ? "]}" : "\n     ]}";
  }
  out += "\n  ]\n}\n";
  return out;
}

std::string ScenarioResult::drift_report() const {
  std::string out = "pnm-scenario-drift v1\n";
  for (const ScenarioCellResult& c : cells) {
    for (const DriftRecord& d : c.drift) {
      out += c.cell.id() + "\t" + d.drift + "\t" + d.genome + "\t" +
             format_double_roundtrip(d.base_accuracy) + "\t" +
             format_double_roundtrip(d.drift_accuracy) + "\n";
    }
  }
  return out;
}

std::string ScenarioResult::report_json() const {
  std::string out = "{\n";
  out += "  \"total_cache_hits\": " + std::to_string(total_cache_hits()) + ",\n";
  out += "  \"total_cache_misses\": " + std::to_string(total_cache_misses()) + ",\n";
  out += "  \"total_store_loaded\": " + std::to_string(total_store_loaded()) + ",\n";
  out += "  \"cache_hit_rate\": " + json_number(cache_hit_rate()) + ",\n";
  out += "  \"total_mcm_plan_hits\": " + std::to_string(total_mcm_hits()) + ",\n";
  out += "  \"total_mcm_plan_misses\": " + std::to_string(total_mcm_misses()) + ",\n";
  out += "  \"mcm_plan_hit_rate\": " + json_number(mcm_plan_hit_rate()) + ",\n";
  out += "  \"max_gated_rel_delta\": " + json_number(max_gated_rel_delta()) + ",\n";
  out += "  \"cells\": [";
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const ScenarioCellResult& c = cells[i];
    out += (i == 0 ? "\n" : ",\n");
    out += "    {\"id\": \"" + json_escape(c.cell.id()) + "\"";
    out += ", \"distinct_evaluations\": " + std::to_string(c.distinct_evaluations);
    out += ", \"cache_hits\": " + std::to_string(c.cache_hits);
    out += ", \"cache_misses\": " + std::to_string(c.cache_misses);
    out += ", \"store_loaded\": " + std::to_string(c.store_loaded);
    out += ", \"mcm_plan_hits\": " + std::to_string(c.mcm_hits);
    out += ", \"mcm_plan_misses\": " + std::to_string(c.mcm_misses);
    out += ", \"seconds\": " + json_number(c.seconds) + "}";
  }
  // grid_json and fronts_json end with "}\n"; splice them in as nested
  // objects.
  std::string grid = grid_json();
  std::string fronts = fronts_json();
  grid.pop_back();
  fronts.pop_back();
  out += "\n  ],\n  \"grid\": " + grid + ",\n  \"fronts\": " + fronts + "\n}\n";
  return out;
}

std::string ScenarioResult::report_markdown() const {
  std::string out = "# GA campaign report\n\n";
  out += "| cell | front | best acc | min area mm^2 | fid gated | fid max delta |\n";
  out += "| ---- | ----- | -------- | ------------- | --------- | ------------- |\n";
  for (const ScenarioCellResult& c : cells) {
    // A design folded to a constant classifier has 0 mm^2: a real minimum.
    double best_acc = 0.0;
    double min_area = c.front.empty() ? 0.0 : c.front.front().area_mm2;
    for (const DesignPoint& p : c.front) {
      best_acc = std::max(best_acc, p.accuracy);
      min_area = std::min(min_area, p.area_mm2);
    }
    out += "| " + c.cell.id() + " | " + std::to_string(c.front.size()) + " | " +
           format_fixed(best_acc, 3) + " | " + format_fixed(min_area, 2) + " | " +
           (c.fidelity_gated ? "yes" : "no") + " | " +
           format_fixed(c.fidelity_max_rel_delta, 3) + " |\n";
  }
  for (const std::string& dataset : datasets_in_order(cells)) {
    out += "\n## " + dataset + "\n\n";
    out += "| cell | genome | accuracy | area mm^2 | gain vs baseline |\n";
    out += "| ---- | ------ | -------- | --------- | ---------------- |\n";
    for (const ScenarioCellResult& c : cells) {
      if (c.cell.dataset != dataset) continue;
      for (const DesignPoint& p : c.front) {
        const double gain = p.area_mm2 > 0.0 ? c.baseline.area_mm2 / p.area_mm2 : 0.0;
        out += "| " + c.cell.id() + " | `" + p.config + "` | " +
               format_fixed(p.accuracy, 3) + " | " + format_fixed(p.area_mm2, 2) +
               " | " + format_factor(gain) + " |\n";
      }
    }
    const std::vector<DesignPoint> merged = merged_front(dataset);
    out += "\nMerged front across cells (" + std::to_string(merged.size()) +
           " non-dominated designs):\n\n";
    out += "| genome | accuracy | area mm^2 |\n";
    out += "| ------ | -------- | --------- |\n";
    for (const DesignPoint& p : merged) {
      out += "| `" + p.config + "` | " + format_fixed(p.accuracy, 3) + " | " +
             format_fixed(p.area_mm2, 2) + " |\n";
    }
  }
  bool any_drift = false;
  for (const ScenarioCellResult& c : cells) any_drift |= !c.drift.empty();
  if (any_drift) {
    out += "\n## Drift robustness (mean accuracy delta per cell x drift)\n\n";
    out += "| cell | drift | mean base acc | mean drift acc | delta |\n";
    out += "| ---- | ----- | ------------- | -------------- | ----- |\n";
    for (const ScenarioCellResult& c : cells) {
      // Records are drift-major, so a linear scan groups naturally.
      std::size_t i = 0;
      while (i < c.drift.size()) {
        const std::string& name = c.drift[i].drift;
        double base = 0.0;
        double drifted = 0.0;
        std::size_t n = 0;
        for (; i < c.drift.size() && c.drift[i].drift == name; ++i, ++n) {
          base += c.drift[i].base_accuracy;
          drifted += c.drift[i].drift_accuracy;
        }
        base /= static_cast<double>(n);
        drifted /= static_cast<double>(n);
        out += "| " + c.cell.id() + " | " + name + " | " + format_fixed(base, 3) +
               " | " + format_fixed(drifted, 3) + " | " +
               format_fixed(drifted - base, 3) + " |\n";
      }
    }
  }
  out += "\n## Evaluation cache\n\n";
  out += "| cell | GA evals | hits | misses | preloaded | MCM hits | MCM misses | "
         "seconds |\n";
  out += "| ---- | -------- | ---- | ------ | --------- | -------- | ---------- | "
         "------- |\n";
  for (const ScenarioCellResult& c : cells) {
    out += "| " + c.cell.id() + " | " + std::to_string(c.distinct_evaluations) + " | " +
           std::to_string(c.cache_hits) + " | " + std::to_string(c.cache_misses) +
           " | " + std::to_string(c.store_loaded) + " | " + std::to_string(c.mcm_hits) +
           " | " + std::to_string(c.mcm_misses) + " | " + format_fixed(c.seconds, 2) +
           " |\n";
  }
  out += "\nTotals: " + std::to_string(total_cache_hits()) + " hits, " +
         std::to_string(total_cache_misses()) + " misses (hit rate " +
         format_fixed(cache_hit_rate() * 100.0, 1) + "%), " +
         std::to_string(total_store_loaded()) + " records preloaded from disk.\n";
  out += "MCM plan cache: " + std::to_string(total_mcm_hits()) + " hits, " +
         std::to_string(total_mcm_misses()) + " misses (hit rate " +
         format_fixed(mcm_plan_hit_rate() * 100.0, 1) + "%).\n";
  return out;
}

// ---- ScenarioRunner -----------------------------------------------------

ScenarioRunner::ScenarioRunner(ScenarioSpec spec)
    : spec_((spec.validate(), std::move(spec))), pool_(spec_.threads) {}

ScenarioResult ScenarioRunner::run() {
  if (!spec_.store_dir.empty()) {
    std::filesystem::create_directories(spec_.store_dir);
  }
  ScenarioResult result;
  for (const ScenarioCell& cell : spec_.expand()) {
    result.cells.push_back(run_cell(cell));
  }
  return result;
}

ScenarioCellResult ScenarioRunner::run_cell(const ScenarioCell& cell) {
  const CellMeter meter;
  const FlowConfig config = cell_flow_config(spec_, cell);
  MinimizationFlow flow(config);
  flow.prepare();

  // The two backends of the Fig. 2 search: fast proxy fitness on the
  // validation split, exact netlist re-evaluation on the test split.
  // Stores are named by dataset and seed; the fingerprint in each name
  // carries every other axis.
  ProxyEvaluator proxy = flow.proxy_evaluator(spec_.ga_finetune_epochs);
  NetlistEvaluator netlist =
      flow.netlist_evaluator(config.finetune_epochs, /*use_test_set=*/true);
  const std::string stem =
      spec_.store_dir.empty()
          ? ""
          : spec_.store_dir + "/" + cell.dataset + "_s" + std::to_string(cell.seed);
  CellEvalStack fitness(proxy, pool_, config, stem, "proxy");
  CellEvalStack front_eval(netlist, pool_, config, stem, "netlist");
  // The fidelity stack: proxy backend at the *front's* fine-tune budget on
  // the test split, so it realizes and prices the identical integer model
  // the netlist front evaluation measures.
  std::optional<ProxyEvaluator> fidelity_proxy;
  std::optional<CellEvalStack> fidelity_eval;
  if (spec_.fidelity) {
    fidelity_proxy.emplace(
        flow.proxy_evaluator(config.finetune_epochs, /*use_test_set=*/true));
    fidelity_eval.emplace(*fidelity_proxy, pool_, config, stem, "fidproxy");
  }

  const MinimizationFlow::GaOutcome outcome =
      flow.run_ga(fitness.cached(), front_eval.cached(), spec_.ga);

  ScenarioCellResult result;
  result.cell = cell;
  result.baseline = flow.baseline();
  result.front = outcome.front;
  result.fidelity_gated = spec_.fidelity && cell_is_gated(cell);

  // Distinct front genomes in deterministic (sorted-key) order: the
  // record order every report and .scell file uses.  Both passes read the
  // netlist points straight from the front cache (all hits); a cell with
  // neither pass makes no lookups.
  std::vector<std::pair<std::string, Genome>> front_genomes;
  std::vector<Genome> genomes;
  std::vector<DesignPoint> netlist_points;
  if (spec_.fidelity || !spec_.drifts.empty()) {
    std::unordered_set<std::string> seen;
    for (const EvaluatedGenome& eg : outcome.raw.front) {
      std::string key = eg.genome.key();
      if (seen.insert(key).second) {
        front_genomes.emplace_back(std::move(key), eg.genome);
      }
    }
    std::sort(front_genomes.begin(), front_genomes.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    genomes.reserve(front_genomes.size());
    for (const auto& [key, genome] : front_genomes) genomes.push_back(genome);
    netlist_points = front_eval.cached().evaluate_batch(genomes);
  }

  // Proxy-fidelity pass: the proxy re-pricing is the fidelity stack's job.
  if (fidelity_eval) {
    const std::vector<DesignPoint> proxy_points =
        fidelity_eval->cached().evaluate_batch(genomes);
    result.fidelity.reserve(genomes.size());
    for (std::size_t i = 0; i < genomes.size(); ++i) {
      FidelityRecord record;
      record.genome = front_genomes[i].first;
      record.proxy_area_mm2 = proxy_points[i].area_mm2;
      record.netlist_area_mm2 = netlist_points[i].area_mm2;
      const double diff = std::fabs(record.proxy_area_mm2 - record.netlist_area_mm2);
      record.rel_delta = record.netlist_area_mm2 > 0.0
                             ? diff / record.netlist_area_mm2
                             : (diff > 0.0 ? std::numeric_limits<double>::infinity()
                                           : 0.0);
      if (record.rel_delta > result.fidelity_max_rel_delta) {
        result.fidelity_max_rel_delta = record.rel_delta;
      }
      result.fidelity.push_back(std::move(record));
    }
  }

  // Drift-robustness pass: realize each frozen front genome once, then
  // re-score it on every seeded perturbation of the test split.  Each
  // realization is a full fine-tune (it runs on warm reruns too), so they
  // fan out over the pool, each into its own slot: the record order stays
  // the sorted-key order, and every model is deterministic per genome.
  if (!spec_.drifts.empty() && !genomes.empty()) {
    std::vector<QuantizedMlp> models(genomes.size());
    pool_.parallel_for(genomes.size(),
                       [&](std::size_t i) { models[i] = netlist.realize(genomes[i]); });
    const std::string cell_id = cell.id();
    for (const DriftSpec& drift : spec_.drifts) {
      const Dataset drifted = perturbed_test(flow.data().test, drift, cell_id);
      const QuantizedDataset qdrifted = quantize_dataset(drifted, config.input_bits);
      for (std::size_t i = 0; i < genomes.size(); ++i) {
        result.drift.push_back(DriftRecord{drift.name, front_genomes[i].first,
                                           netlist_points[i].accuracy,
                                           models[i].accuracy(qdrifted)});
      }
    }
  }

  meter.record(result, outcome.raw.evaluations,
               {&fitness, &front_eval, fidelity_eval ? &*fidelity_eval : nullptr});
  return result;
}

CampaignWorkerResult ScenarioRunner::run_worker(std::size_t shard_id,
                                                std::size_t num_shards) {
  const std::vector<ScenarioCell> cells = spec_.expand();
  return run_cell_worker(
      spec_.store_dir, kScenarioLayout, scenario_cells(spec_, cells), shard_id,
      num_shards,
      [&](std::size_t index, const std::string& fp) {
        return format_scenario_cell(run_cell(cells[index]), fp);
      },
      [](std::string_view text, const std::string& fp) {
        return parse_scenario_cell(text, fp).has_value();
      });
}

std::optional<ScenarioResult> collect_scenario(const ScenarioSpec& spec) {
  spec.validate();
  ScenarioResult result;
  const bool complete = collect_cells(
      spec.store_dir, kScenarioLayout, scenario_cells(spec, spec.expand()),
      [&](std::string_view text, const std::string& fp) {
        std::optional<ScenarioCellResult> cell = parse_scenario_cell(text, fp);
        if (cell) result.cells.push_back(std::move(*cell));
        return cell.has_value();
      });
  if (!complete) return std::nullopt;
  return result;
}

// ---- Spec file parser ---------------------------------------------------

namespace {

[[noreturn]] void bad_spec_line(std::size_t line_no, const std::string& why) {
  throw std::invalid_argument("parse_scenario_spec: line " +
                              std::to_string(line_no) + ": " + why);
}

std::string_view trim(std::string_view s) {
  while (!s.empty() && std::isspace(static_cast<unsigned char>(s.front()))) {
    s.remove_prefix(1);
  }
  while (!s.empty() && std::isspace(static_cast<unsigned char>(s.back()))) {
    s.remove_suffix(1);
  }
  return s;
}

std::vector<std::string> split_csv_tokens(std::string_view csv) {
  std::vector<std::string> out;
  for (std::string_view field : split_fields(csv, ',')) {
    if (!field.empty()) out.emplace_back(field);
  }
  return out;
}

}  // namespace

ScenarioSpec parse_scenario_spec(std::string_view text) {
  ScenarioSpec spec;
  std::unordered_set<std::string_view> keys_seen;
  std::size_t line_no = 0;
  for (std::string_view raw_line : split_fields(text, '\n')) {
    ++line_no;
    const std::string_view line = trim(raw_line);
    if (line.empty() || line.front() == '#') continue;
    const std::size_t space = line.find(' ');
    if (space == std::string_view::npos) {
      bad_spec_line(line_no, "expected 'key value'");
    }
    const std::string_view key = line.substr(0, space);
    const std::string_view value = trim(line.substr(space + 1));
    if (value.empty()) bad_spec_line(line_no, "empty value");
    // A second line of a key would silently replace the first.
    if (key != "drift" && !keys_seen.insert(key).second) {
      bad_spec_line(line_no, "repeated key '" + std::string(key) + "'");
    }

    const auto parse_count = [&](const char* what) {
      const std::optional<std::size_t> v = parse_size_strict(value);
      if (!v) bad_spec_line(line_no, std::string("bad ") + what);
      return *v;
    };
    if (key == "datasets") {
      spec.datasets = split_csv_tokens(value);
    } else if (key == "topologies") {
      spec.topologies.clear();
      for (const std::string& token : split_csv_tokens(value)) {
        const std::optional<std::vector<std::size_t>> hidden =
            parse_hidden_token(token);
        if (!hidden) bad_spec_line(line_no, "bad topology '" + token + "'");
        spec.topologies.push_back(*hidden);
      }
    } else if (key == "input_bits") {
      spec.input_bits.clear();
      for (const std::string& token : split_csv_tokens(value)) {
        const std::optional<std::size_t> bits = parse_size_strict(token);
        if (!bits || *bits == 0 || *bits > 16) {
          bad_spec_line(line_no, "bad input_bits '" + token + "'");
        }
        spec.input_bits.push_back(static_cast<int>(*bits));
      }
    } else if (key == "techs") {
      spec.tech_nodes = split_csv_tokens(value);
    } else if (key == "seeds") {
      spec.seeds.clear();
      for (const std::string& token : split_csv_tokens(value)) {
        const std::optional<std::uint64_t> seed = parse_u64_strict(token);
        if (!seed) bad_spec_line(line_no, "bad seed '" + token + "'");
        spec.seeds.push_back(*seed);
      }
    } else if (key == "drift") {
      // drift NAME FEATURE_NOISE PRIOR_SHIFT SEED
      std::vector<std::string_view> fields;
      for (std::string_view f : split_fields(value, ' ')) {
        if (!f.empty()) fields.push_back(f);
      }
      if (fields.size() != 4) {
        bad_spec_line(line_no, "drift needs NAME FEATURE_NOISE PRIOR_SHIFT SEED");
      }
      DriftSpec drift;
      drift.name.assign(fields[0]);
      const std::optional<double> noise = parse_double_strict(fields[1]);
      const std::optional<double> shift = parse_double_strict(fields[2]);
      const std::optional<std::uint64_t> seed = parse_u64_strict(fields[3]);
      if (!noise || !shift || !seed) bad_spec_line(line_no, "bad drift numbers");
      drift.feature_noise = *noise;
      drift.class_prior_shift = *shift;
      drift.seed = *seed;
      spec.drifts.push_back(std::move(drift));
    } else if (key == "pop") {
      spec.ga.population = parse_count("population");
    } else if (key == "gens") {
      spec.ga.generations = parse_count("generations");
    } else if (key == "train_epochs") {
      spec.base.train.epochs = parse_count("train_epochs");
    } else if (key == "finetune") {
      spec.base.finetune_epochs = parse_count("finetune");
    } else if (key == "ga_finetune") {
      spec.ga_finetune_epochs = parse_count("ga_finetune");
    } else if (key == "fidelity") {
      if (value != "on" && value != "off") bad_spec_line(line_no, "bad fidelity (on|off)");
      spec.fidelity = value == "on";
    } else {
      bad_spec_line(line_no, "unknown key '" + std::string(key) + "'");
    }
  }
  spec.validate();
  return spec;
}

}  // namespace pnm
