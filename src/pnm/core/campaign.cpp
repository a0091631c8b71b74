#include "pnm/core/campaign.hpp"

#include <chrono>
#include <filesystem>
#include <stdexcept>
#include <utility>

#include "pnm/hw/mcm.hpp"
#include "pnm/nn/trainer.hpp"
#include "pnm/util/fileio.hpp"
#include "pnm/util/table.hpp"

namespace pnm {
namespace {

std::string bool_str(bool b) { return b ? "1" : "0"; }

constexpr char kCellMagic[] = "pnm-campaign-cell";
// v2: the stats line gained the cell's MCM plan-cache hit/miss counters.
constexpr int kCellVersion = 2;
constexpr CellLayout kCampaignLayout{"claims", "cells", ".cell"};

std::string cell_name(const std::string& dataset, std::uint64_t seed) {
  return dataset + "_s" + std::to_string(seed);
}

std::string cell_header(const std::string& cell_fp) {
  return std::string(kCellMagic) + " v" + std::to_string(kCellVersion) + " " + cell_fp;
}

/// The campaign's cells for the scheduler, datasets-major, seeds-minor.
std::vector<CellRef> campaign_cells(const CampaignSpec& spec) {
  std::vector<CellRef> cells;
  for (const std::string& dataset : spec.datasets) {
    for (std::uint64_t seed : spec.seeds) {
      cells.push_back({cell_name(dataset, seed), cell_fingerprint(spec, dataset, seed)});
    }
  }
  return cells;
}

double hit_rate(std::size_t hits, std::size_t misses) {
  const std::size_t total = hits + misses;
  return total == 0 ? 0.0 : static_cast<double>(hits) / static_cast<double>(total);
}

}  // namespace

std::string eval_fingerprint(const FlowConfig& flow, const EvalConfig& eval,
                             const std::string& backend) {
  // Canonical text over every knob that can change an evaluation result.
  // Hashing the text (rather than concatenating fields positionally)
  // keeps the fingerprint one short whitespace-free token while staying
  // sensitive to each field.
  std::string canon;
  canon.reserve(512);
  append_kv(canon, "store_version", std::to_string(EvalStore::kFormatVersion));
  append_kv(canon, "backend", backend);
  append_kv(canon, "dataset", flow.dataset_name);
  append_kv(canon, "flow_seed", std::to_string(flow.seed));
  // Tech node: the cost side of every stored DesignPoint is priced in this
  // library, so results from different nodes must never share a store.
  append_kv(canon, "tech", flow.tech_name);
  // Resolve defaulted hidden widths so "default" and "explicitly the
  // default" fingerprint identically.
  const std::vector<std::size_t> hidden =
      flow.hidden.empty() ? MinimizationFlow::default_hidden(flow.dataset_name)
                          : flow.hidden;
  std::string hidden_str;
  for (std::size_t h : hidden) hidden_str += std::to_string(h) + ",";
  append_kv(canon, "hidden", hidden_str);
  append_kv(canon, "baseline_bits", std::to_string(flow.baseline_weight_bits));
  append_kv(canon, "train_frac", format_double_roundtrip(flow.train_frac));
  append_kv(canon, "val_frac", format_double_roundtrip(flow.val_frac));
  append_kv(canon, "test_frac", format_double_roundtrip(flow.test_frac));
  // Baseline training recipe (identical in eval.train, serialized once).
  const TrainConfig& t = flow.train;
  append_kv(canon, "train_epochs", std::to_string(t.epochs));
  append_kv(canon, "batch", std::to_string(t.batch_size));
  append_kv(canon, "lr", format_double_roundtrip(t.lr));
  append_kv(canon, "lr_decay", format_double_roundtrip(t.lr_decay));
  append_kv(canon, "momentum", format_double_roundtrip(t.momentum));
  append_kv(canon, "weight_decay", format_double_roundtrip(t.weight_decay));
  append_kv(canon, "optimizer", std::to_string(static_cast<int>(t.optimizer)));
  append_kv(canon, "adam_beta1", format_double_roundtrip(t.adam_beta1));
  append_kv(canon, "adam_beta2", format_double_roundtrip(t.adam_beta2));
  append_kv(canon, "adam_eps", format_double_roundtrip(t.adam_eps));
  append_kv(canon, "shuffle", bool_str(t.shuffle));
  // Evaluation-side knobs.
  append_kv(canon, "eval_seed", std::to_string(eval.seed));
  append_kv(canon, "input_bits", std::to_string(eval.input_bits));
  append_kv(canon, "finetune_epochs", std::to_string(eval.finetune_epochs));
  append_kv(canon, "cluster_scope",
            std::to_string(static_cast<int>(eval.cluster_scope)));
  append_kv(canon, "share_when_clustered", bool_str(eval.share_only_when_clustered));
  append_kv(canon, "share_products", bool_str(eval.bespoke.share_products));
  append_kv(canon, "use_csd", bool_str(eval.bespoke.use_csd));
  append_kv(canon, "share_subexpr", bool_str(eval.bespoke.share_subexpressions));
  append_kv(canon, "use_test_set", bool_str(eval.use_test_set));
  // Fine-tuning float-math generation: the fast-math softmax and the
  // sample-blocked backprop are accuracy-neutral but not bit-identical to
  // the libm/per-sample path, so stored results never silently mix modes.
  append_kv(canon, "finetune_math",
            std::string(softmax_fast_math() ? "fast" : "libm") + "-" +
                (blocked_backprop() ? "blocked" : "persample"));
  return fnv1a64_hex(canon);
}

void CampaignSpec::validate() const {
  require_unique_nonempty(datasets, "CampaignSpec", "dataset");
  for (const std::string& d : datasets) {
    if (d.empty()) throw std::invalid_argument("CampaignSpec: empty dataset name");
  }
  require_unique_nonempty(seeds, "CampaignSpec", "seed");
  ga.validate();
}

std::string cell_fingerprint(const CampaignSpec& spec, const std::string& dataset,
                             std::uint64_t seed) {
  FlowConfig cell = spec.base;
  cell.dataset_name = dataset;
  cell.seed = seed;
  // The two store fingerprints already cover everything evaluation-side
  // (dataset, seed, topology, recipe, bits, sharing, backend, split); the
  // GA knobs on top decide which genomes get evaluated and in what
  // order, so they shape the front too.
  std::string canon;
  canon.reserve(512);
  append_kv(canon, "cell_version", std::to_string(kCellVersion));
  append_kv(canon, "proxy_fp",
            eval_fingerprint(cell,
                             MinimizationFlow::eval_config_for(
                                 cell, spec.ga_finetune_epochs, false),
                             "proxy"));
  append_kv(canon, "netlist_fp",
            eval_fingerprint(cell,
                             MinimizationFlow::eval_config_for(
                                 cell, cell.finetune_epochs, true),
                             "netlist"));
  append_kv(canon, "population", std::to_string(spec.ga.population));
  append_kv(canon, "generations", std::to_string(spec.ga.generations));
  append_kv(canon, "crossover", format_double_roundtrip(spec.ga.crossover_prob));
  append_kv(canon, "mutation", format_double_roundtrip(spec.ga.mutation_prob));
  append_kv(canon, "min_bits", std::to_string(spec.ga.min_bits));
  append_kv(canon, "max_bits", std::to_string(spec.ga.max_bits));
  std::string choices;
  for (int s : spec.ga.sparsity_choices) choices += std::to_string(s) + ",";
  append_kv(canon, "sparsity_choices", choices);
  choices.clear();
  for (int c : spec.ga.cluster_choices) choices += std::to_string(c) + ",";
  append_kv(canon, "cluster_choices", choices);
  choices.clear();
  for (int t : spec.ga.acc_shift_choices) choices += std::to_string(t) + ",";
  append_kv(canon, "acc_shift_choices", choices);
  append_kv(canon, "ga_finetune", std::to_string(spec.ga_finetune_epochs));
  return fnv1a64_hex(canon);
}

// ---- Shared cell pieces -------------------------------------------------

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

std::string format_cell_body(const CellStats& stats, const DesignPoint& baseline,
                             const std::vector<DesignPoint>& front) {
  std::string out = "stats\t" + std::to_string(stats.distinct_evaluations) + "\t" +
                    std::to_string(stats.cache_hits) + "\t" +
                    std::to_string(stats.cache_misses) + "\t" +
                    std::to_string(stats.store_loaded) + "\t" +
                    std::to_string(stats.mcm_hits) + "\t" +
                    std::to_string(stats.mcm_misses) + "\t" +
                    format_double_roundtrip(stats.seconds) + "\n";
  out += format_eval_record("baseline", baseline);
  out += "front\t" + std::to_string(front.size()) + "\n";
  for (const DesignPoint& p : front) out += format_eval_record("point", p);
  return out;
}

bool parse_cell_body(const std::vector<std::string_view>& lines, std::size_t& at,
                     CellStats& stats, DesignPoint& baseline,
                     std::vector<DesignPoint>& front) {
  // stats, baseline, front count — then the front itself.
  if (at > lines.size() || lines.size() - at < 3) return false;
  const std::vector<std::string_view> fields = split_fields(lines[at], '\t');
  if (fields.size() != 8 || fields[0] != "stats") return false;
  std::size_t* const counters[] = {&stats.distinct_evaluations, &stats.cache_hits,
                                   &stats.cache_misses,         &stats.store_loaded,
                                   &stats.mcm_hits,             &stats.mcm_misses};
  for (std::size_t i = 0; i < 6; ++i) {
    const std::optional<std::size_t> v = parse_size_strict(fields[i + 1]);
    if (!v) return false;
    *counters[i] = *v;
  }
  const std::optional<double> seconds = parse_double_strict(fields[7]);
  if (!seconds) return false;
  stats.seconds = *seconds;

  std::string tag;
  if (!parse_eval_record(lines[at + 1], tag, baseline) || tag != "baseline") {
    return false;
  }
  const std::vector<std::string_view> head = split_fields(lines[at + 2], '\t');
  const std::optional<std::size_t> size =
      head.size() == 2 && head[0] == "front" ? parse_size_strict(head[1]) : std::nullopt;
  at += 3;
  if (!size || lines.size() - at < *size) return false;
  front.clear();
  front.reserve(*size);
  for (std::size_t i = 0; i < *size; ++i, ++at) {
    DesignPoint point;
    if (!parse_eval_record(lines[at], tag, point) || tag != "point") return false;
    front.push_back(std::move(point));
  }
  return true;
}

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

std::string front_json(const std::vector<DesignPoint>& front, const std::string& indent) {
  std::string out = "[";
  for (std::size_t i = 0; i < front.size(); ++i) {
    out += (i == 0 ? "\n" : ",\n") + indent + "  " + point_json(front[i]);
  }
  out += front.empty() ? "]" : "\n" + indent + "]";
  return out;
}

std::string cell_stats_json(const CellStats& stats) {
  return ", \"distinct_evaluations\": " + std::to_string(stats.distinct_evaluations) +
         ", \"cache_hits\": " + std::to_string(stats.cache_hits) +
         ", \"cache_misses\": " + std::to_string(stats.cache_misses) +
         ", \"store_loaded\": " + std::to_string(stats.store_loaded) +
         ", \"mcm_plan_hits\": " + std::to_string(stats.mcm_hits) +
         ", \"mcm_plan_misses\": " + std::to_string(stats.mcm_misses) +
         ", \"seconds\": " + json_number(stats.seconds);
}

CellEvalStack::CellEvalStack(PipelineEvaluator& backend, ThreadPool& pool,
                             const FlowConfig& flow, const std::string& store_stem,
                             const char* tag, std::size_t writer_id)
    : parallel_(backend, pool) {
  if (store_stem.empty()) {
    cached_.emplace(parallel_);
    return;
  }
  // One store per cell x backend, named by fingerprint, so a config change
  // opens a fresh store instead of invalidating the old one.
  const std::string fp = eval_fingerprint(flow, backend.config(), backend.name());
  store_.emplace(store_stem + "_" + tag + "_" + fp + ".evalstore", fp, writer_id);
  cached_.emplace(parallel_, *store_);
}

CellMeter::CellMeter() : start_(std::chrono::steady_clock::now()) {
  const hw::McmCacheStats mcm = hw::mcm_plan_cache_stats();
  mcm_hits_ = mcm.hits;
  mcm_misses_ = mcm.misses;
}

void CellMeter::record(CellStats& stats, std::size_t distinct_evaluations,
                       std::initializer_list<CellEvalStack*> stacks) const {
  stats.distinct_evaluations = distinct_evaluations;
  stats.cache_hits = stats.cache_misses = stats.store_loaded = 0;
  for (CellEvalStack* stack : stacks) {
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

// ---- Cell result files --------------------------------------------------

std::string format_cell_result(const CampaignRunResult& run,
                               const std::string& cell_fp) {
  return cell_header(cell_fp) + "\ndataset\t" + run.dataset + "\nseed\t" +
         std::to_string(run.seed) + "\n" + format_cell_body(run, run.baseline, run.front);
}

std::optional<CampaignRunResult> parse_cell_result(std::string_view text,
                                                   const std::string& cell_fp) {
  const std::vector<std::string_view> lines = split_lines(text);
  // Header, dataset, seed — then the shared body, which ends the file.
  if (lines.size() < 3 || lines[0] != cell_header(cell_fp)) return std::nullopt;
  CampaignRunResult run;
  constexpr std::string_view kDatasetTag = "dataset\t";
  if (!lines[1].starts_with(kDatasetTag)) return std::nullopt;
  run.dataset.assign(lines[1].substr(kDatasetTag.size()));
  if (run.dataset.empty()) return std::nullopt;

  constexpr std::string_view kSeedTag = "seed\t";
  if (!lines[2].starts_with(kSeedTag)) return std::nullopt;
  const auto seed = parse_u64_strict(lines[2].substr(kSeedTag.size()));
  if (!seed) return std::nullopt;
  run.seed = *seed;

  std::size_t at = 3;
  if (!parse_cell_body(lines, at, run, run.baseline, run.front) || at != lines.size()) {
    return std::nullopt;
  }
  return run;
}

// ---- CampaignResult -----------------------------------------------------

std::size_t CampaignResult::total_cache_hits() const {
  return sum_cell_stats(runs).cache_hits;
}

std::size_t CampaignResult::total_cache_misses() const {
  return sum_cell_stats(runs).cache_misses;
}

std::size_t CampaignResult::total_store_loaded() const {
  return sum_cell_stats(runs).store_loaded;
}

double CampaignResult::cache_hit_rate() const {
  return hit_rate(total_cache_hits(), total_cache_misses());
}

std::size_t CampaignResult::total_mcm_hits() const {
  return sum_cell_stats(runs).mcm_hits;
}

std::size_t CampaignResult::total_mcm_misses() const {
  return sum_cell_stats(runs).mcm_misses;
}

double CampaignResult::mcm_plan_hit_rate() const {
  return hit_rate(total_mcm_hits(), total_mcm_misses());
}
std::vector<DesignPoint> CampaignResult::merged_front(
    const std::string& dataset) const {
  std::vector<DesignPoint> all;
  for (const CampaignRunResult& r : runs) {
    if (r.dataset != dataset) continue;
    all.insert(all.end(), r.front.begin(), r.front.end());
  }
  return pareto_front(std::move(all));
}

std::string CampaignResult::fronts_json() const {
  std::string out = "{\n  \"datasets\": [";
  bool first_dataset = true;
  for (const std::string& dataset : datasets) {
    out += first_dataset ? "\n" : ",\n";
    first_dataset = false;
    out += "    {\"dataset\": \"" + json_escape(dataset) + "\", \"runs\": [";
    bool first_run = true;
    for (const CampaignRunResult& r : runs) {
      if (r.dataset != dataset) continue;
      out += first_run ? "\n" : ",\n";
      first_run = false;
      out += "      {\"seed\": " + std::to_string(r.seed) +
             ", \"front\": " + front_json(r.front, "      ") + "}";
    }
    out += "\n    ], \"merged_front\": " + front_json(merged_front(dataset), "    ") +
           "}";
  }
  out += "\n  ]\n}\n";
  return out;
}

std::string CampaignResult::report_json() const {
  std::string out = "{\n";
  out += "  \"total_cache_hits\": " + std::to_string(total_cache_hits()) + ",\n";
  out += "  \"total_cache_misses\": " + std::to_string(total_cache_misses()) + ",\n";
  out += "  \"total_store_loaded\": " + std::to_string(total_store_loaded()) + ",\n";
  out += "  \"cache_hit_rate\": " + json_number(cache_hit_rate()) + ",\n";
  out += "  \"total_mcm_plan_hits\": " + std::to_string(total_mcm_hits()) + ",\n";
  out += "  \"total_mcm_plan_misses\": " + std::to_string(total_mcm_misses()) + ",\n";
  out += "  \"mcm_plan_hit_rate\": " + json_number(mcm_plan_hit_rate()) + ",\n";
  out += "  \"runs\": [";
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const CampaignRunResult& r = runs[i];
    out += (i == 0 ? "\n" : ",\n");
    out += "    {\"dataset\": \"" + json_escape(r.dataset) + "\"";
    out += ", \"seed\": " + std::to_string(r.seed);
    out += cell_stats_json(r);
    out += ",\n     \"baseline\": " + point_json(r.baseline);
    out += ",\n     \"front\": " + front_json(r.front, "     ") + "}";
  }
  out += "\n  ],\n  \"fronts\": " + fronts_json();
  // fronts_json ends with "}\n"; splice it in as a nested object.
  out.erase(out.size() - 1);
  out += "\n}\n";
  return out;
}

std::string CampaignResult::report_markdown() const {
  std::string out = "# GA campaign report\n";
  for (const std::string& dataset : datasets) {
    out += "\n## " + dataset + "\n\n";
    out += "| seed | genome | accuracy | area mm^2 | gain vs baseline |\n";
    out += "| ---- | ------ | -------- | --------- | ---------------- |\n";
    for (const CampaignRunResult& r : runs) {
      if (r.dataset != dataset) continue;
      for (const DesignPoint& p : r.front) {
        const double gain =
            p.area_mm2 > 0.0 ? r.baseline.area_mm2 / p.area_mm2 : 0.0;
        out += "| " + std::to_string(r.seed) + " | `" + p.config + "` | " +
               format_fixed(p.accuracy, 3) + " | " + format_fixed(p.area_mm2, 2) +
               " | " + format_factor(gain) + " |\n";
      }
    }
    const std::vector<DesignPoint> merged = merged_front(dataset);
    out += "\nMerged front across seeds (" + std::to_string(merged.size()) +
           " non-dominated designs):\n\n";
    out += "| genome | accuracy | area mm^2 |\n";
    out += "| ------ | -------- | --------- |\n";
    for (const DesignPoint& p : merged) {
      out += "| `" + p.config + "` | " + format_fixed(p.accuracy, 3) + " | " +
             format_fixed(p.area_mm2, 2) + " |\n";
    }
  }
  out += "\n## Evaluation cache\n\n";
  out += "| dataset | seed | GA evals | hits | misses | preloaded | MCM hits | "
         "MCM misses | seconds |\n";
  out += "| ------- | ---- | -------- | ---- | ------ | --------- | -------- | "
         "---------- | ------- |\n";
  for (const CampaignRunResult& r : runs) {
    out += "| " + r.dataset + " | " + std::to_string(r.seed) + " | " +
           std::to_string(r.distinct_evaluations) + " | " +
           std::to_string(r.cache_hits) + " | " + std::to_string(r.cache_misses) +
           " | " + std::to_string(r.store_loaded) + " | " +
           std::to_string(r.mcm_hits) + " | " + std::to_string(r.mcm_misses) +
           " | " + format_fixed(r.seconds, 2) + " |\n";
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

// ---- CampaignRunner -----------------------------------------------------

CampaignRunner::CampaignRunner(CampaignSpec spec)
    : spec_((spec.validate(), std::move(spec))), pool_(spec_.threads) {}

CampaignResult CampaignRunner::run() {
  if (!spec_.store_dir.empty()) {
    std::filesystem::create_directories(spec_.store_dir);
  }
  CampaignResult result;
  result.datasets = spec_.datasets;
  for (const std::string& dataset : spec_.datasets) {
    for (std::uint64_t seed : spec_.seeds) {
      result.runs.push_back(run_cell(dataset, seed));
    }
  }
  return result;
}

CampaignRunResult CampaignRunner::run_cell(const std::string& dataset,
                                           std::uint64_t seed) {
  const CellMeter meter;
  FlowConfig config = spec_.base;
  config.dataset_name = dataset;
  config.seed = seed;
  MinimizationFlow flow(config);
  flow.prepare();

  // The two backends of the Fig. 2 search: fast proxy fitness on the
  // validation split, exact netlist re-evaluation on the test split.
  ProxyEvaluator proxy = flow.proxy_evaluator(spec_.ga_finetune_epochs);
  NetlistEvaluator netlist =
      flow.netlist_evaluator(config.finetune_epochs, /*use_test_set=*/true);
  const std::string stem =
      spec_.store_dir.empty() ? "" : spec_.store_dir + "/" + cell_name(dataset, seed);
  CellEvalStack fitness(proxy, pool_, config, stem, "proxy", spec_.writer_id);
  CellEvalStack front_eval(netlist, pool_, config, stem, "netlist", spec_.writer_id);
  const MinimizationFlow::GaOutcome outcome =
      flow.run_ga(fitness.cached(), front_eval.cached(), spec_.ga);

  CampaignRunResult run;
  run.dataset = dataset;
  run.seed = seed;
  run.baseline = flow.baseline();
  run.front = outcome.front;
  meter.record(run, outcome.raw.evaluations, {&fitness, &front_eval});
  return run;
}

CampaignWorkerResult CampaignRunner::run_worker(std::size_t shard_id,
                                                std::size_t num_shards) {
  const std::size_t seeds = spec_.seeds.size();
  return run_cell_worker(
      spec_.store_dir, kCampaignLayout, campaign_cells(spec_), shard_id, num_shards,
      [&](std::size_t index, const std::string& fp) {
        return format_cell_result(
            run_cell(spec_.datasets[index / seeds], spec_.seeds[index % seeds]), fp);
      },
      [](std::string_view text, const std::string& fp) {
        return parse_cell_result(text, fp).has_value();
      });
}

std::optional<CampaignResult> collect_campaign(const CampaignSpec& spec) {
  spec.validate();
  CampaignResult result;
  result.datasets = spec.datasets;
  const bool complete =
      collect_cells(spec.store_dir, kCampaignLayout, campaign_cells(spec),
                    [&](std::string_view text, const std::string& fp) {
                      std::optional<CampaignRunResult> run = parse_cell_result(text, fp);
                      if (run) result.runs.push_back(std::move(*run));
                      return run.has_value();
                    });
  if (!complete) return std::nullopt;
  return result;
}

}  // namespace pnm
