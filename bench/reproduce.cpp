/// \file reproduce.cpp
/// \brief The paper reproduction: every figure, table, ablation and
///        extension in one run, as one checked, deterministic report.
///
/// Usage: reproduce   (no arguments)
///
/// Sections, in order: Fig. 1(a-d), Fig. 2, the Sec. III headline table,
/// seed robustness, the truncation extension, the CSD, sharing, proxy
/// fidelity and structured-pruning ablations, input-bit and technology
/// sensitivity, and MCM adder-graph sharing.  The report is printed and
/// the same bytes are written to BENCH_paper.txt in the working
/// directory; the MCM records also go to BENCH_mcm.json there.  Neither
/// file holds a timing, a thread count or a path, so both equal the
/// committed copies on every host, under PNM_FORCE_SCALAR=1 and in
/// sanitizer builds (CTest `paper_reproduction` compares them).
///
/// Each distinct flow (dataset, seed, input bits) is prepared once, and a
/// sweep or GA run that several sections print runs once: sweeps and
/// run_ga seed their own Rng from FlowConfig::seed, so sharing a flow or
/// a result changes no number.
///
/// Every claim of the paper or of a section that the run reproduces is a
/// check line, "check <name>: <measured> (need <margin>) ok|FAIL"; the
/// exit status is 1 if any check fails.  Sentences a run does not bear
/// out are stated as what it measured, never tuned to hold.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <iostream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "pnm/core/flow.hpp"
#include "pnm/core/pareto.hpp"
#include "pnm/core/prune.hpp"
#include "pnm/core/quantize.hpp"
#include "pnm/data/synth.hpp"
#include "pnm/hw/bespoke.hpp"
#include "pnm/hw/proxy.hpp"
#include "pnm/util/bits.hpp"
#include "pnm/util/fileio.hpp"
#include "pnm/util/rng.hpp"
#include "pnm/util/table.hpp"

namespace {

using namespace pnm;

/// Table cell for an optional gain: "5.02x", or "n/a" when no design met
/// the loss budget (best_area_gain_at_loss's no-qualifier case).
std::string format_gain(const std::optional<double>& gain) {
  return gain ? format_factor(*gain) : "n/a";
}

/// Numeric value of an optional gain for comparing series.
/// The baseline itself always meets any loss budget, so every series can
/// realize at least 1.0x: a sweep with no qualifying design contributes
/// exactly that, and a qualifying design *larger* than the baseline
/// (sub-unity factor) is clamped up to it as well — otherwise "nothing
/// qualified" (1.0) would rank above "something qualified at 0.9x".
double gain_or_baseline(const std::optional<double>& gain) {
  return std::max(1.0, gain.value_or(1.0));
}

/// The largest area gain among `points` within 5% accuracy loss.
std::optional<double> gain_at_5pct(const std::vector<DesignPoint>& points,
                                   const DesignPoint& baseline) {
  return best_area_gain_at_loss(points, baseline.accuracy, baseline.area_mm2, 0.05);
}

/// Whether the combined GA's gain at least matches every standalone gain.
bool combined_wins(const std::optional<double>& combined, const std::optional<double>& quant,
                   const std::optional<double>& prune, const std::optional<double>& cluster) {
  return gain_or_baseline(combined) >= std::max({gain_or_baseline(quant),
                                                 gain_or_baseline(prune),
                                                 gain_or_baseline(cluster)});
}

/// The combined GA over `ga`'s search space with the thread-parallel proxy
/// fitness at 2 fine-tuning epochs (bit-identical to the serial path).
MinimizationFlow::GaOutcome proxy_ga(MinimizationFlow& flow, const GaConfig& ga) {
  auto proxy = flow.proxy_evaluator(/*finetune_epochs=*/2);
  ParallelEvaluator fitness(proxy);
  return flow.run_ga(fitness, ga);
}

std::string count_of(std::size_t k, std::size_t n) {
  return std::to_string(k) + "/" + std::to_string(n);
}

/// "a, b, c", or "none".
std::string join(const std::vector<std::string>& names) {
  std::string joined;
  for (const auto& name : names) joined += (joined.empty() ? "" : ", ") + name;
  return joined.empty() ? "none" : joined;
}

/// A genome applying the same (bits, sparsity %, clusters) to every layer.
Genome uniform_genome(std::size_t n_layers, int bits, int sparsity_pct, int clusters) {
  Genome genome;
  genome.weight_bits.assign(n_layers, bits);
  genome.sparsity_pct.assign(n_layers, sparsity_pct);
  genome.clusters.assign(n_layers, clusters);
  return genome;
}

double spearman(std::vector<double> a, std::vector<double> b) {
  auto ranks = [](std::vector<double> v) {
    std::vector<std::size_t> idx(v.size());
    for (std::size_t i = 0; i < v.size(); ++i) idx[i] = i;
    std::sort(idx.begin(), idx.end(),
              [&v](std::size_t x, std::size_t y) { return v[x] < v[y]; });
    std::vector<double> r(v.size());
    for (std::size_t i = 0; i < idx.size(); ++i) r[idx[i]] = static_cast<double>(i);
    return r;
  };
  const auto ra = ranks(std::move(a));
  const auto rb = ranks(std::move(b));
  const double n = static_cast<double>(ra.size());
  double d2 = 0.0;
  for (std::size_t i = 0; i < ra.size(); ++i) d2 += (ra[i] - rb[i]) * (ra[i] - rb[i]);
  return 1.0 - 6.0 * d2 / (n * (n * n - 1.0));
}

// ---- MCM adder-graph sharing (BENCH_mcm.json) ---------------------------
// Run the (reduced) Fig. 2 GA per dataset, realize every front genome, and
// regenerate its exact bespoke circuit with cross-coefficient adder-graph
// sharing off vs on.  Records product-stage adders and exact area
// before/after, plus a gate-level bit-exactness check of the shared
// circuits against the integer golden model.

struct McmBenchRecord {
  std::string dataset;
  std::size_t front_designs = 0;
  std::size_t adders_unshared = 0;
  std::size_t adders_shared = 0;
  double area_unshared = 0.0;
  double area_shared = 0.0;
  bool bit_exact = true;
};

std::vector<McmBenchRecord> run_mcm_sharing_bench() {
  std::vector<McmBenchRecord> records;
  for (const std::string dataset : {"whitewine", "redwine", "pendigits", "seeds"}) {
    FlowConfig config;
    config.dataset_name = dataset;
    config.train.epochs = 30;
    config.finetune_epochs = 5;
    MinimizationFlow flow(config);
    flow.prepare();

    GaConfig ga;
    ga.population = 16;
    ga.generations = 8;
    ProxyEvaluator proxy = flow.proxy_evaluator(/*finetune_epochs=*/2);
    ParallelEvaluator fitness(proxy);
    const auto outcome = flow.run_ga(fitness, ga);

    McmBenchRecord rec;
    rec.dataset = dataset;
    Rng rng(2024);
    const ProxyEvaluator realizer = flow.proxy_evaluator(config.finetune_epochs);
    for (const auto& member : outcome.raw.front) {
      const QuantizedMlp qmodel = realizer.realize(member.genome);
      // Controlled comparison: identical model and options except the
      // sharing knob (share_products on for both so the coefficient set
      // exists to share across).
      hw::BespokeOptions unshared;
      hw::BespokeOptions shared;
      shared.share_subexpressions = true;
      const hw::BespokeCircuit before(qmodel, unshared);
      const hw::BespokeCircuit after(qmodel, shared);
      rec.adders_unshared += before.product_adder_count();
      rec.adders_shared += after.product_adder_count();
      rec.area_unshared += before.area_mm2(flow.tech());
      rec.area_shared += after.area_mm2(flow.tech());
      // Netlist simulation must stay bit-exact with QuantizedMlp.
      const std::int64_t xmax = unsigned_max(config.input_bits);
      for (int trial = 0; trial < 16; ++trial) {
        std::vector<std::int64_t> xq(qmodel.input_size());
        for (auto& v : xq) {
          v = static_cast<std::int64_t>(
              rng.uniform_int(static_cast<std::uint64_t>(xmax) + 1));
        }
        if (after.predict(xq) != qmodel.predict_quantized(xq)) rec.bit_exact = false;
      }
      ++rec.front_designs;
    }
    records.push_back(rec);
  }
  return records;
}

/// Builds the report section by section.  Flows, the Fig. 1 sweeps and the
/// headline GA runs are memoized, so each runs once however many sections
/// print it.
class Reproduction {
 public:
  /// Runs every section in report order.
  void run() {
    out_ << "Paper reproduction: Hardware-Aware Automated Neural Minimization for "
            "Printed Multilayer Perceptrons\n"
            "(every figure, table, ablation and extension; each claim that holds "
            "is a check line)\n";
    const char* panels[] = {"a", "b", "c", "d"};
    for (std::size_t i = 0; i < paper_dataset_names().size(); ++i) {
      fig1(paper_dataset_names()[i], panels[i]);
    }
    fig2();
    headline();
    robustness();
    truncation();
    csd();
    sharing();
    proxy_fidelity();
    structured_pruning();
    input_bits();
    tech();
    mcm();
    out_ << "\nchecks passed: " << count_of(checks_ - failures_, checks_) << '\n';
  }

  [[nodiscard]] std::string report() const { return out_.str(); }
  [[nodiscard]] const std::string& mcm_json() const { return mcm_json_; }
  [[nodiscard]] bool all_checks_pass() const { return failures_ == 0; }

 private:
  struct Sweeps {
    std::vector<DesignPoint> quant, prune, cluster;
  };

  /// The prepared flow of every figure section: full-size training, the
  /// default topology, seed 42 and 4 input bits unless a section varies
  /// them.  Prepared on first use.
  MinimizationFlow& flow(const std::string& dataset, std::uint64_t seed = 42,
                         int input_bits = 4) {
    FlowConfig config;
    config.dataset_name = dataset;
    config.seed = seed;
    config.input_bits = input_bits;
    config.train.epochs = 60;
    config.finetune_epochs = 8;
    auto [it, fresh] = flows_.try_emplace(std::make_tuple(dataset, seed, input_bits), config);
    if (fresh) it->second.prepare();
    return it->second;
  }

  /// Fig. 1's standalone sweeps (printed by Fig. 1, Fig. 2 and the headline).
  const Sweeps& sweeps(const std::string& dataset) {
    auto it = sweeps_.find(dataset);
    if (it == sweeps_.end()) {
      MinimizationFlow& f = flow(dataset);
      it = sweeps_
               .emplace(dataset, Sweeps{f.sweep_quantization(2, 7),
                                        f.sweep_pruning({0.2, 0.3, 0.4, 0.5, 0.6}),
                                        f.sweep_clustering({2, 3, 4, 6, 8})})
               .first;
    }
    return it->second;
  }

  /// The combined GA of the headline table, also the truncation
  /// extension's three-axis search.
  const MinimizationFlow::GaOutcome& headline_ga(const std::string& dataset) {
    auto it = headline_ga_.find(dataset);
    if (it == headline_ga_.end()) {
      it = headline_ga_
               .emplace(dataset, proxy_ga(flow(dataset), {.population = 24, .generations = 12}))
               .first;
    }
    return it->second;
  }

  void section(const std::string& title) { out_ << "\n== " << title << " ==\n\n"; }

  void check(const std::string& name, const std::string& measured, const std::string& need,
             bool pass) {
    out_ << "check " << name << ": " << measured << " (need " << need << ") "
         << (pass ? "ok" : "FAIL") << '\n';
    ++checks_;
    failures_ += pass ? 0 : 1;
  }

  void print_baseline(const MinimizationFlow& f) {
    const auto& b = f.baseline();
    out_ << "baseline (unminimized bespoke, " << b.config << " weights): accuracy "
         << format_fixed(b.accuracy, 3) << ", area " << format_fixed(b.area_mm2, 1)
         << " mm^2 (" << format_fixed(b.area_mm2 / 100.0, 2) << " cm^2), power "
         << format_fixed(b.power_uw / 1000.0, 2) << " mW, delay "
         << format_fixed(b.delay_ms, 1) << " ms\n"
         << "float model test accuracy: " << format_fixed(f.float_test_accuracy(), 3)
         << "\n\n";
  }

  /// One technique's sweep, normalized to the baseline.
  void print_series(const std::string& title, const std::vector<DesignPoint>& points,
                    const DesignPoint& baseline) {
    out_ << "-- " << title << " --\n";
    TextTable table({"config", "norm area", "area gain", "accuracy", "acc delta",
                     "area mm^2", "power mW", "delay ms"});
    for (const auto& p : points) {
      // Degenerate designs can fold to constant classifiers with zero area
      // (e.g. 2-bit QAT collapsing a layer); report the gain as "-".
      const std::string gain =
          p.area_mm2 > 0.0 ? format_factor(baseline.area_mm2 / p.area_mm2) : "-";
      table.add_row({p.config, format_fixed(p.area_mm2 / baseline.area_mm2, 3), gain,
                     format_fixed(p.accuracy, 3),
                     format_fixed(p.accuracy - baseline.accuracy, 3),
                     format_fixed(p.area_mm2, 1), format_fixed(p.power_uw / 1000.0, 2),
                     format_fixed(p.delay_ms, 1)});
    }
    out_ << table.to_string() << '\n';
  }

  /// The Pareto front of a sweep (what the paper's figures plot).
  void print_front(const std::string& title, std::vector<DesignPoint> points,
                   const DesignPoint& baseline) {
    const auto front = pareto_front(std::move(points));
    out_ << "-- " << title << " (pareto front) --\n";
    TextTable table({"config", "norm area", "accuracy"});
    for (const auto& p : front) {
      table.add_row({p.config, format_fixed(p.area_mm2 / baseline.area_mm2, 3),
                     format_fixed(p.accuracy, 3)});
    }
    out_ << table.to_string() << '\n';
  }

  /// "Up to X area gain for <= 5% accuracy loss" summary line.
  std::optional<double> report_gain(const std::string& technique,
                                    const std::vector<DesignPoint>& points,
                                    const DesignPoint& baseline) {
    const auto gain = gain_at_5pct(points, baseline);
    out_ << technique << ": max area gain at <=5% accuracy loss = " << format_gain(gain)
         << (gain ? "" : " (no design within the loss budget)") << '\n';
    return gain;
  }

  /// Figure 1: "Area-Accuracy trade-off of the printed MLPs with
  /// quantization, pruning, and weight clustering.  Values are normalized
  /// over each baseline MLP."  Parameters reproduce §III: unstructured
  /// pruning at 20-60% sparsity, quantization at 2-7 bit weights,
  /// clustering over a range of cluster counts; the baseline is the
  /// unminimized 8-bit bespoke MLP.
  void fig1(const std::string& dataset, const char* panel) {
    section(std::string("Fig. 1(") + panel + "): standalone minimization fronts on " +
            dataset);
    const MinimizationFlow& f = flow(dataset);
    print_baseline(f);
    const auto& baseline = f.baseline();
    const Sweeps& s = sweeps(dataset);

    print_series("quantization (2-7 bit weights, QAT)", s.quant, baseline);
    print_series("unstructured pruning (20-60% sparsity)", s.prune, baseline);
    print_series("weight clustering (k per input position)", s.cluster, baseline);
    print_front("quantization", s.quant, baseline);
    print_front("pruning", s.prune, baseline);
    print_front("clustering", s.cluster, baseline);

    out_ << "-- summary (paper: quant ~5x avg, prune ~2.8x, cluster ~3.5x) --\n";
    report_gain("quantization", s.quant, baseline);
    report_gain("pruning     ", s.prune, baseline);
    if (!report_gain("clustering  ", s.cluster, baseline).has_value()) {
      out_ << "(no clustering design met the 5% accuracy threshold on " << dataset
           << " - the paper reports this for Pendigits and Seeds)\n";
    }
  }

  /// Figure 2: "Area-Accuracy trade-off of the WhiteWine MLP classifier
  /// when quantization, pruning, weight clustering and all the three
  /// minimization techniques are combined" (via the hardware-aware GA):
  /// the three standalone fronts next to the combined NSGA-II front.
  void fig2() {
    section("Fig. 2: combined minimization via hardware-aware GA (WhiteWine)");
    MinimizationFlow& f = flow("whitewine");
    print_baseline(f);
    const auto& baseline = f.baseline();
    const Sweeps& s = sweeps("whitewine");

    // Combined search over per-layer {bits, sparsity, clusters}.
    const GaConfig ga{.population = 32, .generations = 20};
    const auto outcome = proxy_ga(f, ga);
    out_ << "NSGA-II (population " << ga.population << ", " << ga.generations
         << " generations, fitness backend parallel(proxy))\n"
         << "distinct designs evaluated: " << outcome.raw.evaluations << "\n\n";

    print_front("quantization standalone", s.quant, baseline);
    print_front("pruning standalone", s.prune, baseline);
    print_front("clustering standalone", s.cluster, baseline);
    print_series("combined (GA front, exact netlist re-evaluation)", outcome.front,
                 baseline);

    out_ << "-- summary (paper: combined reaches up to 8x at 5% loss, beating every "
            "standalone technique) --\n";
    const auto gq = report_gain("quantization", s.quant, baseline);
    const auto gp = report_gain("pruning     ", s.prune, baseline);
    const auto gc = report_gain("clustering  ", s.cluster, baseline);
    const auto gga = report_gain("combined GA ", outcome.front, baseline);
    const double best_standalone =
        std::max({gain_or_baseline(gq), gain_or_baseline(gp), gain_or_baseline(gc)});
    out_ << '\n';
    check("fig2_combined_beats_standalone",
          "combined " + format_factor(gain_or_baseline(gga)) + " vs best standalone " +
              format_factor(best_standalone),
          "combined >= best standalone", combined_wins(gga, gq, gp, gc));
  }

  /// §III's quantitative claims as a table: quantization ~5x average area
  /// reduction at <= 5% accuracy loss, pruning ~2.8x, clustering ~3.5x
  /// (meeting the 5% threshold only on the wines), combined up to 8x.
  /// Absolute factors depend on the dataset realization; the ordering and
  /// rough magnitudes are the reproduction target.
  void headline() {
    section("Sec. III headline table: max area gain at <=5% accuracy loss");
    TextTable table({"dataset", "quant", "prune", "cluster", "combined(GA)",
                     "cluster meets 5%?"});
    double sum_q = 0.0, sum_p = 0.0, sum_c = 0.0;
    double max_ga = 0.0;
    std::size_t n_cluster_ok = 0, n_combined_wins = 0;
    for (const auto& dataset : paper_dataset_names()) {
      const auto& baseline = flow(dataset).baseline();
      const Sweeps& s = sweeps(dataset);
      const auto gq = gain_at_5pct(s.quant, baseline);
      const auto gp = gain_at_5pct(s.prune, baseline);
      const auto gc = gain_at_5pct(s.cluster, baseline);
      const auto gga = gain_at_5pct(headline_ga(dataset).front, baseline);
      sum_q += gain_or_baseline(gq);
      sum_p += gain_or_baseline(gp);
      sum_c += gain_or_baseline(gc);
      max_ga = std::max(max_ga, gain_or_baseline(gga));
      // "Meets the 5% threshold" requires an actual qualifying design.
      const bool cluster_ok = gc.has_value() && *gc > 1.0;
      n_cluster_ok += cluster_ok ? 1 : 0;
      n_combined_wins += combined_wins(gga, gq, gp, gc) ? 1 : 0;
      table.add_row({dataset, format_gain(gq), format_gain(gp), format_gain(gc),
                     format_gain(gga), cluster_ok ? "yes" : "no"});
    }
    table.add_separator();
    table.add_row({"average", format_factor(sum_q / 4.0), format_factor(sum_p / 4.0),
                   format_factor(sum_c / 4.0), std::string("max ") + format_factor(max_ga),
                   std::to_string(n_cluster_ok) + "/4"});
    out_ << table.to_string() << '\n';
    out_ << "paper reference:   quant avg 5.00x   prune avg 2.80x   cluster avg "
            "3.50x   combined up to 8.00x   cluster meets 5%: 2/4 (wines only)\n";
    check("headline_combined_beats_standalone", count_of(n_combined_wins, 4) + " datasets",
          "combined >= every standalone gain on 4/4", n_combined_wins == 4);
  }

  /// The synthetic analogs are random draws: the @5%-loss comparison on
  /// three dataset realizations (flow seeds) shows the orderings are not
  /// one-draw flukes.
  void robustness() {
    section("Seed robustness: headline comparison across dataset realizations");
    TextTable table({"dataset", "seed", "quant", "prune", "cluster", "combined",
                     "combined wins?"});
    std::size_t wins = 0, runs = 0;
    for (const std::string dataset : {"redwine", "seeds"}) {
      for (std::uint64_t seed : {42ULL, 1042ULL, 2042ULL}) {
        MinimizationFlow& f = flow(dataset, seed);
        const auto& baseline = f.baseline();
        const auto gq = gain_at_5pct(f.sweep_quantization(2, 7), baseline);
        const auto gp = gain_at_5pct(f.sweep_pruning({0.2, 0.4, 0.6}), baseline);
        const auto gc = gain_at_5pct(f.sweep_clustering({2, 4, 8}), baseline);
        const auto gga =
            gain_at_5pct(proxy_ga(f, {.population = 20, .generations = 10}).front, baseline);
        const bool win = combined_wins(gga, gq, gp, gc);
        wins += win ? 1 : 0;
        ++runs;
        table.add_row({dataset, std::to_string(seed), format_gain(gq), format_gain(gp),
                       format_gain(gc), format_gain(gga), win ? "yes" : "no"});
      }
      table.add_separator();
    }
    out_ << table.to_string() << '\n';
    out_ << "combined technique wins in " << wins << "/" << runs
         << " independent runs (paper claim: combination outperforms standalone "
            "techniques).\n";
    check("robustness_combined_wins", count_of(wins, runs) + " draws", "6/6", wins == 6);
  }

  /// Precision-scaled accumulation (product-LSB truncation) as a fourth
  /// axis: the baseline's stage breakdown shows adder trees, not
  /// multipliers, dominating area — the one stage none of the paper's
  /// techniques attacks directly.  A standalone sweep, then the GA over
  /// three axes (the headline search) vs four.
  void truncation() {
    section("Truncation extension: precision-scaled accumulation");
    std::size_t helps = 0;
    for (const std::string dataset : {"redwine", "pendigits"}) {
      MinimizationFlow& f = flow(dataset);
      print_baseline(f);
      const auto& baseline = f.baseline();
      const auto trunc = f.sweep_truncation({1, 2, 3, 4, 5});
      print_series("standalone truncation (8b weights, t product LSBs dropped)", trunc,
                   baseline);
      report_gain("truncation  ", trunc, baseline);

      const GaConfig ga4{
          .population = 24, .generations = 12, .acc_shift_choices = {0, 1, 2, 3, 4}};
      const auto g3 = gain_at_5pct(headline_ga(dataset).front, baseline);
      const auto g4 = gain_at_5pct(proxy_ga(f, ga4).front, baseline);
      const bool ok = gain_or_baseline(g4) >= gain_or_baseline(g3);
      helps += ok ? 1 : 0;
      out_ << "combined GA @5% loss: three axes " << format_gain(g3)
           << "  |  + truncation gene " << format_gain(g4)
           << (ok ? "  [truncation helps or ties]" : "  [no benefit here]") << "\n\n";
    }
    out_ << "expected shape: t=1..2 is nearly free in accuracy while cutting the "
            "(dominant) accumulate stage; the four-axis GA at least matches the "
            "paper's three-axis search.\n";
    check("truncation_gene_helps_or_ties", count_of(helps, 2) + " datasets",
          "four-axis gain >= three-axis gain on 2/2", helps == 2);
  }

  /// CSD vs plain binary recoding of the hard-wired coefficients, one of
  /// the two bespoke mechanisms the paper's quantization savings compound
  /// on, across the four classifiers and the paper's bit-width range.
  void csd() {
    section("Ablation A1: CSD vs binary coefficient recoding");
    TextTable table({"dataset", "bits", "area csd mm^2", "area binary mm^2", "saving"});
    double min_saving = 100.0;
    std::vector<std::string> grows, not_grows;
    for (const auto& dataset : paper_dataset_names()) {
      const MinimizationFlow& f = flow(dataset);
      const std::size_t n_layers = f.float_model().layer_count();
      const ProxyEvaluator realizer = f.proxy_evaluator(f.config().finetune_epochs);
      std::vector<double> savings;
      for (int bits : {4, 6, 8}) {
        const QuantizedMlp qmodel = realizer.realize(uniform_genome(n_layers, bits, 0, 0));
        hw::BespokeOptions with_csd;
        hw::BespokeOptions without_csd;
        without_csd.use_csd = false;
        const double area_csd = hw::BespokeCircuit(qmodel, with_csd).area_mm2(f.tech());
        const double area_bin = hw::BespokeCircuit(qmodel, without_csd).area_mm2(f.tech());
        const double saving = 100.0 * (1.0 - area_csd / area_bin);
        savings.push_back(saving);
        min_saving = std::min(min_saving, saving);
        table.add_row({dataset, std::to_string(bits), format_fixed(area_csd, 1),
                       format_fixed(area_bin, 1), format_fixed(saving, 1) + "%"});
      }
      (savings[0] < savings[1] && savings[1] < savings[2] ? grows : not_grows)
          .push_back(dataset);
    }
    out_ << table.to_string() << '\n';
    out_ << "measured: the saving grows with weight bit-width (more runs of ones to "
            "recode) on "
         << join(grows) << "; it does not on " << join(not_grows)
         << ".  The per-coefficient hybrid never picks a worse recoding; tiny negative "
            "entries (<1%) can appear because gate-level CSE across *different* "
            "multipliers of the same input is invisible to the per-coefficient cost "
            "model.\n";
    check("csd_saving_floor", "min " + format_fixed(min_saving, 1) + "%",
          ">= -1.0% on every row", min_saving >= -1.0);
  }

  /// Cross-neuron product sharing on/off.  Sharing is the hardware
  /// mechanism §II-C's weight clustering exploits: with it, a column with
  /// k distinct weight magnitudes costs at most k multipliers.
  void sharing() {
    section("Ablation A2: cross-neuron multiplier sharing");
    TextTable table({"dataset", "clusters", "area shared", "area unshared", "sharing gain",
                     "multipliers shared", "multipliers unshared"});
    std::size_t clustered_above = 0;
    std::vector<std::string> k2_below_k4;
    for (const auto& dataset : paper_dataset_names()) {
      const MinimizationFlow& f = flow(dataset);
      const std::size_t n_layers = f.float_model().layer_count();
      const ProxyEvaluator realizer = f.proxy_evaluator(f.config().finetune_epochs);
      std::map<int, double> gain;  // by cluster count (0 = off)
      for (int clusters : {0, 4, 2}) {
        const QuantizedMlp qmodel =
            realizer.realize(uniform_genome(n_layers, kBaselineWeightBits, 0, clusters));
        hw::BespokeOptions shared;
        hw::BespokeOptions unshared;
        unshared.share_products = false;
        const hw::BespokeCircuit with(qmodel, shared);
        const hw::BespokeCircuit without(qmodel, unshared);
        const double area_with = with.area_mm2(f.tech());
        const double area_without = without.area_mm2(f.tech());
        gain[clusters] = area_without / area_with;
        table.add_row({dataset, clusters == 0 ? "off" : "k=" + std::to_string(clusters),
                       format_fixed(area_with, 1), format_fixed(area_without, 1),
                       format_factor(area_without / area_with),
                       std::to_string(with.multiplier_count()),
                       std::to_string(without.multiplier_count())});
      }
      table.add_separator();
      clustered_above += gain[4] > gain[0] && gain[2] > gain[0] ? 1 : 0;
      if (gain[2] < gain[4]) k2_below_k4.push_back(dataset);
    }
    out_ << table.to_string() << '\n';
    out_ << "measured: clustering forces weight collisions, so both clustered rows gain "
            "more from sharing than the unclustered row (checked below); k=2 gains less "
            "than k=4 on "
         << join(k2_below_k4) << ".\n";
    check("sharing_clustered_above_unclustered", count_of(clustered_above, 4) + " datasets",
          "k=2 and k=4 gains > off on 4/4", clustered_above == 4);
  }

  /// Fidelity of the analytic area proxy the GA uses as its inner-loop
  /// fitness, against the exact netlist area.  Rank correlation is what
  /// the GA needs; the ratio band shows how far absolute estimates stray.
  void proxy_fidelity() {
    section("Ablation A3: GA area proxy vs exact netlist area");
    TextTable table({"dataset", "designs", "spearman rank corr", "ratio min", "ratio max",
                     "ratio mean"});
    double min_rho = 1.0;
    std::size_t faithful = 0;
    for (const auto& dataset : paper_dataset_names()) {
      const MinimizationFlow& f = flow(dataset);
      const std::size_t n_layers = f.float_model().layer_count();

      // Random designs spanning the GA's search space.
      const ProxyEvaluator realizer = f.proxy_evaluator(/*finetune_epochs=*/2);
      Rng rng(99);
      std::vector<double> exact, proxy;
      const int n_designs = 24;
      for (int i = 0; i < n_designs; ++i) {
        const QuantizedMlp qmodel = realizer.realize(random_genome(n_layers, rng));
        exact.push_back(hw::BespokeCircuit(qmodel).area_mm2(f.tech()));
        proxy.push_back(hw::estimate_area_mm2(qmodel, f.tech()));
      }
      double rmin = 1e18, rmax = 0.0, rsum = 0.0;
      for (std::size_t i = 0; i < exact.size(); ++i) {
        const double r = proxy[i] / exact[i];
        rmin = std::min(rmin, r);
        rmax = std::max(rmax, r);
        rsum += r;
      }
      const double rho = spearman(exact, proxy);
      min_rho = std::min(min_rho, rho);
      faithful += rho >= 0.95 ? 1 : 0;
      table.add_row({dataset, std::to_string(n_designs), format_fixed(rho, 3),
                     format_fixed(rmin, 2), format_fixed(rmax, 2),
                     format_fixed(rsum / exact.size(), 2)});
    }
    out_ << table.to_string() << '\n';
    out_ << "the GA only needs ranking fidelity; correlation ~1 means the proxy is a "
            "faithful inner-loop fitness at a fraction of the cost.\n";
    check("proxy_spearman",
          "min " + format_fixed(min_rho, 3) + ", " + count_of(faithful, 4) + " datasets",
          ">= 0.95 on 4/4", faithful == 4);
  }

  /// §II-B: structured vs unstructured pruning at matched levels.  The
  /// paper prefers unstructured pruning for bespoke circuits (higher
  /// accuracy at similar sparsity; the hardware drops pruned multipliers
  /// for free either way).
  void structured_pruning() {
    section("Ablation: structured (neuron) vs unstructured (connection) pruning");
    TextTable table({"dataset", "level", "unstructured acc", "unstr area gain",
                     "structured acc", "struct area gain"});
    std::size_t rows = 0, struct_acc_ge = 0, struct_area_lt = 0;
    for (const auto& dataset : paper_dataset_names()) {
      const MinimizationFlow& f = flow(dataset);
      const FlowConfig& config = f.config();
      const auto& baseline = f.baseline();
      const std::size_t n_layers = f.float_model().layer_count();
      const auto spec =
          QuantSpec::uniform(n_layers, kBaselineWeightBits, config.input_bits);

      for (double level : {0.25, 0.5}) {
        // Unstructured at `level` sparsity, fine-tuned with the mask held.
        const DesignPoint unstructured =
            f.netlist_evaluator(config.finetune_epochs, /*use_test_set=*/true)
                .evaluate(uniform_genome(n_layers, kBaselineWeightBits,
                                         static_cast<int>(std::llround(level * 100)), 0));

        // Structured: drop the same fraction of hidden neurons, fine-tune.
        Mlp pruned = structured_prune(f.float_model(), level);
        TrainConfig ft = config.train;
        ft.epochs = config.finetune_epochs;
        ft.lr = config.train.lr * 0.3;
        Trainer trainer(ft);
        trainer.set_weight_view(make_qat_view(spec));
        Rng rng(config.seed + 17);
        trainer.fit(pruned, f.data().train, rng);
        const QuantizedMlp q = QuantizedMlp::from_float(pruned, spec);
        hw::BespokeOptions unshared;
        unshared.share_products = false;
        const hw::BespokeCircuit circuit(q, unshared);
        const double s_acc = q.accuracy(f.data().test);
        const double s_area = circuit.area_mm2(f.tech());

        ++rows;
        struct_acc_ge += s_acc >= unstructured.accuracy ? 1 : 0;
        struct_area_lt += s_area > unstructured.area_mm2 ? 1 : 0;
        table.add_row({dataset, format_fixed(level * 100, 0) + "%",
                       format_fixed(unstructured.accuracy, 3),
                       format_factor(baseline.area_mm2 / unstructured.area_mm2),
                       format_fixed(s_acc, 3), format_factor(baseline.area_mm2 / s_area)});
      }
      table.add_separator();
    }
    out_ << table.to_string() << '\n';
    out_ << "measured: at matched pruning level, structured accuracy is equal or higher in "
         << count_of(struct_acc_ge, rows)
         << " rows, and structured removes less area than unstructured in "
         << count_of(struct_area_lt, rows)
         << " rows (the paper prefers unstructured pruning for its higher accuracy at "
            "similar sparsity).\n";
  }

  /// The sensor word width (input quantization): the paper fixes it and
  /// varies only the weights, but printed systems pay for every ADC bit.
  void input_bits() {
    section("Sensitivity: input (sensor word) precision");
    TextTable table({"dataset", "input bits", "baseline acc", "baseline area mm^2",
                     "4b-quant acc", "4b-quant gain"});
    const std::vector<int> widths = {2, 3, 4, 6, 8};
    std::size_t area_rises = 0;
    std::vector<std::string> acc_peaks, gain_moves;
    for (const std::string dataset : {"redwine", "seeds"}) {
      std::vector<double> areas, accs, gains;
      for (int bits : widths) {
        MinimizationFlow& f = flow(dataset, 42, bits);
        const auto& baseline = f.baseline();
        const auto quant = f.sweep_quantization(4, 4);
        areas.push_back(baseline.area_mm2);
        accs.push_back(baseline.accuracy);
        gains.push_back(baseline.area_mm2 / quant.front().area_mm2);
        table.add_row({dataset, std::to_string(bits), format_fixed(baseline.accuracy, 3),
                       format_fixed(baseline.area_mm2, 1),
                       format_fixed(quant.front().accuracy, 3),
                       format_factor(gains.back())});
      }
      table.add_separator();
      area_rises += std::adjacent_find(areas.begin(), areas.end(),
                                       std::greater_equal<>()) == areas.end()
                        ? 1
                        : 0;
      const auto peak = std::max_element(accs.begin(), accs.end()) - accs.begin();
      acc_peaks.push_back(std::to_string(widths[peak]) + " bits on " + dataset);
      gain_moves.push_back("from " + format_factor(gains.front()) + " to " +
                           format_factor(gains.back()) + " on " + dataset);
    }
    out_ << table.to_string() << '\n';
    out_ << "measured: baseline area grows with input bits (checked below); baseline "
            "accuracy first peaks at "
         << join(acc_peaks)
         << " (the printed-ML default is 4 bits); from 2 to 8 input bits the 4-bit "
            "weight-quantization gain goes "
         << join(gain_moves) << ".\n";
    check("input_bits_area_rises", count_of(area_rises, 2) + " datasets",
          "baseline area strictly rising on 2/2", area_rises == 2);
  }

  /// The figures are normalized ratios, so they should be (nearly)
  /// invariant to the absolute EGT cell costs: identical netlists re-costed
  /// under the default EGT library and a lower-cost variant with a
  /// different XOR/AND ratio.
  void tech() {
    section("Sensitivity: EGT technology library variant");
    TextTable table({"dataset", "design", "gain (EGT)", "gain (EGT-lowcost)", "ratio"});
    std::size_t rows = 0, within = 0;
    double max_dev = 0.0;
    for (const std::string dataset : {"whitewine", "pendigits"}) {
      const MinimizationFlow& f = flow(dataset);
      const FlowConfig& config = f.config();
      const std::size_t n_layers = f.float_model().layer_count();
      const Genome base = uniform_genome(n_layers, kBaselineWeightBits, 0, 0);
      const ProxyEvaluator realizer = f.proxy_evaluator(config.finetune_epochs);
      const QuantizedMlp q_base = realizer.realize(base);
      hw::BespokeOptions unshared;
      unshared.share_products = false;
      const hw::BespokeCircuit c_base(q_base, unshared);

      const std::vector<std::pair<std::string, Genome>> designs = {
          {"quant-4b", uniform_genome(n_layers, 4, 0, 0)},
          {"prune-50%", uniform_genome(n_layers, kBaselineWeightBits, 50, 0)},
          {"combined", uniform_genome(n_layers, 4, 30, 4)},
      };
      for (const auto& [name, genome] : designs) {
        const QuantizedMlp q = realizer.realize(genome);
        bool clustered = false;
        for (int k : genome.clusters) clustered |= (k > 0);
        hw::BespokeOptions options;
        options.share_products = clustered;
        const hw::BespokeCircuit c(q, options);
        const auto& egt = hw::TechLibrary::egt();
        const auto& low = hw::TechLibrary::egt_lowcost();
        const double gain_egt = c_base.area_mm2(egt) / c.area_mm2(egt);
        const double gain_low = c_base.area_mm2(low) / c.area_mm2(low);
        const double dev = std::abs(gain_egt / gain_low - 1.0);
        ++rows;
        within += dev <= 0.15 ? 1 : 0;
        max_dev = std::max(max_dev, dev);
        table.add_row({dataset, name, format_factor(gain_egt), format_factor(gain_low),
                       format_fixed(gain_egt / gain_low, 3)});
      }
      table.add_separator();
    }
    out_ << table.to_string() << '\n';
    out_ << "expected shape: gain ratios within ~15% of 1.0 - the paper's normalized "
            "conclusions do not hinge on exact EGT cell numbers.\n";
    check("tech_gain_ratio",
          "max |ratio - 1| " + format_fixed(max_dev, 3) + ", " + count_of(within, rows) +
              " rows",
          "<= 0.15 on 6/6", within == 6);
  }

  /// The MCM records: printed here, and rendered as BENCH_mcm.json.
  void mcm() {
    section("MCM adder-graph sharing on GA fronts (exact circuits; BENCH_mcm.json)");
    const std::vector<McmBenchRecord> records = run_mcm_sharing_bench();
    std::ostringstream json;
    std::size_t bit_exact = 0, adders_kept = 0;
    json << "[\n";
    for (std::size_t i = 0; i < records.size(); ++i) {
      const McmBenchRecord& r = records[i];
      const double adder_red =
          r.adders_unshared > 0
              ? 100.0 * (1.0 - static_cast<double>(r.adders_shared) /
                                   static_cast<double>(r.adders_unshared))
              : 0.0;
      const double area_red =
          r.area_unshared > 0.0 ? 100.0 * (1.0 - r.area_shared / r.area_unshared) : 0.0;
      out_ << "  " << r.dataset << ": front=" << r.front_designs << " product adders "
           << r.adders_unshared << " -> " << r.adders_shared << " (-" << adder_red
           << "%), area " << r.area_unshared << " -> " << r.area_shared << " mm^2 (-"
           << area_red << "%), bit-exact: " << (r.bit_exact ? "yes" : "NO (BUG)") << '\n';
      bit_exact += r.bit_exact ? 1 : 0;
      adders_kept += r.adders_shared <= r.adders_unshared ? 1 : 0;
      if (r.adders_shared >= r.adders_unshared || r.area_shared >= r.area_unshared) {
        out_ << "  WARNING: sharing did not strictly reduce adders/area on " << r.dataset
             << '\n';
      }
      json << "  {\"bench\": \"mcm_sharing\", \"dataset\": \"" << r.dataset
           << "\", \"front_designs\": " << r.front_designs
           << ", \"product_adders_unshared\": " << r.adders_unshared
           << ", \"product_adders_shared\": " << r.adders_shared
           << ", \"adder_reduction_pct\": " << adder_red
           << ", \"area_mm2_unshared\": " << r.area_unshared
           << ", \"area_mm2_shared\": " << r.area_shared
           << ", \"area_reduction_pct\": " << area_red
           << ", \"bit_exact\": " << (r.bit_exact ? "true" : "false") << "}"
           << (i + 1 < records.size() ? "," : "") << '\n';
    }
    json << "]\n";
    mcm_json_ = json.str();
    out_ << '\n';
    check("mcm_bit_exact", count_of(bit_exact, records.size()) + " datasets", "4/4",
          bit_exact == 4);
    check("mcm_adders_never_grow", count_of(adders_kept, records.size()) + " datasets",
          "4/4", adders_kept == 4);
  }

  std::ostringstream out_;
  std::string mcm_json_;
  std::size_t checks_ = 0;
  std::size_t failures_ = 0;
  std::map<std::tuple<std::string, std::uint64_t, int>, MinimizationFlow> flows_;
  std::map<std::string, Sweeps> sweeps_;
  std::map<std::string, MinimizationFlow::GaOutcome> headline_ga_;
};

}  // namespace

int main() {
  Reproduction reproduction;
  reproduction.run();
  const std::string report = reproduction.report();
  std::cout << report;
  if (!pnm::write_text_file_atomic("BENCH_paper.txt", report) ||
      !pnm::write_text_file_atomic("BENCH_mcm.json", reproduction.mcm_json())) {
    std::cerr << "error: cannot write BENCH_paper.txt or BENCH_mcm.json\n";
    return 1;
  }
  return reproduction.all_checks_pass() ? 0 : 1;
}
