/// micro_bench — the speed floors of the GA fitness loop's two hot paths,
/// plus the generator of the deterministic BENCH_mcm.json artifact.
///
/// It exits nonzero when a correctness check fails:
///   * the single-sample, blocked-scalar and blocked-native inference
///     engines disagree on a realized model's accuracy;
///   * vectorized fine-tuning moves the batch's mean realized accuracy
///     away from the scalar+libm reference by more than 0.05;
///   * MCM sharing loses gate-level bit-exactness or adds adders;
/// or, on builds with build_info::timing_multiplier() == 1 (no
/// sanitizer), when a speed floor fails: blocked-scalar below 0.95x
/// single-sample, native blocks below 1.5x single-sample, or vectorized
/// fine-tuning below 1.2x scalar+libm.
///
/// The floors are one-shot timings with wide margins, not measurements:
/// repeated, stage-attributed numbers come from `python3 perfbench/run.py`.
/// BENCH_mcm.json holds adder counts and areas only, so its bytes are the
/// same on every host and under PNM_FORCE_SCALAR=1.

#include <chrono>
#include <cmath>
#include <fstream>
#include <iostream>

#include "pnm/core/eval.hpp"
#include "pnm/core/flow.hpp"
#include "pnm/core/infer_simd.hpp"
#include "pnm/core/quantize.hpp"
#include "pnm/hw/bespoke.hpp"
#include "pnm/nn/dense_simd.hpp"
#include "pnm/nn/trainer.hpp"
#include "pnm/util/bits.hpp"
#include "pnm/util/build_info.hpp"
#include "pnm/util/rng.hpp"

namespace {

using namespace pnm;

MinimizationFlow& bench_flow() {
  static MinimizationFlow flow = [] {
    FlowConfig config;
    config.dataset_name = "seeds";
    config.train.epochs = 20;
    MinimizationFlow f(config);
    f.prepare();
    return f;
  }();
  return flow;
}

/// A GA-generation-sized batch of distinct random genomes.
std::vector<Genome> batch_genomes(std::size_t n) {
  Rng rng(1234);
  const std::vector<int> sparsity_choices = {0, 10, 20, 30, 40, 50, 60, 70};
  const std::vector<int> cluster_choices = {0, 2, 3, 4, 6, 8};
  std::vector<Genome> genomes;
  genomes.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    Genome g;
    for (int layer = 0; layer < 2; ++layer) {
      g.weight_bits.push_back(rng.uniform_int(2, 8));
      g.sparsity_pct.push_back(
          sparsity_choices[rng.uniform_int(sparsity_choices.size())]);
      g.clusters.push_back(cluster_choices[rng.uniform_int(cluster_choices.size())]);
    }
    genomes.push_back(std::move(g));
  }
  return genomes;
}

// ---- Inference engine and fine-tuning floors -----------------------------
// The batch's genomes are realized once through the netlist backend, then
// scored on the validation split three ways: single-sample (one sample
// per layer pass), blocked on the scalar kernel (kSampleBlock samples per
// weight visit), and blocked on the runtime-dispatched native kernel
// (AVX2/NEON; skipped when the active ISA is scalar).  The engines are
// bit-exact by construction, so their accuracies must agree exactly.
//
// The fine-tuning pair runs NetlistEvaluator::realize (quantize + STE
// fine-tune) twice: "scalar_libm" is the pre-SIMD trainer (per-sample
// backprop, scalar dense kernels, libm softmax) and "simd_fast" the
// shipped default (sample-blocked backprop, active-ISA kernels, batch
// fast-exp softmax).  Fast softmax perturbs trajectories, so the two are
// not bit-identical; their mean realized accuracy must match within a
// declared tolerance instead.

bool run_speed_floors() {
  auto& flow = bench_flow();
  const std::vector<Genome> genomes = batch_genomes(24);
  const QuantizedDataset qval = quantize_dataset(flow.data().val, flow.config().input_bits);
  // No blocked layout, so accuracy() takes the single-sample path.
  QuantizedDataset qval_single = qval;
  qval_single.xb.clear();

  const simd::Isa isa = simd::active_isa();
  const bool native_isa = isa != simd::Isa::kScalar;
  // Sanitizers distort kernel-relative timings, so the floors bind only
  // on untimed-scaled builds; the correctness checks always bind.
  const bool timed_build = pnm::build_info::timing_multiplier() == 1;
  std::cout << "isa: " << simd::isa_name(isa) << '\n';

  NetlistEvaluator netlist = flow.netlist_evaluator(/*finetune_epochs=*/2);
  std::vector<QuantizedMlp> models;
  models.reserve(genomes.size());
  for (const Genome& g : genomes) models.push_back(netlist.realize(g));

  // Several passes so each mode's wall time is well above timer resolution.
  constexpr int kPasses = 150;
  const auto seconds_per_pass = [&](std::vector<double>& accs, auto&& accuracy_of) {
    accs.resize(models.size());
    const auto t0 = std::chrono::steady_clock::now();
    for (int p = 0; p < kPasses; ++p) {
      for (std::size_t m = 0; m < models.size(); ++m) accs[m] = accuracy_of(models[m]);
    }
    const auto t1 = std::chrono::steady_clock::now();
    return std::chrono::duration<double>(t1 - t0).count() / kPasses;
  };
  std::vector<double> acc_single, acc_bscalar, acc_bnative;
  const double sec_single = seconds_per_pass(
      acc_single, [&](const QuantizedMlp& q) { return q.accuracy(qval_single); });
  const double sec_bscalar = seconds_per_pass(acc_bscalar, [&](const QuantizedMlp& q) {
    return q.accuracy_blocked(qval, simd::Isa::kScalar);
  });
  bool engines_agree = acc_bscalar == acc_single;
  std::cout << "inference on " << models.size() << " realized models x " << qval.size()
            << " samples: blocked-scalar " << sec_single / sec_bscalar << "x single-sample";
  double sec_bnative = 0.0;
  if (native_isa) {
    sec_bnative = seconds_per_pass(
        acc_bnative, [&](const QuantizedMlp& q) { return q.accuracy_blocked(qval, isa); });
    engines_agree = engines_agree && acc_bnative == acc_single;
    std::cout << ", blocked-" << simd::isa_name(isa) << ' ' << sec_single / sec_bnative
              << 'x';
  }
  std::cout << "; accuracies agree: " << (engines_agree ? "yes" : "NO (BUG)") << '\n';

  bool ok = engines_agree;
  if (timed_build && sec_bscalar > sec_single * 1.05) {
    std::cerr << "FAIL: blocked-scalar slower than single-sample ("
              << sec_single / sec_bscalar << "x)\n";
    ok = false;
  }
  if (timed_build && native_isa && sec_bnative * 1.5 > sec_single) {
    std::cerr << "FAIL: " << simd::isa_name(isa) << " blocked speedup "
              << sec_single / sec_bnative << "x vs single-sample, need >= 1.5x\n";
    ok = false;
  }

  constexpr int kFtPasses = 3;
  constexpr double kFrontQualityTolerance = 0.05;
  const auto realize_batch = [&](bool vectorized, double& mean_accuracy) {
    const bool saved = softmax_fast_math();
    set_softmax_fast_math(vectorized);
    set_blocked_backprop(vectorized);
    simd::force_dense_kernels(vectorized ? isa : simd::Isa::kScalar);
    mean_accuracy = 0.0;
    const auto t0 = std::chrono::steady_clock::now();
    for (int p = 0; p < kFtPasses; ++p) {
      for (const Genome& g : genomes) {
        const QuantizedMlp q = netlist.realize(g);
        if (p == 0) mean_accuracy += q.accuracy(qval);
      }
    }
    const auto t1 = std::chrono::steady_clock::now();
    set_softmax_fast_math(saved);
    set_blocked_backprop(true);
    simd::reset_dense_kernels();
    mean_accuracy /= static_cast<double>(genomes.size());
    return std::chrono::duration<double>(t1 - t0).count() / kFtPasses;
  };
  double mean_base = 0.0, mean_simd = 0.0;
  const double sec_ft_base = realize_batch(false, mean_base);
  const double sec_ft_simd = realize_batch(true, mean_simd);
  const double ft_quality_delta = mean_simd - mean_base;
  const bool ft_quality_ok = std::abs(ft_quality_delta) <= kFrontQualityTolerance;
  std::cout << "fine-tuning: simd_fast " << sec_ft_base / sec_ft_simd
            << "x scalar_libm, mean realized accuracy " << mean_base << " -> " << mean_simd
            << " (delta " << ft_quality_delta << "; within "
            << kFrontQualityTolerance << ": " << (ft_quality_ok ? "yes" : "NO (BUG)")
            << ")\n";
  ok = ok && ft_quality_ok;
  if (timed_build && native_isa && sec_ft_simd * 1.2 > sec_ft_base) {
    std::cerr << "FAIL: vectorized fine-tuning speedup " << sec_ft_base / sec_ft_simd
              << "x vs scalar+libm, need >= 1.2x\n";
    ok = false;
  }
  return ok;
}

// ---- MCM adder-graph sharing (BENCH_mcm.json) ---------------------------
// The headline-metric bench for hw/mcm.hpp: run the (reduced) Fig. 2 GA
// per dataset, realize every front genome, and regenerate its exact
// bespoke circuit with cross-coefficient adder-graph sharing off vs on.
// Records product-stage adders and exact area before/after, plus a
// gate-level bit-exactness check of the shared circuits against the
// integer golden model.

struct McmBenchRecord {
  std::string dataset;
  std::size_t front_designs = 0;
  std::size_t adders_unshared = 0;
  std::size_t adders_shared = 0;
  double area_unshared = 0.0;
  double area_shared = 0.0;
  bool bit_exact = true;
};

/// Returns false when a hard guarantee is violated (lost bit-exactness,
/// or a shared plan with more adders than the independent chains), so CI
/// fails instead of silently uploading a bad record.
bool run_mcm_sharing_bench(const std::string& json_path) {
  bool ok = true;
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
    for (const auto& member : outcome.raw.front) {
      const QuantizedMlp qmodel =
          flow.realize_genome(member.genome, config.finetune_epochs);
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

  std::cout << "\n-- MCM adder-graph sharing on GA fronts (exact circuits) --\n";
  std::ofstream json(json_path);
  if (!json) {
    std::cerr << "error: cannot write " << json_path << '\n';
    return false;
  }
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
    std::cout << "  " << r.dataset << ": front=" << r.front_designs
              << " product adders " << r.adders_unshared << " -> " << r.adders_shared
              << " (-" << adder_red << "%), area " << r.area_unshared << " -> "
              << r.area_shared << " mm^2 (-" << area_red << "%), bit-exact: "
              << (r.bit_exact ? "yes" : "NO (BUG)") << '\n';
    if (!r.bit_exact || r.adders_shared > r.adders_unshared) {
      ok = false;  // hard guarantees: bit-exactness, adders never grow
    }
    if (r.adders_shared >= r.adders_unshared || r.area_shared >= r.area_unshared) {
      std::cout << "  WARNING: sharing did not strictly reduce adders/area on "
                << r.dataset << '\n';
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
  std::cout << "(wrote " << json_path << ")\n";
  return ok;
}

}  // namespace

int main() {
  const bool floors_ok = run_speed_floors();
  const bool mcm_ok = run_mcm_sharing_bench("BENCH_mcm.json");
  return floors_ok && mcm_ok ? 0 : 1;
}
