/// micro_bench — the speed floors of the GA fitness loop's two hot paths.
///
/// It exits nonzero when a correctness check fails:
///   * the single-sample, blocked-scalar and blocked-native inference
///     engines disagree on a realized model's accuracy;
///   * production fine-tuning moves the batch's mean realized accuracy
///     away from the per-sample libm reference on the scalar table
///     (tests/trainer_reference.hpp) by more than 0.05;
/// or, on builds with build_info::timing_multiplier() == 1 (no
/// sanitizer), when a speed floor fails: blocked-scalar below 0.95x
/// single-sample, native blocks below 1.5x single-sample, or production
/// fine-tuning below 1.2x that reference.
///
/// The floors are one-shot timings with wide margins, not measurements:
/// repeated, stage-attributed numbers come from `python3 perfbench/run.py`.
/// The paper reproduction and the BENCH_mcm.json record are `reproduce`'s.

#include <chrono>
#include <cmath>
#include <iostream>

#include "pnm/core/eval.hpp"
#include "pnm/core/flow.hpp"
#include "pnm/core/infer_simd.hpp"
#include "pnm/core/quantize.hpp"
#include "pnm/nn/dense_simd.hpp"
#include "pnm/util/build_info.hpp"
#include "pnm/util/rng.hpp"
#include "trainer_reference.hpp"

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

/// A GA-generation-sized batch of random genomes for the two-layer flow.
std::vector<Genome> batch_genomes(std::size_t n) {
  Rng rng(1234);
  std::vector<Genome> genomes;
  genomes.reserve(n);
  for (std::size_t i = 0; i < n; ++i) genomes.push_back(random_genome(2, rng));
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
// The fine-tuning pair realizes the batch (prune + cluster + STE fine-tune
// + quantize) twice: "scalar_libm" is reference::realize with the
// per-sample libm gradient on the scalar dense kernels (the pre-SIMD
// trainer, tests/trainer_reference.hpp) and "simd_fast" is
// NetlistEvaluator::realize, production fine-tuning (sample-blocked
// backprop, active-ISA kernels, fast softmax).  Fast softmax perturbs
// trajectories, so the two are not bit-identical; their mean realized
// accuracy must match within a declared tolerance instead.

bool run_speed_floors() {
  auto& flow = bench_flow();
  const std::vector<Genome> genomes = batch_genomes(24);
  NetlistEvaluator netlist = flow.netlist_evaluator(/*finetune_epochs=*/2);
  const QuantizedDataset& qval = netlist.reporting_set();
  // The single-sample engine reads each validation sample's own codes.
  const Dataset& val = flow.data().val;
  std::vector<std::vector<std::int64_t>> val_codes;
  val_codes.reserve(val.size());
  for (const auto& x : val.x) val_codes.push_back(quantize_input(x, qval.input_bits));
  const auto single_sample_accuracy = [&](const QuantizedMlp& q) {
    InferScratch scratch;
    std::size_t correct = 0;
    for (std::size_t i = 0; i < val_codes.size(); ++i) {
      if (q.predict_quantized_into(val_codes[i], scratch) == val.y[i]) ++correct;
    }
    return static_cast<double>(correct) / static_cast<double>(val_codes.size());
  };

  const simd::Isa isa = simd::active_isa();
  const bool native_isa = isa != simd::Isa::kScalar;
  // Sanitizers distort kernel-relative timings, so the floors bind only
  // on untimed-scaled builds; the correctness checks always bind.
  const bool timed_build = pnm::build_info::timing_multiplier() == 1;
  std::cout << "isa: " << simd::isa_name(isa) << '\n';

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
  const double sec_single = seconds_per_pass(acc_single, single_sample_accuracy);
  const double sec_bscalar = seconds_per_pass(acc_bscalar, [&](const QuantizedMlp& q) {
    return q.accuracy(qval, simd::Isa::kScalar);
  });
  bool engines_agree = acc_bscalar == acc_single;
  std::cout << "inference on " << models.size() << " realized models x " << qval.size()
            << " samples: blocked-scalar " << sec_single / sec_bscalar << "x single-sample";
  double sec_bnative = 0.0;
  if (native_isa) {
    sec_bnative = seconds_per_pass(
        acc_bnative, [&](const QuantizedMlp& q) { return q.accuracy(qval, isa); });
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
    const reference::ScopedKernels kernels(vectorized ? isa : simd::Isa::kScalar);
    mean_accuracy = 0.0;
    const auto t0 = std::chrono::steady_clock::now();
    for (int p = 0; p < kFtPasses; ++p) {
      for (const Genome& g : genomes) {
        const QuantizedMlp q =
            vectorized ? netlist.realize(g)
                       : reference::realize(flow.float_model(), flow.data().train,
                                            netlist.config(), g,
                                            reference::Gradient::kPerSampleLibm);
        if (p == 0) mean_accuracy += q.accuracy(qval);
      }
    }
    const auto t1 = std::chrono::steady_clock::now();
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

}  // namespace

int main() { return run_speed_floors() ? 0 : 1; }
