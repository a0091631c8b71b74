/// Concurrency test for the read-only sharing contract the serve and eval
/// layers rely on: one QuantizedDataset (and one QuantizedMlp) is shared
/// by many threads, each with private scratch, and every thread must
/// compute the predictions and accuracy of a serial single-sample pass.
/// Run under TSan it also proves the sharing is race-free (all
/// post-construction access is const).

#include "pnm/core/quantize.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <thread>
#include <vector>

#include "pnm/core/qmlp.hpp"
#include "pnm/data/synth.hpp"
#include "pnm/util/rng.hpp"

namespace pnm {
namespace {

TEST(QuantizedDatasetShared, ConcurrentReadersAgreeWithSerialBaseline) {
  Rng rng(42);
  SynthConfig cfg;
  cfg.name = "shared";
  cfg.n_features = 8;
  cfg.n_classes = 4;
  cfg.n_samples = 400;
  const Dataset data = make_synthetic(cfg, rng);
  const QuantizedDataset qd = quantize_dataset(data, 4);

  const Mlp net({8, 6, 4}, rng);
  const QuantizedMlp model = QuantizedMlp::from_float(net, QuantSpec::uniform(2, 5, 4));

  // Serial baseline: the single-sample engine on each sample's own codes.
  std::vector<std::size_t> baseline(qd.size());
  {
    InferScratch scratch;
    for (std::size_t i = 0; i < qd.size(); ++i) {
      baseline[i] = model.predict_quantized_into(quantize_input(data.x[i], 4), scratch);
    }
  }
  const double baseline_accuracy = model.accuracy(qd);

  // Many threads, shared dataset + model, private scratch.  Each thread
  // sweeps every block of the shared codes several times (overlapping
  // reads of every cache line) and checks against the baseline.
  constexpr std::size_t kB = simd::kSampleBlock;
  constexpr std::size_t kThreads = 8;
  constexpr int kSweeps = 3;
  std::vector<std::size_t> disagreements(kThreads, 0);
  std::vector<std::thread> pool;
  pool.reserve(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    pool.emplace_back([&, t] {
      BlockScratch scratch;
      std::size_t preds[kB] = {};
      for (int sweep = 0; sweep < kSweeps; ++sweep) {
        for (std::size_t b = 0; b < qd.block_count(); ++b) {
          const std::size_t lanes = std::min(kB, qd.size() - b * kB);
          model.predict_block_into(qd.block(b), lanes, scratch, preds, simd::active_isa());
          for (std::size_t j = 0; j < lanes; ++j) {
            if (preds[j] != baseline[b * kB + j]) ++disagreements[t];
          }
        }
        if (model.accuracy(qd) != baseline_accuracy) ++disagreements[t];
      }
    });
  }
  for (auto& th : pool) th.join();
  for (std::size_t t = 0; t < kThreads; ++t) {
    EXPECT_EQ(disagreements[t], 0U) << "thread " << t;
  }
}

}  // namespace
}  // namespace pnm
