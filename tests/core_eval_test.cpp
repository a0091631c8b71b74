/// Tests for the composable evaluation layer: pipeline backends, the
/// genome cache decorator, and parallel fan-out determinism.

#include "pnm/core/eval.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <limits>
#include <vector>

#include "function_evaluator.hpp"
#include "pnm/core/flow.hpp"

namespace pnm {
namespace {

FlowConfig fast_config() {
  FlowConfig config;
  config.dataset_name = "seeds";
  config.seed = 42;
  config.train.epochs = 25;
  config.finetune_epochs = 4;
  return config;
}

/// A shared, lazily-prepared flow so the suite trains Seeds only once.
MinimizationFlow& seeds_flow() {
  static MinimizationFlow flow = [] {
    MinimizationFlow f(fast_config());
    f.prepare();
    return f;
  }();
  return flow;
}

/// A handful of structurally distinct candidates for batch tests.
std::vector<Genome> sample_genomes() {
  std::vector<Genome> genomes;
  for (int bits : {2, 3, 4, 6}) {
    Genome g;
    g.weight_bits = {bits, bits};
    g.sparsity_pct = {10 * bits, 0};
    g.clusters = {bits % 2 == 0 ? 2 : 0, 0};
    genomes.push_back(std::move(g));
  }
  return genomes;
}

void expect_same_point(const DesignPoint& a, const DesignPoint& b) {
  EXPECT_EQ(a.accuracy, b.accuracy);
  EXPECT_EQ(a.area_mm2, b.area_mm2);
  EXPECT_EQ(a.power_uw, b.power_uw);
  EXPECT_EQ(a.delay_ms, b.delay_ms);
}

TEST(Eval, FactoriesRequirePrepare) {
  MinimizationFlow flow(fast_config());
  EXPECT_THROW(flow.proxy_evaluator(2), std::logic_error);
  EXPECT_THROW(flow.netlist_evaluator(2), std::logic_error);
}

TEST(Eval, PipelineRejectsArityMismatch) {
  auto& flow = seeds_flow();
  ProxyEvaluator proxy = flow.proxy_evaluator(1);
  Genome bad;
  bad.weight_bits = {4};
  bad.sparsity_pct = {0};
  bad.clusters = {0};  // model has 2 layers
  EXPECT_THROW(proxy.evaluate(bad), std::invalid_argument);
}

/// The training split is validated once, where the evaluator is built:
/// no genome's fine-tune re-checks it, so a NaN training feature must
/// throw from the constructor, not from an evaluation on a pool worker.
TEST(Eval, ConstructorRejectsNonFiniteTrainingFeature) {
  auto& flow = seeds_flow();
  const EvalConfig config = flow.proxy_evaluator(1).config();
  DataSplit split = flow.data();
  split.train.x[3][1] = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(ProxyEvaluator(flow.float_model(), split, flow.tech(), config),
               std::invalid_argument);
  EXPECT_THROW(NetlistEvaluator(flow.float_model(), split, flow.tech(), config),
               std::invalid_argument);
  split.train.x[3][1] = flow.data().train.x[3][1];
  EXPECT_NO_THROW(ProxyEvaluator(flow.float_model(), split, flow.tech(), config));
}

TEST(Eval, FreshEvaluatorsMatchReusedOnes) {
  auto& flow = seeds_flow();
  ProxyEvaluator proxy = flow.proxy_evaluator(2);
  NetlistEvaluator netlist = flow.netlist_evaluator(2);
  for (const Genome& g : sample_genomes()) {
    expect_same_point(proxy.evaluate(g), flow.proxy_evaluator(2).evaluate(g));
    expect_same_point(netlist.evaluate(g), flow.netlist_evaluator(2).evaluate(g));
  }
}

TEST(Eval, NetlistFillsPowerAndDelayProxyDoesNot) {
  auto& flow = seeds_flow();
  const Genome g = sample_genomes().front();
  const DesignPoint exact = flow.netlist_evaluator(1).evaluate(g);
  const DesignPoint proxy = flow.proxy_evaluator(1).evaluate(g);
  EXPECT_GT(exact.power_uw, 0.0);
  EXPECT_GT(exact.delay_ms, 0.0);
  EXPECT_EQ(proxy.power_uw, 0.0);
  EXPECT_EQ(proxy.delay_ms, 0.0);
  EXPECT_GT(proxy.area_mm2, 0.0);
}

TEST(Eval, ShareSubexpressionsKnobFlowsThroughEvaluators) {
  // A second flow with the MCM knob on: both backends must price the
  // shared DAG, never exceeding the unshared flow's costs, and the
  // paper-faithful policy (sharing only for clustered genomes) must
  // normalize the knob off where share_products is off.
  FlowConfig mcm_config = fast_config();
  mcm_config.bespoke.share_subexpressions = true;
  MinimizationFlow mcm_flow(mcm_config);
  mcm_flow.prepare();
  auto& plain_flow = seeds_flow();

  Genome clustered;
  clustered.weight_bits = {8, 8};
  clustered.sparsity_pct = {0, 0};
  clustered.clusters = {4, 4};
  const DesignPoint shared_proxy = mcm_flow.proxy_evaluator(2).evaluate(clustered);
  const DesignPoint plain_proxy = plain_flow.proxy_evaluator(2).evaluate(clustered);
  const DesignPoint shared_exact = mcm_flow.netlist_evaluator(2).evaluate(clustered);
  const DesignPoint plain_exact = plain_flow.netlist_evaluator(2).evaluate(clustered);
  EXPECT_LE(shared_proxy.area_mm2, plain_proxy.area_mm2);
  EXPECT_LE(shared_exact.area_mm2, plain_exact.area_mm2 * 1.0001);
  EXPECT_EQ(shared_proxy.accuracy, plain_proxy.accuracy);  // cost-only knob

  Genome unclustered = clustered;
  unclustered.clusters = {0, 0};
  // share_only_when_clustered forces share_products (and so the MCM
  // knob) off: identical costs with and without the config flag.
  expect_same_point(mcm_flow.proxy_evaluator(2).evaluate(unclustered),
                    plain_flow.proxy_evaluator(2).evaluate(unclustered));
}

TEST(Eval, BatchMatchesSingleEvaluation) {
  auto& flow = seeds_flow();
  ProxyEvaluator proxy = flow.proxy_evaluator(2);
  const std::vector<Genome> genomes = sample_genomes();
  const std::vector<DesignPoint> batch = proxy.evaluate_batch(genomes);
  ASSERT_EQ(batch.size(), genomes.size());
  for (std::size_t i = 0; i < genomes.size(); ++i) {
    expect_same_point(batch[i], proxy.evaluate(genomes[i]));
  }
}

TEST(Eval, ParallelIsBitIdenticalAcrossThreadCounts) {
  auto& flow = seeds_flow();
  ProxyEvaluator proxy = flow.proxy_evaluator(2);
  const std::vector<Genome> genomes = sample_genomes();
  const std::vector<DesignPoint> serial = proxy.evaluate_batch(genomes);
  for (std::size_t threads : {1UL, 2UL, 4UL}) {
    ParallelEvaluator parallel(proxy, threads);
    EXPECT_EQ(parallel.threads(), threads);
    const std::vector<DesignPoint> fanned = parallel.evaluate_batch(genomes);
    ASSERT_EQ(fanned.size(), serial.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
      expect_same_point(fanned[i], serial[i]);
      EXPECT_EQ(fanned[i].config, serial[i].config);
    }
  }
}

TEST(Eval, ParallelNetlistIsBitIdenticalToo) {
  auto& flow = seeds_flow();
  NetlistEvaluator netlist = flow.netlist_evaluator(1);
  const std::vector<Genome> genomes = sample_genomes();
  const std::vector<DesignPoint> serial = netlist.evaluate_batch(genomes);
  ParallelEvaluator parallel(netlist, 4);
  const std::vector<DesignPoint> fanned = parallel.evaluate_batch(genomes);
  for (std::size_t i = 0; i < serial.size(); ++i) {
    expect_same_point(fanned[i], serial[i]);
  }
}

TEST(Eval, CachedCountsHitsAndMissesExactly) {
  std::atomic<std::size_t> calls{0};
  FunctionEvaluator inner([&calls](const Genome& g) {
    calls.fetch_add(1);
    return GenomeFitness{0.5, static_cast<double>(g.weight_bits[0])};
  });
  CachedEvaluator cached(inner);
  const std::vector<Genome> genomes = sample_genomes();  // 4 distinct

  // Cold batch: all misses, one inner call each.
  cached.evaluate_batch(genomes);
  EXPECT_EQ(cached.misses(), 4U);
  EXPECT_EQ(cached.hits(), 0U);
  EXPECT_EQ(cached.size(), 4U);
  EXPECT_EQ(calls.load(), 4U);

  // Warm batch: all hits, no inner calls.
  const auto warm = cached.evaluate_batch(genomes);
  EXPECT_EQ(cached.misses(), 4U);
  EXPECT_EQ(cached.hits(), 4U);
  EXPECT_EQ(calls.load(), 4U);
  EXPECT_EQ(warm[1].area_mm2, static_cast<double>(genomes[1].weight_bits[0]));

  // Mixed batch with an in-batch duplicate: the duplicate counts as a
  // miss (it was not cached when requested) but costs only one inner call.
  Genome fresh = genomes[0];
  fresh.weight_bits = {8, 8};
  const std::vector<Genome> mixed = {genomes[0], fresh, fresh};
  cached.evaluate_batch(mixed);
  EXPECT_EQ(cached.hits(), 5U);
  EXPECT_EQ(cached.misses(), 6U);
  EXPECT_EQ(calls.load(), 5U);
  EXPECT_EQ(cached.size(), 5U);

  // Single-genome path.
  cached.evaluate(fresh);
  EXPECT_EQ(cached.hits(), 6U);
  cached.clear();
  EXPECT_EQ(cached.hits(), 0U);
  EXPECT_EQ(cached.misses(), 0U);
  EXPECT_EQ(cached.size(), 0U);
}

TEST(Eval, CachedBatchDedupBookkeepingStaysConsistent) {
  // Regression guard for the one-key-per-genome batch path: heavy in-batch
  // duplication must keep the stats identity (hits + misses == requests),
  // evaluate each distinct genome exactly once, and route every request
  // position to the result of its own genome.
  std::atomic<std::size_t> calls{0};
  FunctionEvaluator inner([&calls](const Genome& g) {
    calls.fetch_add(1);
    return GenomeFitness{0.25, static_cast<double>(g.weight_bits[0] * 10 +
                                                   g.weight_bits[1])};
  });
  CachedEvaluator cached(inner);

  const std::vector<Genome> distinct = sample_genomes();  // 4 distinct
  std::vector<Genome> batch;
  for (int repeat = 0; repeat < 3; ++repeat) {
    for (const Genome& g : distinct) batch.push_back(g);
  }
  const auto points = cached.evaluate_batch(batch);

  EXPECT_EQ(cached.hits() + cached.misses(), batch.size());
  EXPECT_EQ(cached.misses(), batch.size());  // nothing was cached beforehand
  EXPECT_EQ(cached.size(), distinct.size());
  EXPECT_EQ(calls.load(), distinct.size());  // one inner call per distinct genome
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const double expected = static_cast<double>(batch[i].weight_bits[0] * 10 +
                                                batch[i].weight_bits[1]);
    EXPECT_EQ(points[i].area_mm2, expected) << "position " << i;
    EXPECT_EQ(points[i].config, batch[i].key()) << "position " << i;
  }

  // A warm replay flips every request to a hit without new inner calls.
  cached.evaluate_batch(batch);
  EXPECT_EQ(cached.hits(), batch.size());
  EXPECT_EQ(cached.misses(), batch.size());
  EXPECT_EQ(calls.load(), distinct.size());
}

TEST(Eval, CacheIsExactUnderRepeatedGaGenerations) {
  std::atomic<std::size_t> calls{0};
  FunctionEvaluator inner([&calls](const Genome& g) {
    calls.fetch_add(1);
    double area = 0.0;
    for (int b : g.weight_bits) area += b;
    return GenomeFitness{1.0 - 0.01 * area, area};
  });
  CachedEvaluator cached(inner);

  GaConfig cfg;
  cfg.population = 12;
  cfg.generations = 5;

  // First run: the GA memoizes per-run, so the cache sees each distinct
  // genome exactly once — all misses, zero hits.
  Rng rng1(7);
  const GaResult r1 = nsga2_search(cfg, 2, cached, rng1);
  EXPECT_EQ(cached.misses(), r1.evaluations);
  EXPECT_EQ(cached.hits(), 0U);
  EXPECT_EQ(calls.load(), r1.evaluations);

  // Second identical run: the GA replays the same genome stream and every
  // lookup hits — the inner evaluator is never called again.
  Rng rng2(7);
  const GaResult r2 = nsga2_search(cfg, 2, cached, rng2);
  EXPECT_EQ(r2.evaluations, r1.evaluations);
  EXPECT_EQ(cached.misses(), r1.evaluations);
  EXPECT_EQ(cached.hits(), r2.evaluations);
  EXPECT_EQ(calls.load(), r1.evaluations);

  // And the search outcome is unchanged.
  ASSERT_EQ(r1.front.size(), r2.front.size());
  for (std::size_t i = 0; i < r1.front.size(); ++i) {
    EXPECT_EQ(r1.front[i].genome, r2.front[i].genome);
  }
}

TEST(Eval, RunGaWithComposedStackMatchesSerialProxy) {
  auto& flow = seeds_flow();
  GaConfig ga;
  ga.population = 8;
  ga.generations = 3;

  // Reference: the plain serial proxy backend.
  ProxyEvaluator serial_fitness = flow.proxy_evaluator(1);
  auto serial = flow.run_ga(serial_fitness, ga);

  // Same search through an explicitly composed parallel stack.
  ProxyEvaluator proxy = flow.proxy_evaluator(1);
  ParallelEvaluator parallel(proxy, 4);
  CachedEvaluator fitness(parallel);
  auto composed = flow.run_ga(fitness, ga);

  EXPECT_EQ(composed.raw.evaluations, serial.raw.evaluations);
  ASSERT_EQ(composed.raw.front.size(), serial.raw.front.size());
  for (std::size_t i = 0; i < serial.raw.front.size(); ++i) {
    EXPECT_EQ(composed.raw.front[i].genome, serial.raw.front[i].genome);
    EXPECT_EQ(composed.raw.front[i].fitness.accuracy,
              serial.raw.front[i].fitness.accuracy);
    EXPECT_EQ(composed.raw.front[i].fitness.area_mm2,
              serial.raw.front[i].fitness.area_mm2);
  }
  ASSERT_EQ(composed.front.size(), serial.front.size());
  for (std::size_t i = 0; i < serial.front.size(); ++i) {
    expect_same_point(composed.front[i], serial.front[i]);
  }
}

TEST(Eval, EvaluatorNamesDescribeTheStack) {
  auto& flow = seeds_flow();
  ProxyEvaluator proxy = flow.proxy_evaluator(1);
  NetlistEvaluator netlist = flow.netlist_evaluator(1);
  ParallelEvaluator parallel(proxy, 2);
  CachedEvaluator cached(parallel);
  EXPECT_EQ(proxy.name(), "proxy");
  EXPECT_EQ(netlist.name(), "netlist");
  EXPECT_EQ(parallel.name(), "parallel(proxy)x2");
  EXPECT_EQ(cached.name(), "cached(parallel(proxy)x2)");
}

}  // namespace
}  // namespace pnm
