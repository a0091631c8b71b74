/// Tests for the NSGA-II search core: sorting/crowding invariants on
/// crafted objective sets, and convergence on analytic toy problems.

#include "pnm/core/ga.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "function_evaluator.hpp"

namespace pnm {
namespace {

TEST(Genome, KeyIsStableAndDistinct) {
  Genome a;
  a.weight_bits = {4, 3};
  a.sparsity_pct = {20, 0};
  a.clusters = {0, 4};
  EXPECT_EQ(a.key(), "b4,3|s20,0|c0,4");
  Genome b = a;
  EXPECT_EQ(a.key(), b.key());
  b.clusters[1] = 6;
  EXPECT_NE(a.key(), b.key());
}

TEST(GaConfig, Validation) {
  GaConfig ok;
  EXPECT_NO_THROW(ok.validate());
  GaConfig bad = ok;
  bad.population = 2;
  EXPECT_THROW(bad.validate(), std::invalid_argument);
  bad = ok;
  bad.generations = 0;
  EXPECT_THROW(bad.validate(), std::invalid_argument);
  bad = ok;
  bad.acc_shift_choices = {0, 13};
  EXPECT_THROW(bad.validate(), std::invalid_argument);
}

TEST(RandomGenome, DrawsEveryGeneFromTheSearchSpaceInAPinnedOrder) {
  const auto in = [](const auto& choices, int v) {
    return std::find(choices.begin(), choices.end(), v) != choices.end();
  };
  Rng rng(9);
  const std::vector<int> shifts = {1, 3};
  for (int i = 0; i < 200; ++i) {
    const Genome plain = random_genome(3, rng);
    const Genome shifted = random_genome(3, rng, shifts);
    EXPECT_TRUE(plain.acc_shift.empty());
    ASSERT_EQ(shifted.acc_shift.size(), 3U);
    for (const Genome* g : {&plain, &shifted}) {
      ASSERT_EQ(g->weight_bits.size(), 3U);
      for (std::size_t li = 0; li < 3; ++li) {
        EXPECT_GE(g->weight_bits[li], kMinWeightBits);
        EXPECT_LE(g->weight_bits[li], kMaxWeightBits);
        EXPECT_TRUE(in(kSparsityChoices, g->sparsity_pct[li]));
        EXPECT_TRUE(in(kClusterChoices, g->clusters[li]));
      }
    }
    for (int t : shifted.acc_shift) EXPECT_TRUE(in(shifts, t));
  }
  // Per layer: bits, sparsity, clusters, then the truncation gene.  The
  // search, the paper reproduction's proxy-fidelity designs and
  // micro_bench's batch draw this way, so a reordering would move fronts,
  // BENCH_paper.txt and micro_bench's mean accuracy.
  Rng pinned(1234);
  EXPECT_EQ(random_genome(2, pinned).key(), "b5,8|s60,0|c8,8");
  EXPECT_EQ(random_genome(2, pinned, {0, 1, 2, 3, 4}).key(), "b5,8|s0,50|c0,8|t0,2");
}

TEST(FastNonDominatedSort, RanksSimpleFronts) {
  // Minimize both objectives.
  const std::vector<std::array<double, 2>> objs = {
      {1.0, 4.0},  // front 0
      {4.0, 1.0},  // front 0
      {2.0, 2.0},  // front 0
      {3.0, 3.0},  // front 1 (dominated by {2,2})
      {5.0, 5.0},  // front 2 (dominated by {3,3} and others)
  };
  const auto fronts = fast_non_dominated_sort(objs);
  ASSERT_EQ(fronts.size(), 3U);
  const std::vector<std::size_t> f0 = {0, 1, 2};
  auto sorted0 = fronts[0];
  std::sort(sorted0.begin(), sorted0.end());
  EXPECT_EQ(sorted0, f0);
  EXPECT_EQ(fronts[1], (std::vector<std::size_t>{3}));
  EXPECT_EQ(fronts[2], (std::vector<std::size_t>{4}));
}

TEST(FastNonDominatedSort, AllIncomparableSingleFront) {
  std::vector<std::array<double, 2>> objs;
  for (int i = 0; i < 10; ++i) {
    objs.push_back({static_cast<double>(i), static_cast<double>(10 - i)});
  }
  const auto fronts = fast_non_dominated_sort(objs);
  ASSERT_EQ(fronts.size(), 1U);
  EXPECT_EQ(fronts[0].size(), 10U);
}

TEST(FastNonDominatedSort, TotallyOrderedChain) {
  std::vector<std::array<double, 2>> objs;
  for (int i = 0; i < 5; ++i) {
    objs.push_back({static_cast<double>(i), static_cast<double>(i)});
  }
  const auto fronts = fast_non_dominated_sort(objs);
  ASSERT_EQ(fronts.size(), 5U);
  for (std::size_t f = 0; f < 5; ++f) {
    ASSERT_EQ(fronts[f].size(), 1U);
    EXPECT_EQ(fronts[f][0], f);
  }
}

TEST(FastNonDominatedSort, EveryIndexAppearsExactlyOnce) {
  std::vector<std::array<double, 2>> objs;
  Rng rng(1);
  for (int i = 0; i < 64; ++i) objs.push_back({rng.uniform(), rng.uniform()});
  const auto fronts = fast_non_dominated_sort(objs);
  std::vector<int> seen(64, 0);
  for (const auto& front : fronts) {
    for (std::size_t idx : front) seen[idx]++;
  }
  for (int count : seen) EXPECT_EQ(count, 1);
}

TEST(FastNonDominatedSort, RankZeroIsActuallyNonDominated) {
  std::vector<std::array<double, 2>> objs;
  Rng rng(2);
  for (int i = 0; i < 50; ++i) objs.push_back({rng.uniform(), rng.uniform()});
  const auto fronts = fast_non_dominated_sort(objs);
  for (std::size_t p : fronts[0]) {
    for (std::size_t q = 0; q < objs.size(); ++q) {
      const bool dominated = objs[q][0] <= objs[p][0] && objs[q][1] <= objs[p][1] &&
                             (objs[q][0] < objs[p][0] || objs[q][1] < objs[p][1]);
      EXPECT_FALSE(dominated);
    }
  }
}

TEST(CrowdingDistance, BoundaryPointsAreInfinite) {
  const std::vector<std::array<double, 2>> objs = {
      {0.0, 3.0}, {1.0, 2.0}, {2.0, 1.0}, {3.0, 0.0}};
  const std::vector<std::size_t> front = {0, 1, 2, 3};
  const auto dist = crowding_distances(objs, front);
  EXPECT_TRUE(std::isinf(dist[0]));
  EXPECT_TRUE(std::isinf(dist[3]));
  EXPECT_FALSE(std::isinf(dist[1]));
  EXPECT_FALSE(std::isinf(dist[2]));
}

TEST(CrowdingDistance, DenserRegionsScoreLower) {
  // Three interior points: one isolated, two close together.
  const std::vector<std::array<double, 2>> objs = {
      {0.0, 10.0}, {1.0, 9.0}, {1.2, 8.8}, {5.0, 5.0}, {10.0, 0.0}};
  const std::vector<std::size_t> front = {0, 1, 2, 3, 4};
  const auto dist = crowding_distances(objs, front);
  EXPECT_GT(dist[3], dist[1]);
  EXPECT_GT(dist[3], dist[2]);
}

TEST(CrowdingDistance, TinyFrontsAllInfinite) {
  const std::vector<std::array<double, 2>> objs = {{0.0, 1.0}, {1.0, 0.0}};
  const auto dist = crowding_distances(objs, {0, 1});
  EXPECT_TRUE(std::isinf(dist[0]));
  EXPECT_TRUE(std::isinf(dist[1]));
}

/// Analytic toy problem: accuracy = sum(bits)/max, area = sum(bits)^2.
/// The true Pareto front is the whole bits range; NSGA-II must spread
/// across it and never return a dominated design.
TEST(Nsga2, FrontIsNonDominatedAndSpreads) {
  GaConfig cfg;
  cfg.population = 24;
  cfg.generations = 12;
  const std::size_t n_layers = 2;
  FunctionEvaluator eval([](const Genome& g) {
    const double bits = static_cast<double>(
        std::accumulate(g.weight_bits.begin(), g.weight_bits.end(), 0));
    return GenomeFitness{bits / 16.0, bits * bits};
  });
  Rng rng(3);
  const auto result = nsga2_search(cfg, n_layers, eval, rng);
  ASSERT_FALSE(result.front.empty());
  for (const auto& a : result.front) {
    for (const auto& b : result.front) {
      const bool dom = b.fitness.accuracy >= a.fitness.accuracy &&
                       b.fitness.area_mm2 <= a.fitness.area_mm2 &&
                       (b.fitness.accuracy > a.fitness.accuracy ||
                        b.fitness.area_mm2 < a.fitness.area_mm2);
      EXPECT_FALSE(dom);
    }
  }
  // Spread: both cheap and accurate extremes are represented.
  double min_area = 1e18, max_acc = 0.0;
  for (const auto& m : result.front) {
    min_area = std::min(min_area, m.fitness.area_mm2);
    max_acc = std::max(max_acc, m.fitness.accuracy);
  }
  EXPECT_LE(min_area, 5.0 * 16.0);  // near the all-min-bits corner
  EXPECT_GE(max_acc, 0.9);          // near the all-max-bits corner
}

/// On a problem with one sweet spot, the GA must find it.
TEST(Nsga2, FindsKnownOptimum) {
  GaConfig cfg;
  cfg.population = 40;
  cfg.generations = 30;
  // Single-objective disguised: accuracy peaks at bits == 5 exactly,
  // area constant, so the non-dominated set contains the optimum.
  FunctionEvaluator eval([](const Genome& g) {
    double acc = 1.0;
    for (int b : g.weight_bits) acc -= 0.1 * std::fabs(b - 5);
    for (int s : g.sparsity_pct) acc -= 0.005 * s;
    return GenomeFitness{acc, 1.0};
  });
  Rng rng(4);
  const auto result = nsga2_search(cfg, 2, eval, rng);
  ASSERT_FALSE(result.front.empty());
  // The highest-accuracy member of the front must be the true optimum.
  const auto best = *std::max_element(
      result.front.begin(), result.front.end(),
      [](const EvaluatedGenome& a, const EvaluatedGenome& b) {
        return a.fitness.accuracy < b.fitness.accuracy;
      });
  for (int b : best.genome.weight_bits) EXPECT_EQ(b, 5);
  for (int s : best.genome.sparsity_pct) EXPECT_EQ(s, 0);
}

TEST(Nsga2, CachesDuplicateGenomes) {
  GaConfig cfg;
  cfg.population = 16;
  cfg.generations = 10;
  std::size_t calls = 0;
  FunctionEvaluator eval([&calls](const Genome& g) {
    ++calls;
    return GenomeFitness{static_cast<double>(g.weight_bits[0]), 1.0};
  });
  Rng rng(5);
  const auto result = nsga2_search(cfg, 1, eval, rng);
  EXPECT_EQ(calls, result.evaluations);
  // The 1-layer space has only 7*8*6 genomes; with caching we cannot have
  // evaluated more than that.
  EXPECT_LE(result.evaluations, static_cast<std::size_t>(kMaxWeightBits - kMinWeightBits + 1) *
                                    kSparsityChoices.size() * kClusterChoices.size());
}

TEST(Nsga2, FinalPopulationHasTheConfiguredSize) {
  GaConfig cfg;
  cfg.population = 8;
  cfg.generations = 6;
  FunctionEvaluator eval([](const Genome& g) {
    return GenomeFitness{0.5, static_cast<double>(g.weight_bits[0])};
  });
  Rng rng(6);
  const auto result = nsga2_search(cfg, 1, eval, rng);
  EXPECT_EQ(result.population.size(), 8U);
}

TEST(Nsga2, DeterministicGivenSeed) {
  GaConfig cfg;
  cfg.population = 12;
  cfg.generations = 5;
  FunctionEvaluator eval([](const Genome& g) {
    double area = 0.0;
    for (int b : g.weight_bits) area += b;
    return GenomeFitness{1.0 - 0.01 * area, area};
  });
  Rng rng1(7), rng2(7);
  const auto r1 = nsga2_search(cfg, 2, eval, rng1);
  const auto r2 = nsga2_search(cfg, 2, eval, rng2);
  ASSERT_EQ(r1.front.size(), r2.front.size());
  for (std::size_t i = 0; i < r1.front.size(); ++i) {
    EXPECT_EQ(r1.front[i].genome, r2.front[i].genome);
  }
}

TEST(Nsga2, RejectsBadArguments) {
  GaConfig cfg;
  Rng rng(8);
  FunctionEvaluator eval([](const Genome&) { return GenomeFitness{}; });
  EXPECT_THROW(nsga2_search(cfg, 0, eval, rng), std::invalid_argument);
}

}  // namespace
}  // namespace pnm
