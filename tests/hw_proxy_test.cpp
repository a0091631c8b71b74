/// Tests for the analytic area proxy: it must *rank* designs like the
/// exact netlist does (that is all the GA needs) and stay within a sane
/// multiplicative band.

#include "pnm/hw/proxy.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "pnm/core/cluster.hpp"
#include "pnm/core/flow.hpp"
#include "pnm/core/ga.hpp"
#include "pnm/core/prune.hpp"

namespace pnm::hw {
namespace {

QuantizedMlp make_design(const std::vector<std::size_t>& topology, int bits,
                         double sparsity, int clusters, std::uint64_t seed) {
  pnm::Rng rng(seed);
  pnm::Mlp net(topology, rng);
  if (sparsity > 0.0) pnm::magnitude_prune_global(net, sparsity);
  if (clusters > 0) {
    pnm::Rng crng(seed + 1);
    pnm::cluster_weights(net, std::vector<int>(net.layer_count(), clusters), crng);
  }
  return QuantizedMlp::from_float(net, pnm::QuantSpec::uniform(net.layer_count(), bits, 4));
}

/// Spearman rank correlation.
double rank_correlation(std::vector<double> a, std::vector<double> b) {
  auto ranks = [](std::vector<double> v) {
    std::vector<std::size_t> idx(v.size());
    for (std::size_t i = 0; i < v.size(); ++i) idx[i] = i;
    std::sort(idx.begin(), idx.end(), [&v](std::size_t x, std::size_t y) {
      return v[x] < v[y];
    });
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

TEST(Proxy, PositiveForAnyDesign) {
  const auto q = make_design({6, 5, 4}, 6, 0.0, 0, 1);
  EXPECT_GT(estimate_area_mm2(q, TechLibrary::egt()), 0.0);
}

TEST(Proxy, MonotoneInBitWidth) {
  const auto& tech = TechLibrary::egt();
  double prev = 1e18;
  for (int bits : {8, 6, 4, 2}) {
    const double est = estimate_area_mm2(make_design({8, 6, 4}, bits, 0.0, 0, 2), tech);
    EXPECT_LT(est, prev) << "bits=" << bits;
    prev = est;
  }
}

TEST(Proxy, MonotoneInSparsity) {
  const auto& tech = TechLibrary::egt();
  const double dense = estimate_area_mm2(make_design({8, 6, 4}, 6, 0.0, 0, 3), tech);
  const double sparse = estimate_area_mm2(make_design({8, 6, 4}, 6, 0.5, 0, 3), tech);
  EXPECT_LT(sparse, dense);
}

TEST(Proxy, ClusteringReducesEstimate) {
  const auto& tech = TechLibrary::egt();
  const double plain = estimate_area_mm2(make_design({8, 8, 5}, 7, 0.0, 0, 4), tech);
  const double clustered = estimate_area_mm2(make_design({8, 8, 5}, 7, 0.0, 2, 4), tech);
  EXPECT_LT(clustered, plain);
}

TEST(Proxy, TracksExactAreaWithinBand) {
  const auto& tech = TechLibrary::egt();
  for (std::uint64_t seed = 10; seed < 16; ++seed) {
    const auto q = make_design({8, 6, 5}, 5, 0.3, 0, seed);
    const double exact = BespokeCircuit(q).area_mm2(tech);
    const double est = estimate_area_mm2(q, tech);
    EXPECT_GT(est, 0.35 * exact) << "seed=" << seed;
    EXPECT_LT(est, 2.5 * exact) << "seed=" << seed;
  }
}

TEST(Proxy, RankCorrelationWithExactAreaIsHigh) {
  const auto& tech = TechLibrary::egt();
  std::vector<double> exact, est;
  // A spread of designs across the GA's search space.
  const std::vector<std::tuple<int, double, int>> configs = {
      {2, 0.0, 0}, {3, 0.2, 0}, {4, 0.0, 4}, {4, 0.4, 0}, {5, 0.0, 0},
      {5, 0.5, 2}, {6, 0.0, 3}, {6, 0.3, 0}, {7, 0.0, 0}, {7, 0.6, 4},
      {8, 0.0, 0}, {8, 0.2, 2}, {3, 0.6, 2}, {2, 0.4, 3}, {6, 0.5, 6},
  };
  for (std::size_t i = 0; i < configs.size(); ++i) {
    const auto& [bits, sparsity, clusters] = configs[i];
    const auto q = make_design({11, 8, 7}, bits, sparsity, clusters, 100 + i);
    exact.push_back(BespokeCircuit(q).area_mm2(tech));
    est.push_back(estimate_area_mm2(q, tech));
  }
  EXPECT_GT(rank_correlation(exact, est), 0.9);
}

TEST(Proxy, SubexpressionSharingReducesEstimate) {
  // The GA fitness must see the MCM savings: with sharing on, the proxy
  // estimate drops for designs with coefficient overlap and never rises.
  const auto& tech = TechLibrary::egt();
  BespokeOptions mcm;
  mcm.share_subexpressions = true;
  for (std::uint64_t seed = 40; seed < 46; ++seed) {
    const auto q = make_design({8, 8, 5}, 8, 0.0, 0, seed);
    const double plain = estimate_area_mm2(q, tech, BespokeOptions{});
    const double shared = estimate_area_mm2(q, tech, mcm);
    EXPECT_LE(shared, plain) << "seed=" << seed;
  }
  // Dense 8-bit columns overlap heavily: strictly smaller somewhere.
  const auto q = make_design({6, 10, 5}, 8, 0.0, 0, 47);
  EXPECT_LT(estimate_area_mm2(q, tech, mcm), estimate_area_mm2(q, tech, BespokeOptions{}));
}

/// Satellite requirement: proxy-vs-exact correlation with sharing on and
/// off — the proxy must keep ranking like the real generator in both
/// modes, and stay within the multiplicative band.
class ProxySharingFidelity : public ::testing::TestWithParam<bool> {};

TEST_P(ProxySharingFidelity, TracksExactAreaAndRanksDesigns) {
  const bool share = GetParam();
  BespokeOptions options;
  options.share_subexpressions = share;
  const auto& tech = TechLibrary::egt();
  std::vector<double> exact, est;
  const std::vector<std::tuple<int, double, int>> configs = {
      {2, 0.0, 0}, {3, 0.2, 0}, {4, 0.0, 4}, {4, 0.4, 0}, {5, 0.0, 0},
      {5, 0.5, 2}, {6, 0.0, 3}, {6, 0.3, 0}, {7, 0.0, 0}, {7, 0.6, 4},
      {8, 0.0, 0}, {8, 0.2, 2}, {3, 0.6, 2}, {2, 0.4, 3}, {6, 0.5, 6},
  };
  for (std::size_t i = 0; i < configs.size(); ++i) {
    const auto& [bits, sparsity, clusters] = configs[i];
    const auto q = make_design({11, 8, 7}, bits, sparsity, clusters, 200 + i);
    const double ex = BespokeCircuit(q, options).area_mm2(tech);
    const double pr = estimate_area_mm2(q, tech, options);
    // The multiplicative band is calibrated for the paper's working
    // precisions; 2-3 bit designs collapse to near-trivial circuits where
    // only the ranking matters (checked below across all configs).
    if (bits >= 4) {
      EXPECT_GT(pr, 0.35 * ex) << "share=" << share << " i=" << i;
      EXPECT_LT(pr, 2.5 * ex) << "share=" << share << " i=" << i;
    }
    exact.push_back(ex);
    est.push_back(pr);
  }
  EXPECT_GT(rank_correlation(exact, est), 0.9) << "share=" << share;
}

INSTANTIATE_TEST_SUITE_P(SharingOnAndOff, ProxySharingFidelity, ::testing::Bool());

TEST(Proxy, RespectsSharingOption) {
  const auto q = make_design({8, 8, 5}, 7, 0.0, 2, 20);
  const auto& tech = TechLibrary::egt();
  BespokeOptions shared;
  BespokeOptions unshared;
  unshared.share_products = false;
  EXPECT_LT(estimate_area_mm2(q, tech, shared), estimate_area_mm2(q, tech, unshared));
}

/// estimate_area_mm2's exact bits on realized GA models of one fixed flow
/// (seeds, seed 5, 2 fine-tune epochs), each priced with shared products,
/// with unshared products, and with shared subexpressions (MCM).  The
/// values come from the set-based pricing the flat seen-array replaced,
/// so any change to what the proxy sums, or to the order it sums in,
/// fails here.
TEST(Proxy, PinnedAreaBitsOnRealizedModels) {
  constexpr double kExpected[8][3] = {
      {0x1.46b573eab3679p+7, 0x1.662e147ae147bp+7, 0x1.46b573eab3679p+7},  // b8,4|s0,20|c3,3|t0,0
      {0x1.fc58adab9f559p+6, 0x1.20fe0ded288cdp+7, 0x1.fc58adab9f559p+6},  // b6,8|s40,30|c6,2|t1,1
      {0x1.4477318fc5048p+5, 0x1.4477318fc5048p+5, 0x1.4477318fc5048p+5},  // b4,7|s70,70|c3,8|t1,2
      {0x1.23f6c8b43957fp+7, 0x1.29fd8adab9f53p+7, 0x1.13e4c2f837b48p+7},  // b7,8|s50,30|c8,0|t0,2
      {0x1.dd16872b020c3p+5, 0x1.e6765fd8adab9p+5, 0x1.ce5b573eab367p+5},  // b5,6|s60,60|c6,8|t2,2
      {0x1.b4b5dcc63f13fp+6, 0x1.bcbedfa43fe5ap+6, 0x1.aeaf1a9fbe76ap+6},  // b6,5|s50,0|c8,6|t1,1
      {0x1.64f34d6a161e5p+6, 0x1.8d205bc01a36ep+6, 0x1.50dcc63f1412p+6},  // b5,8|s70,10|c8,2|t1,2
      {0x1.a03d70a3d70a3p+5, 0x1.a03d70a3d70a3p+5, 0x1.a03d70a3d70a3p+5},  // b3,6|s20,60|c6,0|t0,2
  };
  pnm::FlowConfig config;
  config.dataset_name = "seeds";
  config.seed = 5;
  pnm::MinimizationFlow flow(config);
  flow.prepare();
  pnm::Rng rng(77);
  BespokeOptions shared;
  BespokeOptions unshared;
  unshared.share_products = false;
  BespokeOptions mcm;
  mcm.share_subexpressions = true;
  for (const auto& expected : kExpected) {
    const pnm::Genome genome =
        pnm::random_genome(flow.float_model().layer_count(), rng, {0, 1, 2});
    const QuantizedMlp q = flow.realize_genome(genome, 2);
    SCOPED_TRACE(genome.key());
    EXPECT_EQ(estimate_area_mm2(q, flow.tech(), shared), expected[0]);
    EXPECT_EQ(estimate_area_mm2(q, flow.tech(), unshared), expected[1]);
    EXPECT_EQ(estimate_area_mm2(q, flow.tech(), mcm), expected[2]);
  }
}

}  // namespace
}  // namespace pnm::hw
