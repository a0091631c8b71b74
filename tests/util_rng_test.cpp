/// Tests for pnm::Rng: determinism, distribution sanity, helpers.

#include "pnm/util/rng.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <set>

namespace pnm {
namespace {

TEST(Rng, SameSeedSameStream) {
  Rng a(123), b(123);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDifferentStreams) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) equal += (a.next_u64() == b.next_u64()) ? 1 : 0;
  EXPECT_LT(equal, 3);
}

TEST(Rng, ZeroSeedIsValid) {
  Rng rng(0);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 100; ++i) seen.insert(rng.next_u64());
  EXPECT_GT(seen.size(), 95U);  // not stuck
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(7);
  double lo = 1.0, hi = 0.0, sum = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    lo = std::min(lo, u);
    hi = std::max(hi, u);
    sum += u;
  }
  EXPECT_LT(lo, 0.01);
  EXPECT_GT(hi, 0.99);
  EXPECT_NEAR(sum / n, 0.5, 0.02);
}

TEST(Rng, UniformRangeRespectsBounds) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform(-3.5, 2.5);
    ASSERT_GE(u, -3.5);
    ASSERT_LT(u, 2.5);
  }
}

TEST(Rng, UniformIntCoversAllValuesUnbiased) {
  Rng rng(11);
  std::array<int, 5> counts{};
  const int n = 50000;
  for (int i = 0; i < n; ++i) counts[rng.uniform_int(std::uint64_t{5})]++;
  for (int c : counts) EXPECT_NEAR(c, n / 5, n / 50);
}

/// The rejection sampler before it skipped the division for draws that
/// are always accepted: limit = (2^64 - 1) - ((2^64 - 1) % n), redraw while
/// the draw is >= limit, then take it mod n.
std::uint64_t uniform_int_two_divisions(Rng& rng, std::uint64_t n, std::size_t& rejected) {
  const std::uint64_t limit = ~std::uint64_t{0} - (~std::uint64_t{0} % n);
  std::uint64_t r;
  while ((r = rng.next_u64()) >= limit) ++rejected;
  return r % n;
}

TEST(Rng, UniformIntDrawsLikeTheTwoDivisionForm) {
  const std::uint64_t top = ~std::uint64_t{0};
  const std::uint64_t half = std::uint64_t{1} << 63;
  for (const std::uint64_t n : {std::uint64_t{1}, std::uint64_t{2}, std::uint64_t{3},
                                std::uint64_t{7}, std::uint64_t{4496},
                                (std::uint64_t{1} << 32) + 1, half, half + 1, top - 1, top}) {
    for (const std::uint64_t seed : {1u, 2u, 97u, 12345u}) {
      Rng fast(seed);
      Rng reference(seed);
      std::size_t rejected = 0;
      for (int i = 0; i < 20000; ++i) {
        ASSERT_EQ(fast.uniform_int(n), uniform_int_two_divisions(reference, n, rejected))
            << "n " << n << " seed " << seed << " draw " << i;
      }
      // Both consumed the same draws, rejections included.
      EXPECT_EQ(fast.next_u64(), reference.next_u64()) << "n " << n << " seed " << seed;
      // n = 2^63 + 1 rejects every draw >= 2^64 - (2^63 - 1): about half.
      if (n == half + 1) {
        EXPECT_GT(rejected, 5000u) << "seed " << seed;
      }
    }
  }
}

TEST(Rng, UniformIntInclusiveRange) {
  Rng rng(13);
  std::set<int> seen;
  for (int i = 0; i < 1000; ++i) {
    const int v = rng.uniform_int(-2, 3);
    ASSERT_GE(v, -2);
    ASSERT_LE(v, 3);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 6U);  // all 6 values hit
}

TEST(Rng, UniformIntZeroThrows) {
  Rng rng(1);
  EXPECT_THROW(rng.uniform_int(std::uint64_t{0}), std::invalid_argument);
  EXPECT_THROW(rng.uniform_int(5, 4), std::invalid_argument);
}

TEST(Rng, NormalMomentsMatch) {
  Rng rng(17);
  const int n = 50000;
  double sum = 0.0, sum2 = 0.0;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal();
    sum += x;
    sum2 += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.03);
  EXPECT_NEAR(sum2 / n, 1.0, 0.05);
}

TEST(Rng, NormalWithParamsShiftsAndScales) {
  Rng rng(19);
  const int n = 20000;
  double sum = 0.0;
  for (int i = 0; i < n; ++i) sum += rng.normal(5.0, 0.5);
  EXPECT_NEAR(sum / n, 5.0, 0.05);
}

TEST(Rng, BernoulliFrequency) {
  Rng rng(23);
  int hits = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) hits += rng.bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.02);
}

TEST(Rng, ShuffleIsPermutation) {
  Rng rng(29);
  std::vector<int> v(100);
  for (int i = 0; i < 100; ++i) v[static_cast<std::size_t>(i)] = i;
  auto shuffled = v;
  rng.shuffle(shuffled);
  EXPECT_NE(shuffled, v);  // astronomically unlikely to be identity
  std::sort(shuffled.begin(), shuffled.end());
  EXPECT_EQ(shuffled, v);
}

TEST(Rng, RandomPermutationContainsAllIndices) {
  Rng rng(31);
  const auto perm = random_permutation(50, rng);
  std::set<std::size_t> seen(perm.begin(), perm.end());
  EXPECT_EQ(seen.size(), 50U);
  EXPECT_EQ(*seen.begin(), 0U);
  EXPECT_EQ(*seen.rbegin(), 49U);
}

TEST(Rng, SplitProducesIndependentStream) {
  Rng parent(37);
  Rng child = parent.split();
  // Child stream should differ from the parent's continuation.
  int equal = 0;
  for (int i = 0; i < 100; ++i) equal += (parent.next_u64() == child.next_u64()) ? 1 : 0;
  EXPECT_LT(equal, 3);
}

TEST(Rng, SplitIsDeterministic) {
  Rng a(41), b(41);
  Rng ca = a.split();
  Rng cb = b.split();
  for (int i = 0; i < 100; ++i) EXPECT_EQ(ca.next_u64(), cb.next_u64());
}

}  // namespace
}  // namespace pnm
