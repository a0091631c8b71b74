#include "pnm/util/rng.hpp"

#include <cmath>
#include <numeric>
#include <stdexcept>

namespace pnm {
namespace {

std::uint64_t splitmix64(std::uint64_t& x) {
  x += 0x9E3779B97F4A7C15ULL;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

std::uint64_t rotl(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}

}  // namespace

Rng::Rng(std::uint64_t seed) {
  std::uint64_t sm = seed;
  for (auto& s : s_) s = splitmix64(sm);
  // A zero state would be a fixed point of xoshiro; splitmix64 cannot
  // produce four zeros from any seed, but keep the guard explicit.
  if ((s_[0] | s_[1] | s_[2] | s_[3]) == 0) s_[0] = 1;
}

std::uint64_t Rng::next_u64() {
  const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

double Rng::uniform() {
  // 53 high bits -> double in [0, 1).
  return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }

std::uint64_t Rng::uniform_int(std::uint64_t n) {
  if (n == 0) throw std::invalid_argument("Rng::uniform_int: n must be > 0");
  // Rejection sampling to avoid modulo bias: draws at or above `limit` are
  // redrawn.  limit >= 2^64 - n, so any draw below 2^64 - n is accepted
  // without computing it, and the division for `limit` runs only for the
  // top n values (probability n / 2^64).
  std::uint64_t r = next_u64();
  if (r >= std::uint64_t{0} - n) {
    const std::uint64_t limit = ~std::uint64_t{0} - (~std::uint64_t{0} % n);
    while (r >= limit) r = next_u64();
  }
  return r % n;
}

int Rng::uniform_int(int lo, int hi) {
  if (lo > hi) throw std::invalid_argument("Rng::uniform_int: lo > hi");
  const auto span = static_cast<std::uint64_t>(hi) - static_cast<std::uint64_t>(lo) + 1;
  return lo + static_cast<int>(uniform_int(span));
}

double Rng::normal() {
  if (has_spare_normal_) {
    has_spare_normal_ = false;
    return spare_normal_;
  }
  double u, v, s;
  do {
    u = uniform(-1.0, 1.0);
    v = uniform(-1.0, 1.0);
    s = u * u + v * v;
  } while (s >= 1.0 || s == 0.0);
  const double mul = std::sqrt(-2.0 * std::log(s) / s);
  spare_normal_ = v * mul;
  has_spare_normal_ = true;
  return u * mul;
}

double Rng::normal(double mean, double stddev) { return mean + stddev * normal(); }

bool Rng::bernoulli(double p) { return uniform() < p; }

Rng Rng::split() { return Rng(next_u64()); }

std::vector<std::size_t> random_permutation(std::size_t n, Rng& rng) {
  std::vector<std::size_t> perm(n);
  std::iota(perm.begin(), perm.end(), std::size_t{0});
  rng.shuffle(perm);
  return perm;
}

}  // namespace pnm
