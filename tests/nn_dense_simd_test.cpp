/// Tests for nn/dense_simd.hpp: the determinism contract (every compiled
/// vector table agrees bit-for-bit with the scalar semantics on every
/// kernel, the softmax and fake-quantizer also with their per-lane and
/// llround references) and the minibatch backprop path's equivalence to
/// the per-sample reference (tests/trainer_reference.hpp) within float
/// tolerance (different reduction orders, so near-equality — the
/// accuracy-neutral contract).

#include "pnm/nn/dense_simd.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "pnm/data/dataset.hpp"
#include "pnm/nn/mlp.hpp"
#include "pnm/nn/trainer.hpp"
#include "pnm/util/rng.hpp"
#include "trainer_reference.hpp"

namespace pnm {
namespace {

constexpr std::size_t kB = simd::kDenseBlock;

std::vector<double> random_vec(Rng& rng, std::size_t n, double scale = 1.0) {
  std::vector<double> v(n);
  for (auto& e : v) e = rng.normal() * scale;
  return v;
}

/// Bit-level equality: NaN-free inputs here, so == is exact and a mismatch
/// message shows the values.
void expect_bits_equal(const std::vector<double>& a, const std::vector<double>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i], b[i]) << "lane " << i;
  }
}

/// Every vector table compiled into this binary and runnable on this CPU.
std::vector<const simd::DenseKernels*> native_tables() {
  std::vector<const simd::DenseKernels*> tables;
  for (simd::Isa isa : {simd::Isa::kAvx2, simd::Isa::kNeon}) {
    const simd::DenseKernels* t = simd::dense_kernels_for(isa);
    if (t != nullptr && simd::isa_available(isa)) tables.push_back(t);
  }
  return tables;
}

TEST(DenseSimd, ScalarTableAlwaysPresent) {
  ASSERT_NE(simd::dense_kernels_for(simd::Isa::kScalar), nullptr);
  // dense_kernels() must resolve to something callable in any build.
  const auto& k = simd::dense_kernels();
  ASSERT_NE(k.dot, nullptr);
  ASSERT_NE(k.layer_fwd, nullptr);
  ASSERT_NE(k.softmax_xent, nullptr);
  ASSERT_NE(k.fake_quantize, nullptr);
}

TEST(DenseSimd, DotBitIdenticalAcrossTables) {
  const auto* scalar = simd::dense_kernels_for(simd::Isa::kScalar);
  Rng rng(7);
  for (const auto* table : native_tables()) {
    for (std::size_t n : {1u, 2u, 3u, 4u, 5u, 7u, 8u, 16u, 31u, 64u, 67u}) {
      const std::vector<double> a = random_vec(rng, n);
      const std::vector<double> b = random_vec(rng, n);
      EXPECT_EQ(scalar->dot(a.data(), b.data(), n), table->dot(a.data(), b.data(), n))
          << "dot n=" << n;
    }
  }
}

TEST(DenseSimd, AdamKernelBitIdenticalAcrossTables) {
  const auto* scalar = simd::dense_kernels_for(simd::Isa::kScalar);
  Rng rng(11);
  simd::AdamStep step;
  step.bias_corr1 = 1.0 - std::pow(step.beta1, 7.0);
  step.bias_corr2 = 1.0 - std::pow(step.beta2, 7.0);
  step.lr = 3e-3;
  for (const auto* table : native_tables()) {
    for (std::size_t n : {1u, 3u, 4u, 6u, 8u, 29u, 64u}) {
      const std::vector<double> g = random_vec(rng, n);
      std::vector<double> w0 = random_vec(rng, n), w1 = w0;
      std::vector<double> m0 = random_vec(rng, n, 0.1), m1 = m0;
      std::vector<double> v0 = random_vec(rng, n, 0.01), v1 = v0;
      for (auto& e : v0) e = std::abs(e);
      v1 = v0;
      scalar->adam(w0.data(), g.data(), m0.data(), v0.data(), n, step);
      table->adam(w1.data(), g.data(), m1.data(), v1.data(), n, step);
      expect_bits_equal(w0, w1);
      expect_bits_equal(m0, m1);
      expect_bits_equal(v0, v1);
    }
  }
}

/// Bit-level identity that also accepts two NaNs (whose payloads may
/// legitimately differ between instruction sequences) and distinguishes
/// +0.0 from -0.0.
bool same_value(double a, double b) {
  if (std::isnan(a) || std::isnan(b)) return std::isnan(a) && std::isnan(b);
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

void expect_same_values(const std::vector<double>& a, const std::vector<double>& b,
                        const std::string& what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_TRUE(same_value(a[i], b[i])) << what << " [" << i << "]: " << a[i] << " vs " << b[i];
  }
}

/// ReLU outputs for the fused backward gradient: mostly positive, some
/// exact zeros, some negative (any value <= 0 clears the gradient).
std::vector<double> relu_post(Rng& rng, std::size_t n) {
  std::vector<double> v = random_vec(rng, n);
  for (std::size_t i = 0; i < n; i += 5) v[i] = 0.0;
  return v;
}

TEST(DenseSimd, MinibatchLayerKernelsBitIdenticalAcrossTables) {
  const auto* scalar = simd::dense_kernels_for(simd::Isa::kScalar);
  Rng rng(13);
  for (const auto* table : native_tables()) {
    for (std::size_t nb : {1u, 2u, 3u, 4u}) {
      for (std::size_t rows : {1u, 2u, 3u, 5u, 7u, 10u}) {
        for (std::size_t cols : {1u, 3u, 4u, 6u, 9u, 16u}) {
          const std::string shape = "nb=" + std::to_string(nb) + " rows=" +
                                    std::to_string(rows) + " cols=" + std::to_string(cols);
          const std::vector<double> w = random_vec(rng, rows * cols);
          const std::vector<double> bias = random_vec(rng, rows);
          const std::vector<double> in = random_vec(rng, nb * cols * kB);
          const std::vector<double> delta = random_vec(rng, nb * rows * kB);
          const std::vector<double> post = relu_post(rng, nb * cols * kB);

          for (bool relu : {false, true}) {
            std::vector<double> out0(nb * rows * kB), out1(nb * rows * kB);
            scalar->layer_fwd(w.data(), bias.data(), in.data(), out0.data(), rows, cols, nb,
                              relu);
            table->layer_fwd(w.data(), bias.data(), in.data(), out1.data(), rows, cols, nb,
                             relu);
            expect_same_values(out0, out1, "fwd " + shape);
          }

          // Stale contents must be overwritten, not accumulated into.
          const double s = 1.0 / static_cast<double>(nb * kB);
          std::vector<double> gw0 = random_vec(rng, rows * cols), gw1 = random_vec(rng, rows * cols);
          std::vector<double> gb0 = random_vec(rng, rows), gb1 = random_vec(rng, rows);
          scalar->layer_grad(delta.data(), in.data(), gw0.data(), gb0.data(), rows, cols, nb, s);
          table->layer_grad(delta.data(), in.data(), gw1.data(), gb1.data(), rows, cols, nb, s);
          expect_same_values(gw0, gw1, "grad w " + shape);
          expect_same_values(gb0, gb1, "grad b " + shape);

          for (const double* p : {static_cast<const double*>(nullptr), post.data()}) {
            // Stale contents must be overwritten, not accumulated into.
            std::vector<double> prev0 = random_vec(rng, nb * cols * kB), prev1 = prev0;
            scalar->layer_back(w.data(), delta.data(), p, prev0.data(), rows, cols, nb);
            table->layer_back(w.data(), delta.data(), p, prev1.data(), rows, cols, nb);
            expect_same_values(prev0, prev1, "back " + shape);
          }
        }
      }
    }
  }
}

/// The canonical 8-lane reduction, spelled out: chains q_j = p_j + p_{j+4}
/// combined as (q0+q1)+(q2+q3).
double sum8_reference(const double* p) {
  return ((p[0] + p[4]) + (p[1] + p[5])) + ((p[2] + p[6]) + (p[3] + p[7]));
}

/// The documented per-element order, spelled out independently of the
/// tables: forward is bias plus a c-ascending chain, backward a
/// r-ascending chain from +0.0 with the ReLU mask, and the gradient's
/// scaled store equals zeroing, adding each block's canonical sum8 in
/// block order, then scaling.
TEST(DenseSimd, MinibatchLayerKernelsFollowDocumentedOrder) {
  const auto* scalar = simd::dense_kernels_for(simd::Isa::kScalar);
  Rng rng(17);
  constexpr std::size_t nb = 3, rows = 5, cols = 6;
  const std::vector<double> w = random_vec(rng, rows * cols);
  const std::vector<double> bias = random_vec(rng, rows);
  const std::vector<double> in = random_vec(rng, nb * cols * kB);
  const std::vector<double> delta = random_vec(rng, nb * rows * kB);
  const std::vector<double> post = relu_post(rng, nb * cols * kB);

  std::vector<double> out(nb * rows * kB), prev(nb * cols * kB);
  scalar->layer_fwd(w.data(), bias.data(), in.data(), out.data(), rows, cols, nb, true);
  scalar->layer_back(w.data(), delta.data(), post.data(), prev.data(), rows, cols, nb);
  for (std::size_t b = 0; b < nb; ++b) {
    for (std::size_t j = 0; j < kB; ++j) {
      for (std::size_t r = 0; r < rows; ++r) {
        double acc = bias[r];
        for (std::size_t c = 0; c < cols; ++c) acc += w[r * cols + c] * in[(b * cols + c) * kB + j];
        EXPECT_TRUE(same_value(out[(b * rows + r) * kB + j], acc > 0.0 ? acc : 0.0));
      }
      for (std::size_t c = 0; c < cols; ++c) {
        double acc = 0.0;
        for (std::size_t r = 0; r < rows; ++r) acc += w[r * cols + c] * delta[(b * rows + r) * kB + j];
        const std::size_t at = (b * cols + c) * kB + j;
        EXPECT_TRUE(same_value(prev[at], post[at] <= 0.0 ? 0.0 : acc));
      }
    }
  }

  // Zero, accumulate block by block, scale: the three passes the store
  // replaces.  One delta row is all -0.0 products, whose sum8 is -0.0, so
  // the +0.0 start shows.
  std::vector<double> neg_delta = delta;
  for (std::size_t b = 0; b < nb; ++b) {
    for (std::size_t j = 0; j < kB; ++j) neg_delta[(b * rows + 1) * kB + j] = -0.0;
  }
  const double s = 1.0 / 24.0;
  std::vector<double> gw_ref(rows * cols, 0.0), gb_ref(rows, 0.0);
  for (std::size_t b = 0; b < nb; ++b) {
    for (std::size_t r = 0; r < rows; ++r) {
      const double* dv = neg_delta.data() + (b * rows + r) * kB;
      gb_ref[r] += sum8_reference(dv);
      for (std::size_t c = 0; c < cols; ++c) {
        double p[kB];
        for (std::size_t j = 0; j < kB; ++j) p[j] = dv[j] * in[(b * cols + c) * kB + j];
        gw_ref[r * cols + c] += sum8_reference(p);
      }
    }
  }
  for (double& g : gw_ref) g *= s;
  for (double& g : gb_ref) g *= s;
  EXPECT_TRUE(same_value(gb_ref[1], 0.0));
  std::vector<const simd::DenseKernels*> tables = native_tables();
  tables.push_back(scalar);
  for (const auto* table : tables) {
    std::vector<double> gw(rows * cols, 0.25), gb(rows, -0.5);
    table->layer_grad(neg_delta.data(), in.data(), gw.data(), gb.data(), rows, cols, nb, s);
    expect_same_values(gw, gw_ref, "grad w vs zero + accumulate + scale");
    expect_same_values(gb, gb_ref, "grad b vs zero + accumulate + scale");
  }
}

/// The live-column gradient stores, on every table, that table's
/// layer_grad elements at the live weights, packed, and its bias
/// gradients: row r of a layer holds r live columns at random positions,
/// so row lengths run from 0 to cols, through every partial 4-wide and
/// 2-wide group.
TEST(DenseSimd, LiveColumnGradientEqualsLayerGradOnEveryTable) {
  std::vector<const simd::DenseKernels*> tables = native_tables();
  tables.push_back(simd::dense_kernels_for(simd::Isa::kScalar));
  Rng rng(41);
  for (std::size_t nb : {1u, 3u, 4u}) {
    for (std::size_t cols : {1u, 5u, 10u, 16u}) {
      const std::size_t rows = cols + 1;
      const std::string shape = "nb=" + std::to_string(nb) + " cols=" + std::to_string(cols);
      const std::vector<double> in = random_vec(rng, nb * cols * kB);
      const std::vector<double> delta = random_vec(rng, nb * rows * kB);
      std::vector<std::size_t> row_begin = {0};
      std::vector<std::size_t> col;
      for (std::size_t r = 0; r < rows; ++r) {
        std::vector<std::size_t> pick(cols);
        for (std::size_t c = 0; c < cols; ++c) pick[c] = c;
        rng.shuffle(pick);
        pick.resize(r);
        std::sort(pick.begin(), pick.end());
        col.insert(col.end(), pick.begin(), pick.end());
        row_begin.push_back(col.size());
      }
      const double s = 1.0 / static_cast<double>(nb * kB);
      for (const auto* table : tables) {
        std::vector<double> gw_dense(rows * cols), gb_dense(rows);
        table->layer_grad(delta.data(), in.data(), gw_dense.data(), gb_dense.data(), rows, cols,
                          nb, s);
        std::vector<double> want(col.size());
        for (std::size_t r = 0; r < rows; ++r) {
          for (std::size_t k = row_begin[r]; k < row_begin[r + 1]; ++k) {
            want[k] = gw_dense[r * cols + col[k]];
          }
        }
        // Stale contents must be overwritten, not accumulated into.
        std::vector<double> gw = random_vec(rng, col.size()), gb = random_vec(rng, rows);
        table->layer_grad_live(delta.data(), in.data(), gw.data(), gb.data(), rows, cols, nb, s,
                               row_begin.data(), col.data());
        expect_same_values(gw, want, "live grad w " + shape);
        expect_same_values(gb, gb_dense, "live grad b " + shape);
      }
    }
  }
}

/// SoA logits for n samples in ceil(n/8) blocks of `rows` classes.
struct SoftmaxCase {
  std::size_t n;
  std::size_t rows;
  std::vector<double> logits;
  std::vector<unsigned long> labels;
};

SoftmaxCase softmax_case(Rng& rng, std::size_t n, std::size_t rows, double span) {
  SoftmaxCase c{n, rows, {}, {}};
  const std::size_t blocks = (n + kB - 1) / kB;
  c.logits = random_vec(rng, blocks * rows * kB, span);
  for (std::size_t i = 0; i < n; ++i) c.labels.push_back((i * 7 + 3) % rows);
  return c;
}

double& logit(SoftmaxCase& c, std::size_t sample, std::size_t r) {
  return c.logits[(sample / kB) * c.rows * kB + r * kB + sample % kB];
}

/// Softmax edge cases for every n and row count in 1..40 (partial blocks,
/// and row counts on both sides of the AVX2 kernel's 4- and 2-row exp
/// groups): tied maxima (including a -0.0/+0.0 tie), logit gaps past
/// kFastExpUnderflow, and infinite logits.
std::vector<SoftmaxCase> softmax_cases() {
  Rng rng(19);
  std::vector<SoftmaxCase> cases;
  for (std::size_t n = 1; n <= 40; ++n) {
    for (std::size_t rows = 1; rows <= 40; ++rows) {
      cases.push_back(softmax_case(rng, n, rows, 3.0));
      if (rows < 2) continue;
      SoftmaxCase tied = softmax_case(rng, n, rows, 3.0);
      for (std::size_t i = 0; i < n; ++i) {
        logit(tied, i, rows - 1) = logit(tied, i, 0) = 5.0;
      }
      if (rows >= 3) {
        logit(tied, 0, 0) = -0.0;
        logit(tied, 0, 1) = 0.0;
        logit(tied, 0, 2) = -1.0;
      }
      cases.push_back(tied);
      SoftmaxCase gap = softmax_case(rng, n, rows, 3.0);
      for (std::size_t i = 0; i < n; ++i) logit(gap, i, i % rows) = -900.0 - static_cast<double>(i);
      cases.push_back(gap);
      SoftmaxCase inf = softmax_case(rng, n, rows, 3.0);
      logit(inf, 0, 0) = -std::numeric_limits<double>::infinity();
      if (n > 1) logit(inf, n - 1, rows - 1) = std::numeric_limits<double>::infinity();
      cases.push_back(inf);
    }
  }
  for (std::size_t n : {13u, 20u, 32u}) cases.push_back(softmax_case(rng, n, 10, 8.0));
  return cases;
}

TEST(DenseSimd, SoftmaxKernelMatchesPerLaneReferenceOnEveryTable) {
  std::vector<const simd::DenseKernels*> tables = native_tables();
  tables.push_back(simd::dense_kernels_for(simd::Isa::kScalar));
  for (const SoftmaxCase& c : softmax_cases()) {
    const std::string what = "n=" + std::to_string(c.n) + " rows=" + std::to_string(c.rows);
    // Reference: the per-sample fast softmax gradient on each gathered
    // lane, and 0.0 in every padding lane.
    const std::size_t blocks = (c.n + kB - 1) / kB;
    std::vector<double> want_delta(blocks * c.rows * kB, 0.0);
    std::vector<double> lane(c.rows), grad;
    for (std::size_t b = 0; b < blocks; ++b) {
      for (std::size_t j = 0; j < kB && b * kB + j < c.n; ++j) {
        for (std::size_t r = 0; r < c.rows; ++r) lane[r] = c.logits[(b * c.rows + r) * kB + j];
        reference::softmax_grad_fast(lane, c.labels[b * kB + j], grad);
        for (std::size_t r = 0; r < c.rows; ++r) want_delta[(b * c.rows + r) * kB + j] = grad[r];
      }
    }
    for (const auto* table : tables) {
      std::vector<double> delta(want_delta.size(), 7.0);
      table->softmax_xent(c.logits.data(), c.labels.data(), c.n, c.rows, delta.data());
      expect_same_values(delta, want_delta, "softmax delta " + what);
    }
  }
}

/// HEAD-era QAT arithmetic: clamp(llround(w / scale)) * scale through an
/// integer code, so a zero code is +0.0.
double llround_reference(double w, double scale, int qmax) {
  const auto q = static_cast<long>(std::llround(w / scale));
  return static_cast<double>(static_cast<int>(std::clamp<long>(q, -qmax, qmax))) * scale;
}

TEST(DenseSimd, FakeQuantizeMatchesLlroundOnEveryTable) {
  std::vector<const simd::DenseKernels*> tables = native_tables();
  tables.push_back(simd::dense_kernels_for(simd::Isa::kScalar));
  Rng rng(23);
  struct Case {
    std::string name;
    std::vector<double> w;
    double scale;
    int qmax;
  };
  std::vector<Case> cases;
  // Exact ties: scale is a power of two, so w / scale is exactly k + 0.5.
  Case ties{"ties", {}, 0.25, 7};
  for (int k = -8; k <= 8; ++k) {
    ties.w.push_back((k + 0.5) * 0.25);
    ties.w.push_back((k - 0.5) * 0.25);
    ties.w.push_back(k * 0.25);
  }
  cases.push_back(ties);
  // Clamps at +-qmax, from just inside to far outside the range.
  Case clamps{"clamps", {}, 0.125, 3};
  for (double v : {3.0, 3.49, 3.5, 3.51, 4.0, 100.0}) {
    clamps.w.push_back(v * 0.125);
    clamps.w.push_back(-v * 0.125);
  }
  cases.push_back(clamps);
  cases.push_back({"zeros", std::vector<double>(13, 0.0), 0.5, 127});
  cases.push_back({"negative zeros", std::vector<double>(7, -0.0), 0.5, 127});
  for (int bits : {2, 3, 4, 8, 16}) {
    const int qmax = (1 << (bits - 1)) - 1;
    for (std::size_t n : {1u, 3u, 4u, 7u, 29u}) {
      std::vector<double> w = random_vec(rng, n, 0.3);
      double amax = 0.0;
      for (double v : w) amax = std::max(amax, std::abs(v));
      cases.push_back({"random b" + std::to_string(bits), w, amax / qmax, qmax});
    }
  }
  for (const Case& c : cases) {
    std::vector<double> want(c.w.size());
    for (std::size_t i = 0; i < c.w.size(); ++i) want[i] = llround_reference(c.w[i], c.scale, c.qmax);
    for (const auto* table : tables) {
      std::vector<double> got(c.w.size(), 9.0);
      table->fake_quantize(c.w.data(), got.data(), c.w.size(), c.scale,
                           static_cast<double>(c.qmax));
      expect_same_values(got, want, "fake_quantize " + c.name);
      std::vector<double> inplace = c.w;  // dst may alias src
      table->fake_quantize(inplace.data(), inplace.data(), inplace.size(), c.scale,
                           static_cast<double>(c.qmax));
      expect_same_values(inplace, want, "fake_quantize in place " + c.name);
    }
  }
}

/// The gather writes the documented blocked layout on every table: rows
/// taken from separate allocations in the caller's order, every feature
/// of every sample (the AVX2 kernel's 4x4 transposes and its feature and
/// sample tails), -0.0 copied as is, and +0.0 in exactly the last
/// block's padding lanes.
TEST(DenseSimd, GatherWritesBlockedLayoutOnEveryTable) {
  std::vector<const simd::DenseKernels*> tables = native_tables();
  tables.push_back(simd::dense_kernels_for(simd::Isa::kScalar));
  Rng rng(43);
  for (std::size_t n : {1u, 3u, 5u, 8u, 13u, 18u, 32u, 33u}) {
    for (std::size_t cols : {1u, 3u, 4u, 7u, 16u}) {
      const std::string what = "n=" + std::to_string(n) + " cols=" + std::to_string(cols);
      std::vector<std::vector<double>> data(n + 3);
      for (auto& row : data) row = random_vec(rng, cols);
      data[2][cols - 1] = -0.0;
      std::vector<const double*> rows(n);
      for (std::size_t i = 0; i < n; ++i) rows[i] = data[(i * 5 + 2) % data.size()].data();
      const std::size_t blocks = (n + kB - 1) / kB;
      std::vector<double> want(blocks * cols * kB);
      for (std::size_t b = 0; b < blocks; ++b) {
        for (std::size_t c = 0; c < cols; ++c) {
          for (std::size_t j = 0; j < kB; ++j) {
            const std::size_t i = b * kB + j;
            want[(b * cols + c) * kB + j] = i < n ? rows[i][c] : 0.0;
          }
        }
      }
      for (const auto* table : tables) {
        std::vector<double> got(want.size(), -0.0);  // stale contents
        table->gather(rows.data(), n, cols, got.data());
        expect_same_values(got, want, "gather " + what);
      }
    }
  }
}

TEST(DenseSimd, ForceAndResetSwitchTables) {
  simd::force_dense_kernels(simd::Isa::kScalar);
  EXPECT_EQ(&simd::dense_kernels(), simd::dense_kernels_for(simd::Isa::kScalar));
  simd::reset_dense_kernels();
  const simd::DenseKernels* active = simd::dense_kernels_for(simd::active_isa());
  if (active == nullptr) active = simd::dense_kernels_for(simd::Isa::kScalar);
  EXPECT_EQ(&simd::dense_kernels(), active);
}

Dataset random_dataset(Rng& rng, std::size_t n) {
  Dataset data;
  data.name = "minibatch-vs-sample";
  data.n_classes = 3;
  for (std::size_t i = 0; i < n; ++i) {
    data.x.push_back(random_vec(rng, 5));
    data.y.push_back(i % 3);
  }
  return data;
}

/// The minibatch path and the per-sample path reduce in different orders,
/// so they agree to float tolerance, not bit-for-bit (the accuracy-neutral
/// contract) — including for partial blocks, whose padding lanes must
/// contribute exactly nothing.
TEST(DenseSimd, MinibatchBackpropMatchesPerSampleWithinTolerance) {
  Rng rng(29);
  Mlp model({5, 6, 4, 3}, rng);
  const Dataset data = random_dataset(rng, 40);

  for (std::size_t n : {1u, 3u, 8u, 13u, 32u}) {
    std::vector<std::size_t> idx(n);
    for (std::size_t i = 0; i < n; ++i) idx[i] = (i * 5 + 1) % data.x.size();

    Gradients ref = Gradients::zeros_like(model);
    reference::SampleScratch ref_scratch;
    for (std::size_t i = 0; i < n; ++i) {
      reference::backprop_sample(model, data.x[idx[i]], data.y[idx[i]],
                                 reference::Softmax::kFast, ref, ref_scratch);
    }

    Gradients blocked = Gradients::zeros_like(model);
    BlockBackpropScratch scratch;
    backprop_minibatch(model, data, idx.data(), n, 1.0, blocked, scratch);

    for (std::size_t li = 0; li < model.layer_count(); ++li) {
      const auto& rw = ref.w[li].raw();
      const auto& bw = blocked.w[li].raw();
      ASSERT_EQ(rw.size(), bw.size());
      for (std::size_t i = 0; i < rw.size(); ++i) {
        EXPECT_NEAR(bw[i], rw[i], 1e-9 * (1.0 + std::abs(rw[i])))
            << "layer " << li << " w[" << i << "] n " << n;
      }
      for (std::size_t r = 0; r < ref.b[li].size(); ++r) {
        EXPECT_NEAR(blocked.b[li][r], ref.b[li][r], 1e-9 * (1.0 + std::abs(ref.b[li][r])))
            << "layer " << li << " b[" << r << "] n " << n;
      }
    }
  }
}

/// One minibatch call is bit-identical to one call per 8-sample block: the
/// scaled gradient store equals the one-block gradients summed from +0.0
/// in block order, then scaled.
TEST(DenseSimd, MinibatchBackpropEqualsBlockByBlock) {
  Rng rng(31);
  Mlp model({5, 6, 4, 3}, rng);
  const Dataset data = random_dataset(rng, 21);
  std::vector<std::size_t> idx(21);
  for (std::size_t i = 0; i < idx.size(); ++i) idx[i] = (i * 8 + 3) % idx.size();
  const double s = 1.0 / 21.0;

  Gradients whole = Gradients::zeros_like(model);
  BlockBackpropScratch scratch;
  backprop_minibatch(model, data, idx.data(), idx.size(), s, whole, scratch);
  Gradients split = Gradients::zeros_like(model);
  Gradients block = Gradients::zeros_like(model);
  for (std::size_t i = 0; i < idx.size(); i += kB) {
    backprop_minibatch(model, data, idx.data() + i, std::min(kB, idx.size() - i), 1.0, block,
                       scratch);
    for (std::size_t li = 0; li < model.layer_count(); ++li) {
      auto& w = split.w[li].raw();
      for (std::size_t k = 0; k < w.size(); ++k) w[k] += block.w[li].raw()[k];
      for (std::size_t r = 0; r < split.b[li].size(); ++r) split.b[li][r] += block.b[li][r];
    }
  }
  reference::scale(split, s);
  for (std::size_t li = 0; li < model.layer_count(); ++li) {
    expect_same_values(whole.w[li].raw(), split.w[li].raw(), "w layer " + std::to_string(li));
    expect_same_values(whole.b[li], split.b[li], "b layer " + std::to_string(li));
  }
}

TEST(DenseSimd, MinibatchBackpropRejectsOutOfRangeLabel) {
  Rng rng(37);
  Mlp model({5, 4, 3}, rng);
  Dataset data = random_dataset(rng, 4);
  data.y[2] = 3;
  const std::vector<std::size_t> idx = {0, 1, 2, 3};
  Gradients grads = Gradients::zeros_like(model);
  BlockBackpropScratch scratch;
  EXPECT_THROW(backprop_minibatch(model, data, idx.data(), idx.size(), 1.0, grads, scratch),
               std::invalid_argument);
}

}  // namespace
}  // namespace pnm
