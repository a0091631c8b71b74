#include "pnm/hw/proxy.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <memory>
#include <vector>

#include "pnm/hw/mcm.hpp"
#include "pnm/util/bits.hpp"

namespace pnm::hw {
namespace {

/// Width in bits a value range needs (mirrors arith.cpp's sizing).
int range_width(std::int64_t lo, std::int64_t hi) {
  if (lo == 0 && hi == 0) return 0;
  if (lo >= 0) return bits_for_unsigned(static_cast<std::uint64_t>(hi));
  return bits_for_signed_range(lo, hi);
}

}  // namespace

double estimate_area_mm2(const QuantizedMlp& model, const TechLibrary& tech,
                         const BespokeOptions& options) {
  const double fa = tech.full_adder_area_mm2();
  const double and_a = tech.cell(GateType::kAnd2).area_mm2;
  const double or_a = tech.cell(GateType::kOr2).area_mm2;
  const double inv_a = tech.cell(GateType::kInv).area_mm2;
  const MultOptions mult_options{options.use_csd};

  double area = 0.0;
  // const_mult_adder_count per magnitude, memoized over the call (-1: not
  // yet counted), and the shared products a layer has priced.
  std::vector<int> adders_of;
  std::vector<bool> built;
  const std::int64_t xmax0 = unsigned_max(model.input_bits());
  std::vector<std::int64_t> in_hi(model.input_size(), xmax0);  // per-input max

  const auto preact_ranges = model.neuron_preact_ranges();
  for (std::size_t li = 0; li < model.layer_count(); ++li) {
    const auto& layer = model.layer(li);

    // Product stage: each distinct shift-add network.  An n-term CSD
    // multiplier of an x with max value X costs ~ (terms-1) adder rows of
    // the growing partial-sum width; approximate each row at the final
    // product width.  kProductRowFill is the mean fraction of a full FA
    // row that survives constant folding of the shifted zero LSBs
    // (calibrated against the exact generator; see BENCH_paper.txt's
    // proxy-fidelity ablation — the same constant fits the shared-DAG rows
    // because node words are priced at their own, narrower widths).
    constexpr double kProductRowFill = 0.62;
    if (options.share_subexpressions && options.share_products) {
      // Cross-coefficient sharing: price the per-column MCM DAG the
      // exact generator would lower (hw/mcm.hpp) — shared nodes at the
      // node word's width, residual sum rows at the product width.
      const auto col_mags = layer.column_magnitudes();
      for (std::size_t c = 0; c < layer.in_features(); ++c) {
        const std::vector<std::int64_t>& mags = col_mags[c];
        if (mags.empty()) continue;
        // Memoized: repeated columns (and re-evaluated genomes) reuse the
        // planned DAG instead of re-running the CSE search.
        const std::shared_ptr<const McmPlan> plan_ptr = plan_mcm_cached(mags, mult_options);
        const McmPlan& plan = *plan_ptr;
        for (const McmNode& node : plan.nodes) {
          const int nw = range_width(0, checked_mul(node.value, in_hi[c]));
          area += static_cast<double>(nw) * fa * kProductRowFill;
        }
        for (const auto& [coeff, terms] : plan.sums) {
          const int rows = static_cast<int>(terms.size()) - 1;
          if (rows <= 0) continue;
          const int pw = range_width(0, checked_mul(coeff, in_hi[c]));
          area += static_cast<double>(rows) * static_cast<double>(pw) * fa *
                  kProductRowFill;
        }
      }
    } else {
      const std::size_t mags =
          layer.w_mag.empty()
              ? 1
              : static_cast<std::size_t>(
                    *std::max_element(layer.w_mag.begin(), layer.w_mag.end())) + 1;
      if (adders_of.size() < mags) adders_of.resize(mags, -1);
      // Each (row, column) appears at most once in CSR, so only a shared
      // product (column, |w|) can repeat: built[c * mags + |w|] marks the
      // ones priced, and the first in CSR order pays.
      if (options.share_products) built.assign(layer.in_features() * mags, false);
      for (std::size_t r = 0; r < layer.out_features(); ++r) {
        for (std::size_t k = layer.row_offset[r]; k < layer.row_offset[r + 1]; ++k) {
          const std::size_t c = layer.w_col[k];
          const std::int64_t mag = layer.w_mag[k];
          if (options.share_products) {
            const std::size_t key = c * mags + static_cast<std::size_t>(mag);
            if (built[key]) continue;
            built[key] = true;
          }
          int& adders = adders_of[static_cast<std::size_t>(mag)];
          if (adders < 0) adders = const_mult_adder_count(mag, mult_options);
          if (adders == 0) continue;
          const int pw = range_width(0, checked_mul(mag, in_hi[c]));
          area += static_cast<double>(adders) * static_cast<double>(pw) * fa *
                  kProductRowFill;
        }
      }
    }

    // Accumulate stage: per neuron, one add/sub row per nonzero operand at
    // (roughly) the accumulator's final width; subtractions pay an extra
    // inverter per bit.
    for (std::size_t r = 0; r < layer.out_features(); ++r) {
      const auto range = preact_ranges[li][r];
      const int aw = range_width(range.lo, range.hi);
      const int n_ops = static_cast<int>(layer.row_offset[r + 1] - layer.row_offset[r]);
      int n_subs = 0;
      for (std::size_t k = layer.row_offset[r]; k < layer.row_offset[r + 1]; ++k) {
        if (layer.w_neg[k]) ++n_subs;
      }
      if (n_ops == 0) continue;
      area += static_cast<double>(n_ops) * static_cast<double>(aw) * fa * 0.8;
      area += static_cast<double>(n_subs) * static_cast<double>(aw) * inv_a;
      // ReLU mask: one AND per kept magnitude bit when the range straddles 0.
      if (layer.act == Activation::kRelu && range.lo < 0 && range.hi > 0) {
        area += static_cast<double>(range_width(0, range.hi)) * and_a + inv_a;
      }
    }

    // Update per-input maxima for the next layer.
    std::vector<std::int64_t> next_hi(layer.out_features(), 0);
    for (std::size_t r = 0; r < layer.out_features(); ++r) {
      const auto range = preact_ranges[li][r];
      next_hi[r] = layer.act == Activation::kRelu ? std::max<std::int64_t>(0, range.hi)
                                                  : range.hi;
    }
    in_hi = std::move(next_hi);
  }

  // Argmax: (C-1) comparators (a subtract row) + value mux + index mux.
  const auto& out_layer = model.layers().back();
  const auto& out_ranges = preact_ranges.back();
  std::int64_t span_lo = 0, span_hi = 0;
  for (const auto& range : out_ranges) {
    span_lo = std::min(span_lo, range.lo);
    span_hi = std::max(span_hi, range.hi);
  }
  const int ow = std::max(1, range_width(span_lo, span_hi));
  const double cmp = static_cast<double>(ow) * (fa * 0.9 + inv_a);
  const double mux_bit = 2.0 * and_a + or_a;
  const double val_mux = static_cast<double>(ow) * mux_bit;
  const int idx_w =
      std::max(1, bits_for_unsigned(static_cast<std::uint64_t>(out_layer.out_features() - 1)));
  const double idx_mux = static_cast<double>(idx_w) * mux_bit;
  area += static_cast<double>(out_layer.out_features() - 1) * (cmp + val_mux + idx_mux);

  return area;
}

}  // namespace pnm::hw
