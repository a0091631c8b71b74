#ifndef PNM_HW_PROXY_HPP
#define PNM_HW_PROXY_HPP

/// \file proxy.hpp
/// \brief Fast analytic area estimate used inside the GA inner loop.
///
/// Generating and costing the full gate-level netlist for every GA
/// candidate works but dominates search time; the paper's GA only needs a
/// *hardware-aware* fitness, i.e. a cost that ranks designs like the real
/// area does.  The proxy prices each construction stage of the bespoke
/// generator in full-adder-equivalent units derived from the same CSD
/// recoding and range analysis the generator uses:
///
///   product    ~ sum over distinct (input,|w|) of adders(|w|) * width
///                (with share_subexpressions: the per-column MCM plan's
///                node + residual-sum rows at their own widths, so the GA
///                fitness sees exactly the savings the generator realizes)
///   accumulate ~ per neuron, (nonzero operands) rows of accumulator width
///   activation ~ ReLU masks (AND per kept bit)
///   argmax     ~ (C-1) * (comparator + 2 muxes) of output width
///
/// The proxy-fidelity ablation of BENCH_paper.txt (bench/reproduce)
/// measures it against the exact netlist and checks the rank correlation,
/// which is what matters for the GA.

#include "pnm/core/qmlp.hpp"
#include "pnm/hw/bespoke.hpp"
#include "pnm/hw/tech.hpp"

namespace pnm::hw {

/// Estimated bespoke area of the quantized model, in mm^2 of the given
/// technology.  `options` should match the BespokeOptions the exact flow
/// would use (sharing/CSD) for the estimate to track it.
double estimate_area_mm2(const QuantizedMlp& model, const TechLibrary& tech,
                         const BespokeOptions& options = {});

}  // namespace pnm::hw

#endif  // PNM_HW_PROXY_HPP
