#ifndef PNM_PNM_HPP
#define PNM_PNM_HPP

/// \file pnm.hpp
/// \brief Umbrella header for the printed-neural-minimization library.
///
/// Pulls in the full public API.  Most applications only need
/// pnm/core/flow.hpp (the end-to-end MinimizationFlow) plus pnm/hw for
/// circuit export; include this header when convenience beats compile
/// time.
///
/// Library layout:
///  * pnm/nn    — float MLP substrate (training, metrics)
///  * pnm/data  — datasets: synthetic UCI analogs, CSV, splits, scaling
///  * pnm/core  — the paper's contribution: quantization/QAT, pruning,
///                weight clustering, integer golden model, Pareto tools,
///                the composable Evaluator backends (proxy/netlist/
///                cached/parallel), the persistent evaluation store, the
///                hardware-aware NSGA-II, MinimizationFlow, and the
///                ScenarioRunner that runs GA campaigns and scenario grids
///  * pnm/hw    — bespoke printed hardware: netlists, EGT technology,
///                constant multipliers, circuit generation, analysis,
///                Verilog/testbench export
///  * pnm/util  — deterministic RNG, bit helpers, text tables, thread
///                pool, file/serialization helpers

#include "pnm/core/campaign.hpp"
#include "pnm/core/cluster.hpp"
#include "pnm/core/eval.hpp"
#include "pnm/core/eval_store.hpp"
#include "pnm/core/flow.hpp"
#include "pnm/core/ga.hpp"
#include "pnm/core/pareto.hpp"
#include "pnm/core/prune.hpp"
#include "pnm/core/qmlp.hpp"
#include "pnm/core/quantize.hpp"
#include "pnm/core/scenario.hpp"
#include "pnm/data/csv.hpp"
#include "pnm/data/dataset.hpp"
#include "pnm/data/scaler.hpp"
#include "pnm/data/synth.hpp"
#include "pnm/hw/arith.hpp"
#include "pnm/hw/bespoke.hpp"
#include "pnm/hw/constmult.hpp"
#include "pnm/hw/csd.hpp"
#include "pnm/hw/netlist.hpp"
#include "pnm/hw/proxy.hpp"
#include "pnm/hw/report.hpp"
#include "pnm/hw/tech.hpp"
#include "pnm/hw/verilog.hpp"
#include "pnm/nn/activation.hpp"
#include "pnm/nn/matrix.hpp"
#include "pnm/nn/metrics.hpp"
#include "pnm/nn/mlp.hpp"
#include "pnm/nn/trainer.hpp"
#include "pnm/util/bits.hpp"
#include "pnm/util/fileio.hpp"
#include "pnm/util/rng.hpp"
#include "pnm/util/table.hpp"
#include "pnm/util/thread_pool.hpp"

#endif  // PNM_PNM_HPP
