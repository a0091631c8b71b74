#ifndef PNM_CORE_CAMPAIGN_HPP
#define PNM_CORE_CAMPAIGN_HPP

/// \file campaign.hpp
/// \brief The evaluation-context fingerprint that names every persistent
///        EvalStore.
///
/// GA campaigns themselves are one-axis scenario grids: a
/// pnm::ScenarioSpec with the default topology, 4-bit inputs, the `egt`
/// node, no drifts and the fidelity pass off (a scenario_main spec file
/// with `fidelity off`), run by pnm::ScenarioRunner
/// (pnm/core/scenario.hpp).  This header keeps the one
/// piece both the runner and the repository benchmark key their stores
/// by.

#include <string>

#include "pnm/core/eval.hpp"
#include "pnm/core/flow.hpp"

namespace pnm {

/// Stable identity of one evaluation context, for EvalStore headers and
/// store file names.  Hashes every knob that can change an evaluation
/// result: the flow's dataset/seed/topology/training recipe, the eval
/// config (bits, fine-tune budget, sharing policy, bespoke options,
/// reporting split), the backend ("proxy"/"netlist"), and the store
/// format version.  Two contexts agree on the fingerprint iff their
/// stored results are interchangeable.
///
/// Caveat: dataset content is identified by (dataset_name, seed), which
/// is exact for the named synthetic datasets campaigns run on.  A flow
/// constructed with an explicitly-supplied Dataset (e.g. a custom CSV)
/// is NOT distinguished by its content — if you persist results for
/// such a flow, mix your own content hash (e.g. fnv1a64_hex over the
/// raw samples) into the dataset_name before fingerprinting.
///
/// \param flow     the cell's flow configuration (dataset, seed, recipe).
/// \param eval     the evaluation-side knobs (bits, budget, sharing).
/// \param backend  cost backend name ("proxy" or "netlist").
/// \return a 16-hex-digit whitespace-free token.
std::string eval_fingerprint(const FlowConfig& flow, const EvalConfig& eval,
                             const std::string& backend);

}  // namespace pnm

#endif  // PNM_CORE_CAMPAIGN_HPP
