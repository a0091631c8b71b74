#ifndef PNM_HW_NETLIST_HPP
#define PNM_HW_NETLIST_HPP

/// \file netlist.hpp
/// \brief Combinational gate-level netlist with on-the-fly logic
///        optimization, analysis and simulation.
///
/// This is the "synthesis back-end" of the reproduction: the bespoke MLP
/// generator emits gates through add_gate(), which performs the local
/// optimizations a logic synthesizer would — constant folding, operand
/// canonicalization, idempotence/annihilation rules, double-inverter
/// elimination, and structural hashing (common-subexpression reuse).
/// These rules are what make hard-wired zero and power-of-two coefficients
/// (the quantizer and pruner's output) nearly free in area, which is the
/// physical mechanism behind the paper's area savings.
///
/// The netlist is a DAG by construction: every gate input must already
/// exist, so gates are stored in topological order and simulation /
/// longest-path analysis are single forward passes.

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "pnm/hw/tech.hpp"

namespace pnm::hw {

/// Index of a single-bit net. Net 0 is constant 0, net 1 constant 1.
using NetId = std::int32_t;
inline constexpr NetId kConst0 = 0;
inline constexpr NetId kConst1 = 1;
inline constexpr NetId kInvalidNet = -1;

/// One gate instance; `b` is kInvalidNet for unary cells.
struct Gate {
  GateType type;
  NetId a = kInvalidNet;
  NetId b = kInvalidNet;
  NetId out = kInvalidNet;
};

/// A named primary input or output bit.
struct Port {
  std::string name;
  NetId net = kInvalidNet;
};

class Netlist {
 public:
  /// enable_cse = false turns off structural hashing (gate reuse) while
  /// keeping constant folding — used by the product-sharing ablation
  /// (BENCH_paper.txt, bench/reproduce) to model a naive per-connection
  /// datapath.
  explicit Netlist(bool enable_cse = true);

  // -- construction ---------------------------------------------------------

  /// Net carrying constant 0 or 1.
  [[nodiscard]] NetId constant(bool value) const { return value ? kConst1 : kConst0; }

  /// Declares a primary input bit and returns its net.
  NetId add_input(std::string name);

  /// Declares `width` input bits named name[0..width-1] (LSB first).
  std::vector<NetId> add_input_bus(const std::string& name, int width);

  /// Marks an existing net as a primary output.
  void mark_output(NetId net, std::string name);

  /// Attaches a human-readable label to a net — e.g. the bits of a shared
  /// MCM intermediate word ("l0_x3_t5[2]" = bit 2 of 5*x3 in layer 0).
  /// Purely informational: write_verilog emits labels as comments on the
  /// wire declarations so shared words are identifiable in the RTL.  The
  /// first label on a net wins (structural hashing can alias many words
  /// onto one net); constants are ignored.
  void set_net_label(NetId net, std::string label);
  [[nodiscard]] const std::unordered_map<NetId, std::string>& net_labels() const {
    return net_labels_;
  }

  /// Creates a gate (or reuses/folds). Returns the output net.  All local
  /// optimization happens here; see file comment.  Pass b = kInvalidNet
  /// for INV/BUF.
  NetId add_gate(GateType type, NetId a, NetId b = kInvalidNet);

  /// Creates a gate with NO optimization (unit tests of the raw fabric and
  /// deliberate buffering).
  NetId add_gate_raw(GateType type, NetId a, NetId b = kInvalidNet);

  /// Dead-code elimination: removes every gate whose output cannot reach a
  /// marked primary output (e.g. the high-order sum bits truncated away by
  /// exact-range refitting).  Returns a keep flag per *old* gate index so
  /// callers can remap side tables.  No-op (all kept) when no outputs are
  /// marked.  Invalidates the structural-hashing state, so call it only
  /// once construction is complete.
  std::vector<std::uint8_t> sweep_dead_gates();

  // -- inspection -----------------------------------------------------------

  [[nodiscard]] std::size_t gate_count() const { return gates_.size(); }
  [[nodiscard]] std::size_t net_count() const { return static_cast<std::size_t>(next_net_); }
  [[nodiscard]] const std::vector<Gate>& gates() const { return gates_; }
  [[nodiscard]] const std::vector<Port>& inputs() const { return inputs_; }
  [[nodiscard]] const std::vector<Port>& outputs() const { return outputs_; }

  /// Number of gates of each cell type (indexed by GateType).
  [[nodiscard]] std::array<std::size_t, kGateTypeCount> gate_histogram() const;

  // -- analysis ---------------------------------------------------------------

  /// Total cell area.
  [[nodiscard]] double area_mm2(const TechLibrary& tech) const;

  /// Total static power.
  [[nodiscard]] double power_uw(const TechLibrary& tech) const;

  /// Longest input-to-output combinational path delay.
  [[nodiscard]] double critical_path_ms(const TechLibrary& tech) const;

  // -- simulation -------------------------------------------------------------

  /// Evaluates the whole netlist for the given primary-input values
  /// (in add_input declaration order).  Returns a value per net, indexable
  /// by NetId.  Two-valued simulation; nets never written default to 0.
  [[nodiscard]] std::vector<std::uint8_t> simulate(
      const std::vector<std::uint8_t>& input_values) const;

  /// Convenience: simulate and read back the declared outputs in order.
  [[nodiscard]] std::vector<std::uint8_t> evaluate_outputs(
      const std::vector<std::uint8_t>& input_values) const;

 private:
  NetId fresh_net();
  NetId make_inverter(NetId a);

  // The structural-hashing table is the single hottest data structure of
  // circuit generation (every emitted gate probes it up to three times),
  // so it is a flat open-addressing map over the packed (type, a, b)
  // triple rather than a node-based std::unordered_map.  Same exact-match
  // semantics, a fraction of the probe cost.
  static std::uint64_t pack_gate_key(GateType type, NetId a, NetId b) {
    // type < 16; a, b are net ids (>= -1, dense), each fits 30 bits.
    return (static_cast<std::uint64_t>(type) << 60) |
           (static_cast<std::uint64_t>(static_cast<std::uint32_t>(a + 1)) << 30) |
           static_cast<std::uint64_t>(static_cast<std::uint32_t>(b + 1));
  }
  [[nodiscard]] NetId cse_find(std::uint64_t key) const;
  void cse_insert(std::uint64_t key, NetId out);
  void cse_grow();

  [[nodiscard]] NetId inverse_of(NetId n) const {
    return inverse_of_[static_cast<std::size_t>(n)];
  }

  bool enable_cse_ = true;
  NetId next_net_ = 0;
  std::vector<Gate> gates_;
  std::vector<Port> inputs_;
  std::vector<Port> outputs_;
  /// Open-addressing CSE table (linear probing, power-of-two capacity);
  /// kCseEmpty marks free slots.  Values are the reusable output nets.
  static constexpr std::uint64_t kCseEmpty = ~std::uint64_t{0};
  std::vector<std::uint64_t> cse_keys_;
  std::vector<NetId> cse_vals_;
  std::size_t cse_used_ = 0;
  /// net -> its inversion (kInvalidNet if none); dense ids make this a
  /// plain array lookup instead of a hash probe.
  std::vector<NetId> inverse_of_;
  std::unordered_map<NetId, std::string> net_labels_;
};

}  // namespace pnm::hw

#endif  // PNM_HW_NETLIST_HPP
