/// Fuzz target: the scenario spec parser and the published-cell parser.
///
/// A spec file either parses to a validate()d ScenarioSpec or throws
/// std::invalid_argument naming the offending line; any other exception
/// escapes and is a finding.  The same bytes then go to
/// parse_scenario_cell, which must return std::nullopt for anything
/// malformed, truncated, or fingerprint-mismatched.  The fingerprint is
/// taken from the input's own first line ("pnm-scenario-cell v2 <fp>"),
/// so mutations of a published .scell get past the header check and
/// reach the cell body.

#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>

#include "pnm/core/scenario.hpp"

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data, std::size_t size) {
  const std::string_view text(reinterpret_cast<const char*>(data), size);
  try {
    const pnm::ScenarioSpec spec = pnm::parse_scenario_spec(text);
    (void)spec;
  } catch (const std::invalid_argument&) {
    // Typed rejection is the expected outcome for malformed input.
  }

  const std::string_view header = text.substr(0, text.find('\n'));
  const std::size_t space = header.rfind(' ');
  const std::string cell_fp(space == std::string_view::npos ? std::string_view()
                                                            : header.substr(space + 1));
  const auto cell = pnm::parse_scenario_cell(text, cell_fp);
  (void)cell;
  return 0;
}
