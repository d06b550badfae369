/// \file tech_mapping.hpp
/// \brief Technology mapping onto the Bestagon gate set (flow step 3) plus
///        network conversions (XAG, AIG) and fan-out substitution.
///
/// The Bestagon library offers all two-input standard gates (OR, AND, NOR,
/// NAND, XOR, XNOR), inverters, buffers/wires and 1-to-2 fan-out tiles. The
/// mapper folds free-standing inverters into compound gates and afterwards
/// makes every fan-out explicit, as required by tile-based physical design.

#pragma once

#include "logic/network.hpp"

namespace bestagon::logic
{

/// Converts any network into an XAG (gates restricted to AND2/XOR2/INV/BUF).
[[nodiscard]] LogicNetwork to_xag(const LogicNetwork& network);

/// Converts any network into an AIG (gates restricted to AND2/INV/BUF).
/// Used by the XAG-vs-AIG ablation that motivates the paper's choice of XAGs.
[[nodiscard]] LogicNetwork to_aig(const LogicNetwork& network);

struct MappingStats
{
    std::size_t inverters_folded{0};
    std::size_t fanouts_inserted{0};
};

/// Folds inverters into neighboring gates where the Bestagon library offers a
/// complementary gate: AND(~a,~b) -> NOR(a,b), OR(~a,~b) -> NAND(a,b),
/// INV(AND(a,b)) -> NAND(a,b), XOR with one complemented input -> XNOR, etc.
[[nodiscard]] LogicNetwork fold_inverters(const LogicNetwork& network, MappingStats* stats = nullptr);

/// Inserts explicit fan-out nodes so that every node's fan-out is <= 1
/// and every fan-out node drives exactly two consumers, as required by
/// Bestagon physical design. A fan-out node of the input with fewer than two
/// consumers is bypassed; one with more keeps two slots, each feeding a
/// balanced fan-out tree.
[[nodiscard]] LogicNetwork fanout_substitution(const LogicNetwork& network, MappingStats* stats = nullptr);

/// Complete mapping onto the Bestagon gate set: inverter folding followed by
/// fan-out substitution. The result satisfies is_bestagon_compliant().
[[nodiscard]] LogicNetwork map_to_bestagon(const LogicNetwork& network, MappingStats* stats = nullptr);

}  // namespace bestagon::logic
