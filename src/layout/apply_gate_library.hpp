/// \file apply_gate_library.hpp
/// \brief Application of the Bestagon library: turns a gate-level layout
///        into a dot-accurate SiDB layout (flow step 7).

#pragma once

#include "layout/bestagon_library.hpp"
#include "layout/gate_level_layout.hpp"
#include "layout/sidb_layout.hpp"

#include <string>

namespace bestagon::layout
{

struct ApplyStats
{
    std::size_t tiles_mapped{0};
    std::size_t crossings_mapped{0};
    std::size_t unvalidated_tiles{0};  ///< tiles whose design lacks simulation validation

    /// Distinct library implementations instantiated by the layout, in
    /// first-use order (pointers into the BestagonLibrary singleton). Lets
    /// the flow re-validate exactly the tiles a design depends on.
    std::vector<const GateImplementation*> implementations_used;
};

/// Maps every occupied tile of \p layout to its dot-accurate standard tile.
/// A PI without an out port (an input nothing reads) drives no wire and gets
/// no dots. Throws std::runtime_error if an occupant has no library
/// implementation.
[[nodiscard]] SiDBLayout apply_gate_library(const GateLevelLayout& layout, ApplyStats* stats = nullptr);

/// The tile's lattice origin: odd rows are shifted right by half a tile.
[[nodiscard]] phys::SiDBSite tile_origin(HexCoord c);

/// Logical layout area in nm^2 (w x h tiles at full tile size) — this is the
/// quantity reported in the paper's Table 1.
[[nodiscard]] double logical_area_nm2(const GateLevelLayout& layout);

}  // namespace bestagon::layout
