/// \file design_rules.hpp
/// \brief Design-rule checking for hexagonal SiDB gate-level layouts
///        (contribution (3) of the paper).
///
/// Checked rules:
///  * structural connectivity: every used input port faces a neighbor whose
///    matching output port is also used, and vice versa;
///  * clocking: information flows into the successor clock phase only;
///  * border I/O: PIs in the top row, POs in the bottom row; a PI has at
///    most one output (none when nothing reads it);
///  * tile capacity: one gate or at most two wire segments per tile;
///  * gate port convention: two-input gates read NW+NE, fan-outs drive SW+SE;
///  * canvas separation: adjacent logic canvases keep >= 10 nm distance
///    (guaranteed by the standard-tile geometry; re-derived here);
///  * electrode pitch: super-tile bands meet the minimum metal pitch [54].

#pragma once

#include "layout/gate_level_layout.hpp"
#include "layout/supertile.hpp"

#include <string>
#include <vector>

namespace bestagon::layout
{

struct DrcViolation
{
    HexCoord tile;
    std::string rule;
    std::string message;
};

struct DrcReport
{
    std::vector<DrcViolation> violations;
    [[nodiscard]] bool clean() const noexcept { return violations.empty(); }
};

/// Runs all layout-level design-rule checks.
[[nodiscard]] DrcReport check_design_rules(const GateLevelLayout& layout);

/// Runs super-tile/electrode checks in addition to the layout checks.
[[nodiscard]] DrcReport check_design_rules(const SuperTileLayout& supertiles,
                                           const ElectrodeTechnology& tech = {});

/// Distance in nm between the logic-canvas centers of two tiles; the rule
/// requires >= 10 nm between canvases of adjacent tiles (Section 4.1).
[[nodiscard]] double canvas_center_distance_nm(HexCoord a, HexCoord b);

}  // namespace bestagon::layout
