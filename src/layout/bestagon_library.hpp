/// \file bestagon_library.hpp
/// \brief The *Bestagon* gate library: dot-accurate hexagonal standard tiles
///        for SiDB logic (contribution (2) of the paper).
///
/// Every tile is 60 lattice columns x 24 dimer rows (23.04 nm x 18.43 nm) of
/// H-Si(100)-2x1 surface. Input BDL wires enter at the NW/NE ports (column
/// 15/45, rows 1-2), outputs leave at the SW/SE ports (column 15/45, rows
/// 21-22); the logic design canvas sits in the center. Canvas dot positions
/// were produced by the automatic gate designer (the stand-in for the
/// paper's RL agent [28]) and frozen here; each design carries a flag that
/// states whether it passed the ground-state operational check at the
/// paper's parameters (mu = -0.32 eV, eps_r = 5.6, lambda_TF = 5 nm).

#pragma once

#include "layout/coordinates.hpp"
#include "logic/network.hpp"
#include "phys/operational.hpp"

#include <optional>
#include <string>
#include <vector>

namespace bestagon::layout
{

/// Tile geometry constants (see DESIGN.md section 3).
inline constexpr int tile_columns = 60;  ///< lattice columns per tile
inline constexpr int tile_rows = 24;     ///< dimer rows per tile

/// One dot-accurate standard tile.
struct GateImplementation
{
    logic::GateType type{logic::GateType::buf};
    std::optional<Port> in_a;
    std::optional<Port> in_b;
    std::optional<Port> out_a;
    std::optional<Port> out_b;
    phys::GateDesign design;          ///< tile-local coordinates
    bool simulation_validated{false}; ///< passed check_operational at mu=-0.32
};

/// The Bestagon standard-tile library.
class BestagonLibrary
{
  public:
    /// The library singleton (designs are immutable constants).
    static const BestagonLibrary& instance();

    /// Finds the implementation for a gate type with the given port usage.
    /// Returns nullptr if the combination is not offered.
    [[nodiscard]] const GateImplementation* lookup(logic::GateType type, std::optional<Port> in_a,
                                                   std::optional<Port> in_b, std::optional<Port> out_a,
                                                   std::optional<Port> out_b) const;

    /// The dedicated crossing tile (two diagonal wires in one tile).
    [[nodiscard]] const GateImplementation& crossing() const { return crossing_; }

    /// All implementations (for validation sweeps / Fig. 5).
    [[nodiscard]] const std::vector<GateImplementation>& all() const { return gates_; }

  private:
    BestagonLibrary();
    std::vector<GateImplementation> gates_;
    GateImplementation crossing_;
};

// --- tile skeletons -----------------------------------------------------------
// The port geometry of the standard tiles in tile-local coordinates: BDL port
// pairs, wire segments, input drivers and output perturbers. The library's
// designs and tools/design_gates both build on these; a designed canvas is
// appended to a skeleton's sites.

/// NW / NE input: port BDL pair plus two tilted pairs descending to the canvas.
void add_input_nw(phys::GateDesign& d);
void add_input_ne(phys::GateDesign& d);

/// SW / SE output: two tilted pairs plus the port BDL pair.
void add_output_sw(phys::GateDesign& d);
void add_output_se(phys::GateDesign& d);

/// Two-input gate (inputs NW+NE, output SE) computing \p function (binary,
/// MSB first).
[[nodiscard]] phys::GateDesign two_input_skeleton(const std::string& name, const std::string& function);

/// Straight inverter (NW -> SW): vertical input and output chains, column 15.
[[nodiscard]] phys::GateDesign inverter_skeleton();

/// Diagonal inverter (NW -> SE).
[[nodiscard]] phys::GateDesign diagonal_inverter_skeleton();

/// Fan-out (NW -> SW + SE).
[[nodiscard]] phys::GateDesign fanout_skeleton();

/// Mirrors a site across the tile's vertical center line.
[[nodiscard]] phys::SiDBSite mirror_site(const phys::SiDBSite& s);

/// Mirrors a whole design (NW <-> NE, SW <-> SE).
[[nodiscard]] phys::GateDesign mirror_design(const phys::GateDesign& d);

}  // namespace bestagon::layout
