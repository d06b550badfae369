#include "layout/design_rules.hpp"

#include "phys/lattice.hpp"

#include <cmath>

namespace bestagon::layout
{

namespace
{

using logic::GateType;

/// Physical origin (nm) of a tile: odd rows are shifted right by half a tile.
std::pair<double, double> tile_origin_nm(HexCoord c)
{
    const double w = 60.0 * phys::lattice_pitch_x;
    const double h = 24.0 * phys::lattice_pitch_y;
    const double x = c.x * w + ((c.y & 1) != 0 ? w / 2.0 : 0.0);
    const double y = c.y * h;
    return {x, y};
}

void check_tile(const GateLevelLayout& layout, HexCoord t, DrcReport& report)
{
    const auto& occs = layout.occupants(t);
    if (occs.empty())
    {
        return;
    }

    // capacity & composition
    if (occs.size() == 2 && (!occs[0].is_wire() || !occs[1].is_wire()))
    {
        report.violations.push_back({t, "capacity", "two occupants that are not both wires"});
    }

    for (const auto& occ : occs)
    {
        // port conventions
        const unsigned arity = gate_arity(occ.type);
        const unsigned num_in = (occ.in_a ? 1U : 0U) + (occ.in_b ? 1U : 0U);
        const unsigned num_out = (occ.out_a ? 1U : 0U) + (occ.out_b ? 1U : 0U);
        if (occ.type == GateType::pi)
        {
            if (t.y != 0)
            {
                report.violations.push_back({t, "border-io", "PI not in the top row"});
            }
            if (num_in != 0 || num_out > 1)
            {
                report.violations.push_back(
                    {t, "ports", "PI must have no inputs and at most one output"});
            }
        }
        else if (occ.type == GateType::po)
        {
            if (t.y != static_cast<std::int32_t>(layout.height()) - 1)
            {
                report.violations.push_back({t, "border-io", "PO not in the bottom row"});
            }
            if (num_in != 1 || num_out != 0)
            {
                report.violations.push_back({t, "ports", "PO must have one input and no outputs"});
            }
        }
        else if (occ.type == GateType::fanout)
        {
            if (num_in != 1 || num_out != 2)
            {
                report.violations.push_back({t, "ports", "fan-out must have one input and two outputs"});
            }
        }
        else if (num_in != arity || num_out != 1)
        {
            report.violations.push_back(
                {t, "ports", std::string{"gate "} + gate_type_name(occ.type) + " has wrong port usage"});
        }

        // connectivity + clocking of the outgoing connections
        for (const auto out : {occ.out_a, occ.out_b})
        {
            if (!out.has_value())
            {
                continue;
            }
            const auto nb = neighbor(t, *out);
            if (!layout.in_bounds(nb))
            {
                report.violations.push_back({t, "connectivity", "output port leaves the layout"});
                continue;
            }
            // the matching input port of the neighbor: our SE pairs with its
            // NW, our SW with its NE
            const Port expect = (*out == Port::se) ? Port::nw : Port::ne;
            bool matched = false;
            for (const auto& nocc : layout.occupants(nb))
            {
                if (nocc.in_a == expect || nocc.in_b == expect)
                {
                    matched = true;
                    break;
                }
            }
            if (!matched)
            {
                report.violations.push_back({t, "connectivity", "output port has no matching consumer"});
            }
            if (!feeds_next_phase(layout.scheme(), t, nb))
            {
                report.violations.push_back({t, "clocking", "connection does not enter the next phase"});
            }
        }

        // connectivity of the incoming connections: a used NW input pairs
        // with the NW neighbor's SE output, a used NE input with the NE
        // neighbor's SW output — otherwise the port dangles (reads noise)
        for (const auto in : {occ.in_a, occ.in_b})
        {
            if (!in.has_value())
            {
                continue;
            }
            const auto nb = neighbor(t, *in);
            if (!layout.in_bounds(nb))
            {
                report.violations.push_back(
                    {t, "connectivity", "input port reads from outside the layout"});
                continue;
            }
            const Port expect = (*in == Port::nw) ? Port::se : Port::sw;
            bool matched = false;
            for (const auto& nocc : layout.occupants(nb))
            {
                if (nocc.out_a == expect || nocc.out_b == expect)
                {
                    matched = true;
                    break;
                }
            }
            if (!matched)
            {
                report.violations.push_back(
                    {t, "connectivity", "input port has no matching driver"});
            }
        }
    }
}

}  // namespace

double canvas_center_distance_nm(HexCoord a, HexCoord b)
{
    const auto [ax, ay] = tile_origin_nm(a);
    const auto [bx, by] = tile_origin_nm(b);
    // the logic design canvas sits in the middle of the tile
    const double cw = 60.0 * phys::lattice_pitch_x / 2.0;
    const double ch = 24.0 * phys::lattice_pitch_y / 2.0;
    const double dx = (ax + cw) - (bx + cw);
    const double dy = (ay + ch) - (by + ch);
    return std::sqrt(dx * dx + dy * dy);
}

DrcReport check_design_rules(const GateLevelLayout& layout)
{
    DrcReport report;
    for (const auto& t : layout.all_tiles())
    {
        check_tile(layout, t, report);
    }

    // canvas separation between diagonally adjacent occupied tiles: the
    // canvases are ~8 nm tall and centered, so a center distance >= 18 nm
    // guarantees the >= 10 nm canvas gap of Section 4.1
    for (const auto& t : layout.all_tiles())
    {
        if (layout.is_empty(t))
        {
            continue;
        }
        for (const auto port : {Port::sw, Port::se})
        {
            const auto nb = neighbor(t, port);
            if (layout.in_bounds(nb) && !layout.is_empty(nb))
            {
                if (canvas_center_distance_nm(t, nb) < 18.0)
                {
                    report.violations.push_back({t, "canvas-separation", "canvases closer than 18 nm"});
                }
            }
        }
    }
    return report;
}

DrcReport check_design_rules(const SuperTileLayout& supertiles, const ElectrodeTechnology& tech)
{
    DrcReport report = check_design_rules(*supertiles.base);
    if (!supertiles.satisfies_pitch(tech))
    {
        report.violations.push_back(
            {HexCoord{0, 0}, "electrode-pitch",
             "super-tile band of " + std::to_string(supertiles.electrode_pitch_nm(tech)) +
                 " nm violates the minimum metal pitch"});
    }
    if (!supertiles.clocking_valid())
    {
        report.violations.push_back(
            {HexCoord{0, 0}, "clocking", "expanded clock zones are not feed-forward"});
    }
    return report;
}

}  // namespace bestagon::layout
