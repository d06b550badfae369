#include "layout/bestagon_library.hpp"

#include "logic/truth_table.hpp"

#include <algorithm>

namespace bestagon::layout
{

namespace
{

using logic::GateType;
using logic::TruthTable;
using phys::BDLPair;
using phys::GateDesign;
using phys::InputDriver;
using phys::SiDBSite;

/// Vertical input chain (1-input straight tiles), column 15.
void add_input_vertical(GateDesign& d)
{
    for (const int m : {1, 5, 9})
    {
        d.sites.push_back({15, m, 0});
        d.sites.push_back({15, m + 1, 0});
    }
    d.input_pairs.push_back(BDLPair{{15, 1, 0}, {15, 2, 0}});
    d.drivers.push_back(InputDriver{{15, -3, 0}, {15, -2, 0}});
}

/// Vertical output chain, column 15.
void add_output_vertical(GateDesign& d)
{
    for (const int m : {17, 21})
    {
        d.sites.push_back({15, m, 0});
        d.sites.push_back({15, m + 1, 0});
    }
    d.output_pairs.push_back(BDLPair{{15, 21, 0}, {15, 22, 0}});
    d.output_perturbers.push_back({15, 25, 1});
}

/// Appends a designed canvas to a skeleton.
GateDesign with_canvas(GateDesign d, std::initializer_list<SiDBSite> dots)
{
    d.sites.insert(d.sites.end(), dots.begin(), dots.end());
    return d;
}

[[nodiscard]] TruthTable tt(const char* bits)
{
    return TruthTable::from_binary(bits);
}

/// Full vertical wire NW->SW: six BDL pairs down column 15.
GateDesign make_vertical_wire()
{
    GateDesign d;
    d.name = "wire";
    for (int k = 0; k < 6; ++k)
    {
        const int m = 1 + 4 * k;
        d.sites.push_back({15, m, 0});
        d.sites.push_back({15, m + 1, 0});
    }
    d.input_pairs.push_back(BDLPair{{15, 1, 0}, {15, 2, 0}});
    d.output_pairs.push_back(BDLPair{{15, 21, 0}, {15, 22, 0}});
    d.drivers.push_back(InputDriver{{15, -3, 0}, {15, -2, 0}});
    d.output_perturbers.push_back({15, 25, 1});
    d.functions.push_back(tt("10"));
    return d;
}

/// Diagonal wire NW->SE: port pairs plus five tilted interior pairs
/// (axis (0.768 nm, 0.543 nm), empirically validated at both mu values).
GateDesign make_diagonal_wire()
{
    GateDesign d;
    d.name = "wire_diag";
    d.sites.push_back({15, 1, 0});
    d.sites.push_back({15, 2, 0});
    for (int i = 1; i <= 5; ++i)
    {
        const int c = 15 + 5 * i;
        const int m = 1 + (20 * i) / 6;
        d.sites.push_back({c, m, 1});
        d.sites.push_back({c + 2, m + 1, 0});
    }
    d.sites.push_back({45, 21, 0});
    d.sites.push_back({45, 22, 0});
    d.input_pairs.push_back(BDLPair{{15, 1, 0}, {15, 2, 0}});
    d.output_pairs.push_back(BDLPair{{45, 21, 0}, {45, 22, 0}});
    d.drivers.push_back(InputDriver{{15, -3, 0}, {15, -2, 0}});
    d.output_perturbers.push_back({45, 25, 1});
    d.functions.push_back(tt("10"));
    return d;
}

/// Crossing tile: the NW->SE diagonal chain plus the NE->SW chain shifted by
/// two rows so the two wires inter-digitate in the center.
GateDesign make_crossing()
{
    GateDesign d;
    d.name = "crossing";
    // chain A: NW -> SE (as in the diagonal wire)
    d.sites.push_back({15, 1, 0});
    d.sites.push_back({15, 2, 0});
    for (int i = 1; i <= 5; ++i)
    {
        const int c = 15 + 5 * i;
        const int m = 1 + (20 * i) / 6;
        d.sites.push_back({c, m, 1});
        d.sites.push_back({c + 2, m + 1, 0});
    }
    d.sites.push_back({45, 21, 0});
    d.sites.push_back({45, 22, 0});
    // chain B: NE -> SW, mirrored and shifted down two rows in the interior
    d.sites.push_back({45, 1, 0});
    d.sites.push_back({45, 2, 0});
    for (int i = 1; i <= 5; ++i)
    {
        const int c = 45 - 5 * i;
        const int m = 3 + (20 * i) / 6;
        d.sites.push_back({c, m, 1});
        d.sites.push_back({c - 2, m + 1, 0});
    }
    d.sites.push_back({15, 21, 0});
    d.sites.push_back({15, 22, 0});

    d.input_pairs.push_back(BDLPair{{15, 1, 0}, {15, 2, 0}});
    d.input_pairs.push_back(BDLPair{{45, 1, 0}, {45, 2, 0}});
    d.output_pairs.push_back(BDLPair{{15, 21, 0}, {15, 22, 0}});   // SW = input NE
    d.output_pairs.push_back(BDLPair{{45, 21, 0}, {45, 22, 0}});   // SE = input NW
    d.drivers.push_back(InputDriver{{15, -3, 0}, {15, -2, 0}});
    d.drivers.push_back(InputDriver{{45, -3, 0}, {45, -2, 0}});
    d.output_perturbers.push_back({15, 25, 1});
    d.output_perturbers.push_back({45, 25, 1});
    d.functions.push_back(tt("1100"));  // out SW follows input 1 (NE)
    d.functions.push_back(tt("1010"));  // out SE follows input 0 (NW)
    return d;
}

}  // namespace

// ---------------------------------------------------------------------------
// tile skeletons (tile-local coordinates; see bestagon_library.hpp)
// ---------------------------------------------------------------------------

void add_input_nw(GateDesign& d)
{
    for (const SiDBSite s : {SiDBSite{15, 1, 0}, {15, 2, 0}, {20, 4, 1}, {22, 5, 0}, {25, 7, 1}, {27, 8, 0}})
    {
        d.sites.push_back(s);
    }
    d.input_pairs.push_back(BDLPair{{15, 1, 0}, {15, 2, 0}});
    d.drivers.push_back(InputDriver{{15, -3, 0}, {15, -2, 0}});
}

void add_input_ne(GateDesign& d)
{
    for (const SiDBSite s : {SiDBSite{45, 1, 0}, {45, 2, 0}, {40, 4, 1}, {38, 5, 0}, {35, 7, 1}, {33, 8, 0}})
    {
        d.sites.push_back(s);
    }
    d.input_pairs.push_back(BDLPair{{45, 1, 0}, {45, 2, 0}});
    d.drivers.push_back(InputDriver{{45, -3, 0}, {45, -2, 0}});
}

void add_output_sw(GateDesign& d)
{
    for (const SiDBSite s :
         {SiDBSite{25, 14, 1}, {23, 15, 0}, {20, 17, 1}, {18, 18, 0}, {15, 21, 0}, {15, 22, 0}})
    {
        d.sites.push_back(s);
    }
    d.output_pairs.push_back(BDLPair{{15, 21, 0}, {15, 22, 0}});
    d.output_perturbers.push_back({15, 25, 1});
}

void add_output_se(GateDesign& d)
{
    for (const SiDBSite s :
         {SiDBSite{35, 14, 1}, {37, 15, 0}, {40, 17, 1}, {42, 18, 0}, {45, 21, 0}, {45, 22, 0}})
    {
        d.sites.push_back(s);
    }
    d.output_pairs.push_back(BDLPair{{45, 21, 0}, {45, 22, 0}});
    d.output_perturbers.push_back({45, 25, 1});
}

GateDesign two_input_skeleton(const std::string& name, const std::string& function)
{
    GateDesign d;
    d.name = name;
    add_input_nw(d);
    add_input_ne(d);
    add_output_se(d);
    d.functions.push_back(TruthTable::from_binary(function));
    return d;
}

GateDesign inverter_skeleton()
{
    GateDesign d;
    d.name = "inv";
    add_input_vertical(d);
    add_output_vertical(d);
    d.functions.push_back(tt("01"));
    return d;
}

GateDesign diagonal_inverter_skeleton()
{
    GateDesign d;
    d.name = "inv_diag";
    d.sites.push_back({15, 1, 0});
    d.sites.push_back({15, 2, 0});
    d.sites.push_back({15, 5, 0});
    d.sites.push_back({15, 6, 0});
    d.sites.push_back({40, 17, 1});
    d.sites.push_back({42, 18, 0});
    d.sites.push_back({45, 21, 0});
    d.sites.push_back({45, 22, 0});
    d.input_pairs.push_back(BDLPair{{15, 1, 0}, {15, 2, 0}});
    d.output_pairs.push_back(BDLPair{{45, 21, 0}, {45, 22, 0}});
    d.drivers.push_back(InputDriver{{15, -3, 0}, {15, -2, 0}});
    d.output_perturbers.push_back({45, 25, 1});
    d.functions.push_back(tt("01"));
    return d;
}

GateDesign fanout_skeleton()
{
    GateDesign d;
    d.name = "fanout";
    add_input_nw(d);
    add_output_sw(d);
    add_output_se(d);
    d.functions.push_back(tt("10"));
    d.functions.push_back(tt("10"));
    return d;
}

phys::SiDBSite mirror_site(const phys::SiDBSite& s)
{
    return {tile_columns - s.n, s.m, s.l};
}

phys::GateDesign mirror_design(const phys::GateDesign& d)
{
    phys::GateDesign m = d;
    for (auto& s : m.sites)
    {
        s = mirror_site(s);
    }
    for (auto& p : m.input_pairs)
    {
        p.zero_site = mirror_site(p.zero_site);
        p.one_site = mirror_site(p.one_site);
    }
    for (auto& p : m.output_pairs)
    {
        p.zero_site = mirror_site(p.zero_site);
        p.one_site = mirror_site(p.one_site);
    }
    for (auto& drv : m.drivers)
    {
        drv.far_site = mirror_site(drv.far_site);
        drv.near_site = mirror_site(drv.near_site);
    }
    for (auto& s : m.output_perturbers)
    {
        s = mirror_site(s);
    }
    return m;
}

BestagonLibrary::BestagonLibrary()
{
    const auto add = [this](GateType type, std::optional<Port> ia, std::optional<Port> ib,
                            std::optional<Port> oa, std::optional<Port> ob, GateDesign design,
                            bool validated) {
        GateImplementation impl;
        impl.type = type;
        impl.in_a = ia;
        impl.in_b = ib;
        impl.out_a = oa;
        impl.out_b = ob;
        impl.design = std::move(design);
        impl.simulation_validated = validated;
        gates_.push_back(std::move(impl));
    };

    // --- wires (and the PI/PO tiles, which are wires with a border port) ---
    auto wire_v = make_vertical_wire();
    auto wire_d = make_diagonal_wire();
    add(GateType::buf, Port::nw, std::nullopt, Port::sw, std::nullopt, wire_v, true);
    add(GateType::buf, Port::ne, std::nullopt, Port::se, std::nullopt, mirror_design(wire_v), true);
    add(GateType::buf, Port::nw, std::nullopt, Port::se, std::nullopt, wire_d, true);
    add(GateType::buf, Port::ne, std::nullopt, Port::sw, std::nullopt, mirror_design(wire_d), true);

    // --- two-input gates, output SE and (mirrored) SW ------------------------
    // Designer-found canvases; each gate's flag is its check_operational
    // verdict, which WorkCounters.SignoffTiles re-derives for every design.
    const auto add_two_input = [&add](GateType type, const GateDesign& g, bool validated) {
        add(type, Port::nw, Port::ne, Port::se, std::nullopt, g, validated);
        add(type, Port::nw, Port::ne, Port::sw, std::nullopt, mirror_design(g), validated);
    };
    // OR:  single canvas dot biasing the junction toward conduction
    add_two_input(GateType::or2, with_canvas(two_input_skeleton("or", "1110"), {{34, 9, 0}}), true);
    // AND: single canvas dot placed to suppress single-input activation
    add_two_input(GateType::and2, with_canvas(two_input_skeleton("and", "1000"), {{29, 10, 0}}), true);
    add_two_input(GateType::xor2,
                  with_canvas(two_input_skeleton("xor", "0110"), {{28, 11, 0}, {32, 11, 0}, {30, 13, 1}}),
                  false);
    // NOR = the OR canvas plus polarization-flipping dots along the output
    // chain, found by the automatic designer (1146 iterations, 4/4 patterns)
    add_two_input(GateType::nor2,
                  with_canvas(two_input_skeleton("nor", "0001"),
                              {{34, 9, 0}, {29, 13, 1}, {32, 19, 0}, {34, 19, 0}, {37, 19, 0}, {38, 16, 0},
                               {41, 16, 1}}),
                  true);
    add_two_input(GateType::nand2,
                  with_canvas(two_input_skeleton("nand", "0111"), {{27, 10, 0}, {33, 10, 0}, {30, 12, 1}}),
                  false);
    add_two_input(GateType::xnor2,
                  with_canvas(two_input_skeleton("xnor", "1001"), {{28, 10, 0}, {32, 10, 0}, {30, 12, 0}}),
                  false);

    // --- inverters ----------------------------------------------------------
    // straight inverter canvas found by the automatic designer (5201
    // iterations, operational 2/2 at mu = -0.32): two laterally offset dots
    // below the input chain flip the polarization (antiferro coupling)
    const auto g_inv = with_canvas(inverter_skeleton(), {{8, 15, 1}, {10, 16, 1}});
    add(GateType::inv, Port::nw, std::nullopt, Port::sw, std::nullopt, g_inv, true);
    add(GateType::inv, Port::ne, std::nullopt, Port::se, std::nullopt, mirror_design(g_inv), true);
    const auto g_inv_d =
        with_canvas(diagonal_inverter_skeleton(), {{20, 9, 0}, {20, 10, 0}, {28, 12, 1}, {34, 14, 0}});
    add(GateType::inv, Port::nw, std::nullopt, Port::se, std::nullopt, g_inv_d, false);
    add(GateType::inv, Port::ne, std::nullopt, Port::sw, std::nullopt, mirror_design(g_inv_d), false);

    // --- fan-out -------------------------------------------------------------
    const auto g_fo = with_canvas(fanout_skeleton(), {{30, 11, 0}});
    add(GateType::fanout, Port::nw, std::nullopt, Port::sw, Port::se, g_fo, false);
    add(GateType::fanout, Port::ne, std::nullopt, Port::sw, Port::se, mirror_design(g_fo), false);

    // --- PI/PO tiles: wires whose outer port faces the layout border --------
    add(GateType::pi, std::nullopt, std::nullopt, Port::sw, std::nullopt, wire_v, true);
    add(GateType::pi, std::nullopt, std::nullopt, Port::se, std::nullopt, mirror_design(wire_v), true);
    add(GateType::po, Port::nw, std::nullopt, std::nullopt, std::nullopt, wire_v, true);
    add(GateType::po, Port::ne, std::nullopt, std::nullopt, std::nullopt, mirror_design(wire_v), true);

    crossing_ = GateImplementation{};
    crossing_.type = GateType::buf;
    crossing_.in_a = Port::nw;
    crossing_.in_b = Port::ne;
    crossing_.out_a = Port::sw;
    crossing_.out_b = Port::se;
    crossing_.design = make_crossing();
    crossing_.simulation_validated = false;
}

const BestagonLibrary& BestagonLibrary::instance()
{
    static const BestagonLibrary library;
    return library;
}

const GateImplementation* BestagonLibrary::lookup(GateType type, std::optional<Port> in_a,
                                                  std::optional<Port> in_b, std::optional<Port> out_a,
                                                  std::optional<Port> out_b) const
{
    // normalize: two-input gates are commutative, so sort input ports; the
    // same applies to the two fan-out outputs
    for (const auto& g : gates_)
    {
        const auto same = [](std::optional<Port> a, std::optional<Port> b, std::optional<Port> c,
                             std::optional<Port> d) {
            return (a == c && b == d) || (a == d && b == c);
        };
        if (g.type == type && same(g.in_a, g.in_b, in_a, in_b) && same(g.out_a, g.out_b, out_a, out_b))
        {
            return &g;
        }
    }
    return nullptr;
}

}  // namespace bestagon::layout
