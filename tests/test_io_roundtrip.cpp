/// \file test_io_roundtrip.cpp
/// \brief Direct coverage of src/io/dot_writer and src/io/render (previously
///        only touched indirectly through whole-flow tests): structural
///        round-trips of the DOT graph, and empty-layout / single-tile edge
///        cases of the ASCII renderer.

#include "io/dot_writer.hpp"
#include "io/render.hpp"

#include "layout/gate_level_layout.hpp"
#include "logic/network.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <sstream>
#include <string>

namespace
{

using namespace bestagon;

/// Minimal structural parse of DOT output: declared node ids and edges.
struct ParsedDot
{
    std::set<std::string> nodes;
    std::vector<std::pair<std::string, std::string>> edges;
};

ParsedDot parse_dot(const std::string& text)
{
    ParsedDot parsed;
    std::istringstream in{text};
    std::string line;
    while (std::getline(in, line))
    {
        const auto arrow = line.find(" -> ");
        if (arrow != std::string::npos)
        {
            const auto from_start = line.find_first_not_of(' ');
            const auto semi = line.find(';', arrow);
            parsed.edges.emplace_back(line.substr(from_start, arrow - from_start),
                                      line.substr(arrow + 4, semi - arrow - 4));
        }
        else if (const auto bracket = line.find(" ["); bracket != std::string::npos)
        {
            const auto start = line.find_first_not_of(' ');
            parsed.nodes.insert(line.substr(start, bracket - start));
        }
    }
    return parsed;
}

TEST(DotWriter, RoundTripsEveryNodeAndEdge)
{
    logic::LogicNetwork net;
    const auto a = net.create_pi("a");
    const auto b = net.create_pi("b");
    const auto c = net.create_pi("c");
    const auto g1 = net.create_and(a, b);
    const auto g2 = net.create_xor(g1, c);
    const auto g3 = net.create_maj(a, b, c);
    net.create_po(g2, "f");
    net.create_po(g3, "g");

    std::ostringstream out;
    io::write_dot(out, net);
    const auto parsed = parse_dot(out.str());

    // one declaration per live node, one edge per fanin reference
    EXPECT_EQ(parsed.nodes.size(), net.size());
    std::size_t expected_edges = 0;
    for (std::uint32_t id = 0; id < net.size(); ++id)
    {
        expected_edges += logic::gate_arity(net.type_of(id));
    }
    EXPECT_EQ(parsed.edges.size(), expected_edges);
    // every edge endpoint refers to a declared node
    for (const auto& [from, to] : parsed.edges)
    {
        EXPECT_TRUE(parsed.nodes.count(from)) << from;
        EXPECT_TRUE(parsed.nodes.count(to)) << to;
    }
}

TEST(DotWriter, AllGateTypeNamesAppear)
{
    logic::LogicNetwork net;
    const auto a = net.create_pi("a");
    const auto b = net.create_pi("b");
    const auto f = net.create_fanout(a);
    const auto n1 = net.create_nand(f, b);
    const auto n2 = net.create_nor(f, b);
    const auto n3 = net.create_xnor(n1, n2);
    const auto n4 = net.create_or(n3, net.create_not(b));
    net.create_po(net.create_buf(n4), "f");

    std::ostringstream out;
    io::write_dot(out, net);
    const auto text = out.str();
    for (const char* name : {"fanout", "nand", "nor", "xnor", "or", "inv", "buf", "pi", "po"})
    {
        EXPECT_NE(text.find(name), std::string::npos) << name;
    }
}

TEST(DotWriter, EmptyNetworkIsAValidGraph)
{
    std::ostringstream out;
    io::write_dot(out, logic::LogicNetwork{});
    const auto text = out.str();
    EXPECT_NE(text.find("digraph network {"), std::string::npos);
    EXPECT_NE(text.find("}"), std::string::npos);
    EXPECT_EQ(text.find("->"), std::string::npos);
}

TEST(Render, EmptyLayoutShowsDimensionsAndClocks)
{
    const layout::GateLevelLayout empty{3, 2};
    const auto text = io::render_layout(empty);
    EXPECT_NE(text.find("3 x 2 hexagonal layout"), std::string::npos);
    EXPECT_NE(text.find("(clock 0)"), std::string::npos);
    EXPECT_NE(text.find("(clock 1)"), std::string::npos);
    EXPECT_EQ(text.find('['), std::string::npos);  // no occupants, no cells
    // header plus one line per row
    EXPECT_EQ(static_cast<std::size_t>(std::count(text.begin(), text.end(), '\n')), 1U + 2U);
}

TEST(Render, SingleTileLayout)
{
    layout::GateLevelLayout single{1, 1};
    layout::Occupant occ;
    occ.type = logic::GateType::pi;
    occ.label = "a";
    occ.out_a = layout::Port::se;
    ASSERT_TRUE(single.add_occupant(layout::HexCoord{0, 0}, occ));
    const auto text = io::render_layout(single);
    EXPECT_NE(text.find("1 x 1 hexagonal layout"), std::string::npos);
    EXPECT_NE(text.find("[PI a"), std::string::npos);
}

TEST(Render, CrossingTileRendersAsX)
{
    layout::GateLevelLayout crossing{1, 1};
    layout::Occupant w1;
    w1.type = logic::GateType::buf;
    w1.in_a = layout::Port::nw;
    w1.out_a = layout::Port::se;
    layout::Occupant w2;
    w2.type = logic::GateType::buf;
    w2.in_a = layout::Port::ne;
    w2.out_a = layout::Port::sw;
    std::string error;
    ASSERT_TRUE(crossing.add_occupant(layout::HexCoord{0, 0}, w1, &error)) << error;
    ASSERT_TRUE(crossing.add_occupant(layout::HexCoord{0, 0}, w2, &error)) << error;
    const auto text = io::render_layout(crossing);
    EXPECT_NE(text.find("[x/"), std::string::npos);
}

TEST(Render, ChargesHandleEmptyAndMixedConfigs)
{
    EXPECT_EQ(io::render_charges({}, {}), "");
    const std::vector<phys::SiDBSite> sites{{0, 0, 0}, {-3, 2, 1}};
    const auto text = io::render_charges(sites, {0, 1});
    EXPECT_NE(text.find("(0,0,0) DB0"), std::string::npos);
    EXPECT_NE(text.find("(-3,2,1) DB-"), std::string::npos);
}

TEST(Render, OddRowsAreShiftedHalfATile)
{
    layout::GateLevelLayout layout{2, 4};
    for (std::int32_t y = 0; y < 4; ++y)
    {
        layout::Occupant occ;  // anchor each row at x = 0 to make the shift visible
        // border I/O rule: PIs may only sit in the top row — wires anywhere
        occ.type = y == 0 ? logic::GateType::pi : logic::GateType::buf;
        occ.label = std::to_string(y);
        occ.out_a = layout::Port::se;
        ASSERT_TRUE(layout.add_occupant(layout::HexCoord{0, y}, occ));
    }
    const auto text = io::render_layout(layout);
    std::istringstream in{text};
    std::string header;
    std::getline(in, header);
    std::string row;
    for (int y = 0; std::getline(in, row); ++y)
    {
        const bool shifted = row.rfind("    ", 0) == 0;
        EXPECT_EQ(shifted, (y % 2) == 1) << "row " << y;
    }
}

}  // namespace
