#include "io/dot_writer.hpp"
#include "io/render.hpp"
#include "io/sqd_writer.hpp"
#include "io/svg_writer.hpp"

#include "core/design_flow.hpp"
#include "io/benchmarks.hpp"

#include <gtest/gtest.h>

#include <sstream>

namespace
{

using namespace bestagon;

core::FlowResult small_flow()
{
    return core::run_design_flow(io::find_benchmark("xor2")->build());
}

TEST(SqdWriter, ProducesWellFormedXml)
{
    const auto flow = small_flow();
    ASSERT_TRUE(flow.sidb.has_value());
    std::ostringstream out;
    io::write_sqd(out, *flow.sidb, "xor2");
    const auto text = out.str();
    EXPECT_NE(text.find("<?xml version=\"1.0\""), std::string::npos);
    EXPECT_NE(text.find("<siqad>"), std::string::npos);
    EXPECT_NE(text.find("</siqad>"), std::string::npos);
    // one dbdot element per SiDB
    std::size_t count = 0;
    for (std::size_t pos = text.find("<dbdot>"); pos != std::string::npos;
         pos = text.find("<dbdot>", pos + 1))
    {
        ++count;
    }
    EXPECT_EQ(count, flow.sidb->num_sidbs());
}

TEST(SqdWriter, GateDesignIncludesPerturbers)
{
    const auto& lib = layout::BestagonLibrary::instance();
    const auto* wire = lib.lookup(logic::GateType::buf, layout::Port::nw, std::nullopt,
                                  layout::Port::sw, std::nullopt);
    ASSERT_NE(wire, nullptr);
    std::ostringstream out;
    io::write_sqd(out, wire->design);
    std::size_t count = 0;
    const auto text = out.str();
    for (std::size_t pos = text.find("<dbdot>"); pos != std::string::npos;
         pos = text.find("<dbdot>", pos + 1))
    {
        ++count;
    }
    EXPECT_EQ(count, wire->design.sites.size() + 2);  // + driver + output perturber
}

TEST(SvgWriter, TileViewContainsHexagonsAndLabels)
{
    const auto flow = small_flow();
    ASSERT_TRUE(flow.layout.has_value());
    std::ostringstream out;
    io::write_svg(out, *flow.layout);
    const auto text = out.str();
    EXPECT_NE(text.find("<svg"), std::string::npos);
    EXPECT_NE(text.find("<polygon"), std::string::npos);
    EXPECT_NE(text.find("xor"), std::string::npos);
}

TEST(SvgWriter, DotViewContainsOneCirclePerSidb)
{
    const auto flow = small_flow();
    ASSERT_TRUE(flow.sidb.has_value());
    std::ostringstream out;
    io::write_svg(out, *flow.sidb);
    const auto text = out.str();
    std::size_t count = 0;
    for (std::size_t pos = text.find("<circle"); pos != std::string::npos;
         pos = text.find("<circle", pos + 1))
    {
        ++count;
    }
    EXPECT_EQ(count, flow.sidb->num_sidbs());
}

TEST(Render, LayoutAsciiShowsDimensionsAndGates)
{
    const auto flow = small_flow();
    const auto text = io::render_layout(*flow.layout);
    EXPECT_NE(text.find("2 x 3"), std::string::npos);
    EXPECT_NE(text.find("xor"), std::string::npos);
    EXPECT_NE(text.find("PI"), std::string::npos);
    EXPECT_NE(text.find("PO"), std::string::npos);
}

TEST(Render, ChargesListEverySite)
{
    const std::vector<phys::SiDBSite> sites{{0, 0, 0}, {1, 2, 1}};
    const auto text = io::render_charges(sites, {1, 0});
    EXPECT_NE(text.find("(0,0,0) DB-"), std::string::npos);
    EXPECT_NE(text.find("(1,2,1) DB0"), std::string::npos);
}

TEST(DotWriter, EmitsGraph)
{
    const auto net = io::find_benchmark("c17")->build();
    std::ostringstream out;
    io::write_dot(out, net);
    const auto text = out.str();
    EXPECT_NE(text.find("digraph network"), std::string::npos);
    // benchmarks/c17.v writes its NANDs as ~(a & b): AND gates and inverters
    EXPECT_NE(text.find("label=\"and\""), std::string::npos);
    EXPECT_NE(text.find("->"), std::string::npos);
}

}  // namespace
