#include "layout/design_rules.hpp"

#include "io/benchmarks.hpp"
#include "layout/exact_physical_design.hpp"
#include "logic/rewriting.hpp"
#include "logic/tech_mapping.hpp"

#include <gtest/gtest.h>

namespace
{

using namespace bestagon;
using namespace bestagon::layout;
using logic::GateType;

TEST(DesignRules, CleanOnEmptyLayout)
{
    GateLevelLayout layout{3, 3};
    EXPECT_TRUE(check_design_rules(layout).clean());
}

TEST(DesignRules, DetectsDanglingOutput)
{
    GateLevelLayout layout{2, 3};
    Occupant pi;
    pi.type = GateType::pi;
    pi.out_a = Port::se;  // feeds (0,1), where nothing listens
    ASSERT_TRUE(layout.add_occupant({0, 0}, pi));
    const auto report = check_design_rules(layout);
    ASSERT_FALSE(report.clean());
    bool found = false;
    for (const auto& v : report.violations)
    {
        if (v.rule == "connectivity")
        {
            found = true;
        }
    }
    EXPECT_TRUE(found);
}

TEST(DesignRules, DetectsOutputLeavingLayout)
{
    GateLevelLayout layout{1, 2};
    Occupant pi;
    pi.type = GateType::pi;
    pi.out_a = Port::sw;  // leaves the 1-wide layout at x = -1
    ASSERT_TRUE(layout.add_occupant({0, 0}, pi));
    const auto report = check_design_rules(layout);
    EXPECT_FALSE(report.clean());
}

TEST(DesignRules, DetectsDanglingWireInput)
{
    // a wire segment whose NW input faces an empty tile: nothing drives it,
    // so the input-side connectivity check must flag the tile
    GateLevelLayout layout{2, 3};
    Occupant wire;
    wire.type = GateType::buf;
    wire.in_a = Port::nw;
    wire.out_a = Port::se;
    ASSERT_TRUE(layout.add_occupant({0, 1}, wire));
    Occupant po;
    po.type = GateType::po;
    po.in_a = Port::nw;
    ASSERT_TRUE(layout.add_occupant({1, 2}, po));  // driven by the wire's SE output
    const auto report = check_design_rules(layout);
    bool found = false;
    for (const auto& v : report.violations)
    {
        if (v.rule == "connectivity" && v.message.find("no matching driver") != std::string::npos)
        {
            found = true;
            EXPECT_EQ(v.tile, (HexCoord{0, 1}));
        }
    }
    EXPECT_TRUE(found);
}

TEST(DesignRules, DetectsInputReadingFromOutsideTheLayout)
{
    GateLevelLayout layout{1, 1};
    Occupant po;
    po.type = GateType::po;
    po.in_a = Port::nw;  // row -1 does not exist
    ASSERT_TRUE(layout.add_occupant({0, 0}, po));
    const auto report = check_design_rules(layout);
    bool found = false;
    for (const auto& v : report.violations)
    {
        if (v.rule == "connectivity" &&
            v.message.find("outside the layout") != std::string::npos)
        {
            found = true;
        }
    }
    EXPECT_TRUE(found);
}

TEST(DesignRules, SingleTileLayoutWithIsolatedPiIsReported)
{
    // a 1x1 layout can hold a PI but its output necessarily dangles or
    // leaves the layout — never silently accepted
    GateLevelLayout layout{1, 1};
    Occupant pi;
    pi.type = GateType::pi;
    pi.out_a = Port::se;
    ASSERT_TRUE(layout.add_occupant({0, 0}, pi));
    EXPECT_FALSE(check_design_rules(layout).clean());
}

TEST(DesignRules, EmptySingleTileLayoutIsClean)
{
    GateLevelLayout layout{1, 1};
    EXPECT_TRUE(check_design_rules(layout).clean());
}

TEST(DesignRules, DetectsWrongGatePortUsage)
{
    GateLevelLayout layout{2, 3};
    Occupant g;
    g.type = GateType::and2;
    g.in_a = Port::nw;  // missing second input
    g.out_a = Port::sw;
    ASSERT_TRUE(layout.add_occupant({1, 1}, g));
    const auto report = check_design_rules(layout);
    bool found = false;
    for (const auto& v : report.violations)
    {
        if (v.rule == "ports")
        {
            found = true;
        }
    }
    EXPECT_TRUE(found);
}

TEST(DesignRules, ExactLayoutsAreClean)
{
    logic::NpnDatabase db;
    for (const char* name : {"xor2", "mux21", "c17"})
    {
        const auto mapped =
            logic::map_to_bestagon(logic::to_xag(io::find_benchmark(name)->build()));
        const auto layout = exact_physical_design(mapped);
        ASSERT_TRUE(layout.has_value()) << name;
        const auto report = check_design_rules(*layout);
        EXPECT_TRUE(report.clean()) << name << ": "
                                    << (report.violations.empty() ? ""
                                                                  : report.violations.front().message);
    }
}

TEST(DesignRules, SuperTileChecksIncludeElectrodePitch)
{
    GateLevelLayout layout{2, 6};
    const auto st = make_supertiles(layout, 1);  // violates the 40 nm pitch
    const auto report = check_design_rules(st);
    bool found = false;
    for (const auto& v : report.violations)
    {
        if (v.rule == "electrode-pitch")
        {
            found = true;
        }
    }
    EXPECT_TRUE(found);
}

TEST(DesignRules, CanvasSeparationIsLargeEnough)
{
    // vertically adjacent tiles: canvas centers one tile height apart
    EXPECT_GE(canvas_center_distance_nm({0, 0}, {0, 1}), 18.0);
    // horizontally adjacent tiles: one tile width apart
    EXPECT_GE(canvas_center_distance_nm({0, 0}, {1, 0}), 23.0);
}

}  // namespace
