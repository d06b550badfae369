#include "phys/operational.hpp"

#include "phys/gate_designer.hpp"

#include <gtest/gtest.h>

namespace
{

using namespace bestagon::phys;
using bestagon::logic::TruthTable;

/// The validated vertical BDL wire in tile-local coordinates.
GateDesign vertical_wire()
{
    GateDesign d;
    d.name = "wire";
    for (int k = 0; k < 6; ++k)
    {
        const int m = 1 + 4 * k;
        d.sites.push_back({15, m, 0});
        d.sites.push_back({15, m + 1, 0});
    }
    d.input_pairs.push_back({{15, 1, 0}, {15, 2, 0}});
    d.output_pairs.push_back({{15, 21, 0}, {15, 22, 0}});
    d.drivers.push_back({{15, -3, 0}, {15, -2, 0}});
    d.output_perturbers.push_back({15, 25, 1});
    d.functions.push_back(TruthTable::from_binary("10"));
    return d;
}

TEST(Operational, InstanceSitesSelectPerturbersByPattern)
{
    const auto d = vertical_wire();
    const auto s0 = d.instance_sites(0);
    const auto s1 = d.instance_sites(1);
    EXPECT_EQ(s0.size(), d.sites.size() + 2);  // driver + output perturber
    // pattern 0 places the far perturber, pattern 1 the near one
    EXPECT_NE(std::find(s0.begin(), s0.end(), d.drivers[0].far_site), s0.end());
    EXPECT_NE(std::find(s1.begin(), s1.end(), d.drivers[0].near_site), s1.end());
}

TEST(Operational, ReadPairStates)
{
    GateDesign d;
    d.sites = {{0, 0, 0}, {0, 1, 0}};
    d.output_pairs.push_back({{0, 0, 0}, {0, 1, 0}});
    const GateInstanceCache cache{d, SimulationParameters{}};
    EXPECT_EQ(cache.read_output(0, {1, 0}), PairState::zero);
    EXPECT_EQ(cache.read_output(0, {0, 1}), PairState::one);
    EXPECT_EQ(cache.read_output(0, {1, 1}), PairState::undefined);
    EXPECT_EQ(cache.read_output(0, {0, 0}), PairState::undefined);
}

/// The paper's central physical claim at gate level: BDL wires transmit
/// logic states through Coulombic pressure from near/far input perturbers.
TEST(Operational, VerticalWireIsOperationalAtBothMuValues)
{
    for (const double mu : {-0.32, -0.28})
    {
        SimulationParameters p;
        p.mu_minus = mu;
        const auto result = check_operational(vertical_wire(), p);
        EXPECT_TRUE(result.operational) << "mu = " << mu;
        EXPECT_EQ(result.patterns_correct, 2U);
    }
}

TEST(Operational, BrokenWireIsDetected)
{
    auto d = vertical_wire();
    // remove the middle pairs: the chain can no longer transmit
    d.sites.erase(d.sites.begin() + 4, d.sites.begin() + 10);
    SimulationParameters p;
    p.mu_minus = -0.32;
    const auto result = check_operational(d, p);
    EXPECT_FALSE(result.operational);
}

/// A pattern indexes one truth-table row; one at or above 2^k must be
/// rejected instead of reading past the table.
TEST(Operational, OutOfRangePatternThrows)
{
    const auto wire = vertical_wire();  // one input: patterns 0 and 1
    SimulationParameters p;
    p.mu_minus = -0.32;
    const GateInstanceCache cache{wire, p};
    for (const std::uint64_t pattern : {std::uint64_t{2}, std::uint64_t{1} << 40, ~std::uint64_t{0}})
    {
        EXPECT_THROW(static_cast<void>(simulate_gate_pattern(cache, pattern)),
                     std::invalid_argument)
            << pattern;
        EXPECT_THROW(static_cast<void>(simulate_gate_pattern(wire, pattern, p)),
                     std::invalid_argument)
            << pattern;
    }
    EXPECT_TRUE(simulate_gate_pattern(cache, 1).correct);
}

TEST(GateDesigner, FindsTrivialCompletionOfAWire)
{
    // skeleton: wire with the third pair removed; candidates contain the
    // missing sites, so the designer must reconstruct a working wire
    auto skeleton = vertical_wire();
    skeleton.sites.erase(skeleton.sites.begin() + 4, skeleton.sites.begin() + 6);
    std::vector<SiDBSite> candidates;
    for (int m = 8; m <= 11; ++m)
    {
        for (int l = 0; l < 2; ++l)
        {
            candidates.push_back({15, m, l});
        }
    }
    SimulationParameters p;
    p.mu_minus = -0.32;
    DesignerOptions opt;
    opt.min_canvas_dots = 1;
    opt.max_canvas_dots = 2;
    opt.max_iterations = 2000;
    const auto result = design_gate(skeleton, candidates, opt, p);
    ASSERT_TRUE(result.has_value());
    const auto check = check_operational(result->design, p);
    EXPECT_TRUE(check.operational);
}

TEST(GateDesigner, FiltersCollidingCandidates)
{
    const auto skeleton = vertical_wire();
    // all candidates collide with existing sites -> no design possible
    const std::vector<SiDBSite> candidates(skeleton.sites.begin(), skeleton.sites.begin() + 3);
    SimulationParameters p;
    DesignerOptions opt;
    opt.max_iterations = 10;
    EXPECT_EQ(design_gate(skeleton, candidates, opt, p), std::nullopt);
}

}  // namespace
