#include "layout/equivalence_checking.hpp"

#include "io/benchmarks.hpp"
#include "layout/exact_physical_design.hpp"
#include "logic/rewriting.hpp"
#include "logic/tech_mapping.hpp"

#include <gtest/gtest.h>

namespace
{

using namespace bestagon;
using namespace bestagon::layout;

TEST(EquivalenceChecking, IdenticalNetworksAreEquivalent)
{
    const auto net = io::find_benchmark("c17")->build();
    EXPECT_EQ(check_equivalence(net, net), EquivalenceResult::equivalent);
}

TEST(EquivalenceChecking, DeMorganVariantsAreEquivalent)
{
    logic::LogicNetwork n1;
    {
        const auto a = n1.create_pi();
        const auto b = n1.create_pi();
        n1.create_po(n1.create_nor(a, b));
    }
    logic::LogicNetwork n2;
    {
        const auto a = n2.create_pi();
        const auto b = n2.create_pi();
        n2.create_po(n2.create_and(n2.create_not(a), n2.create_not(b)));
    }
    EXPECT_EQ(check_equivalence(n1, n2), EquivalenceResult::equivalent);
}

TEST(EquivalenceChecking, DetectsDifferenceWithCounterexample)
{
    logic::LogicNetwork n1;
    {
        const auto a = n1.create_pi();
        const auto b = n1.create_pi();
        n1.create_po(n1.create_and(a, b));
    }
    logic::LogicNetwork n2;
    {
        const auto a = n2.create_pi();
        const auto b = n2.create_pi();
        n2.create_po(n2.create_or(a, b));
    }
    EquivalenceStats stats;
    EXPECT_EQ(check_equivalence(n1, n2, &stats), EquivalenceResult::not_equivalent);
    // the counterexample must actually distinguish the networks
    const auto v1 = n1.simulate_pattern(stats.counterexample);
    const auto v2 = n2.simulate_pattern(stats.counterexample);
    EXPECT_NE(v1, v2);
}

TEST(EquivalenceChecking, InterfaceMismatchIsNotEquivalent)
{
    logic::LogicNetwork n1;
    n1.create_po(n1.create_pi());
    logic::LogicNetwork n2;
    const auto a = n2.create_pi();
    static_cast<void>(n2.create_pi());
    n2.create_po(a);
    EXPECT_EQ(check_equivalence(n1, n2), EquivalenceResult::not_equivalent);
}

TEST(EquivalenceChecking, MitersMaj)
{
    logic::LogicNetwork n1;
    {
        const auto a = n1.create_pi();
        const auto b = n1.create_pi();
        const auto c = n1.create_pi();
        n1.create_po(n1.create_maj(a, b, c));
    }
    logic::LogicNetwork n2;
    {
        const auto a = n2.create_pi();
        const auto b = n2.create_pi();
        const auto c = n2.create_pi();
        const auto ab = n2.create_and(a, b);
        const auto ac = n2.create_and(a, c);
        const auto bc = n2.create_and(b, c);
        n2.create_po(n2.create_or(n2.create_or(ab, ac), bc));
    }
    EXPECT_EQ(check_equivalence(n1, n2), EquivalenceResult::equivalent);
}

TEST(EquivalenceChecking, EmptyNetworksAreEquivalent)
{
    // zero PIs and zero POs: the miter is vacuously UNSAT
    const logic::LogicNetwork n1;
    const logic::LogicNetwork n2;
    EXPECT_EQ(check_equivalence(n1, n2), EquivalenceResult::equivalent);
}

TEST(EquivalenceChecking, ConstantOutputsAreCompared)
{
    // no PIs: equivalence degenerates to comparing the constants themselves
    logic::LogicNetwork true1;
    true1.create_po(true1.create_const(true));
    logic::LogicNetwork true2;
    true2.create_po(true2.create_const(true));
    logic::LogicNetwork false1;
    false1.create_po(false1.create_const(false));
    EXPECT_EQ(check_equivalence(true1, true2), EquivalenceResult::equivalent);
    EXPECT_EQ(check_equivalence(true1, false1), EquivalenceResult::not_equivalent);
}

TEST(EquivalenceChecking, ConstantVersusDegenerateGateNetwork)
{
    // x XOR x == 0: structurally different from a constant-0 network but
    // functionally identical on the shared input
    logic::LogicNetwork spec;
    const auto a1 = spec.create_pi();
    static_cast<void>(a1);
    spec.create_po(spec.create_const(false));
    logic::LogicNetwork impl;
    const auto a2 = impl.create_pi();
    impl.create_po(impl.create_xor(a2, a2));
    EXPECT_EQ(check_equivalence(spec, impl), EquivalenceResult::equivalent);
}

TEST(EquivalenceChecking, EmptyLayoutIsNotEquivalentToRealSpec)
{
    logic::LogicNetwork spec;
    const auto a = spec.create_pi();
    const auto b = spec.create_pi();
    spec.create_po(spec.create_and(a, b));
    const GateLevelLayout empty{3, 3};
    EXPECT_EQ(check_layout_equivalence(spec, empty), EquivalenceResult::not_equivalent);
}

TEST(EquivalenceChecking, SingleTileLayoutMatchesTrivialSpec)
{
    // a 1x1 layout cannot host PI -> PO (two rows needed); a 1x2 wire-only
    // pass-through is the smallest meaningful layout
    logic::LogicNetwork spec;
    spec.create_po(spec.create_pi("a"), "f");
    GateLevelLayout layout{1, 2};
    Occupant pi;
    pi.type = logic::GateType::pi;
    pi.node = 0;
    pi.out_a = Port::se;
    ASSERT_TRUE(layout.add_occupant({0, 0}, pi));
    Occupant po;
    po.type = logic::GateType::po;
    po.node = 1;
    po.in_a = Port::nw;
    ASSERT_TRUE(layout.add_occupant({0, 1}, po));
    EXPECT_EQ(check_layout_equivalence(spec, layout), EquivalenceResult::equivalent);
}

/// Flow step (5): check layouts produced by exact physical design.
class LayoutEquivalence : public ::testing::TestWithParam<std::string>
{
};

TEST_P(LayoutEquivalence, LayoutImplementsSpecification)
{
    const auto* bm = io::find_benchmark(GetParam());
    logic::NpnDatabase db;
    const auto mapped = logic::map_to_bestagon(logic::rewrite(logic::to_xag(bm->build()), db));
    const auto layout = exact_physical_design(mapped);
    ASSERT_TRUE(layout.has_value());
    EXPECT_EQ(check_layout_equivalence(mapped, *layout), EquivalenceResult::equivalent);
}

INSTANTIATE_TEST_SUITE_P(Benchmarks, LayoutEquivalence,
                         ::testing::Values("xor2", "par_gen", "mux21", "par_check", "c17"));

}  // namespace
