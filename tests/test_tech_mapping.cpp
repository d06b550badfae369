#include "logic/tech_mapping.hpp"

#include "io/benchmarks.hpp"
#include "logic/rewriting.hpp"

#include <gtest/gtest.h>

namespace
{

using namespace bestagon::logic;

TEST(ToXag, DecomposesAllGateTypes)
{
    LogicNetwork n;
    const auto a = n.create_pi();
    const auto b = n.create_pi();
    const auto c = n.create_pi();
    n.create_po(n.create_or(a, b));
    n.create_po(n.create_nand(a, c));
    n.create_po(n.create_nor(b, c));
    n.create_po(n.create_xnor(a, b));
    n.create_po(n.create_maj(a, b, c));
    const auto xag = to_xag(n);
    EXPECT_TRUE(xag.is_xag());
    EXPECT_TRUE(functionally_equivalent(n, xag));
}

TEST(ToAig, RemovesXors)
{
    LogicNetwork n;
    const auto a = n.create_pi();
    const auto b = n.create_pi();
    n.create_po(n.create_xor(a, b));
    const auto aig = to_aig(n);
    EXPECT_EQ(aig.num_gates_of(GateType::xor2), 0U);
    EXPECT_TRUE(functionally_equivalent(n, aig));
    // one XOR costs three ANDs in an AIG
    EXPECT_EQ(aig.num_gates_of(GateType::and2), 3U);
}

TEST(FoldInverters, AndOfInvertedInputsBecomesNor)
{
    LogicNetwork n;
    const auto a = n.create_pi();
    const auto b = n.create_pi();
    n.create_po(n.create_and(n.create_not(a), n.create_not(b)));
    MappingStats stats;
    const auto folded = fold_inverters(n, &stats);
    EXPECT_TRUE(functionally_equivalent(n, folded));
    EXPECT_EQ(folded.num_gates_of(GateType::nor2), 1U);
    EXPECT_EQ(folded.num_gates_of(GateType::inv), 0U);
    EXPECT_EQ(stats.inverters_folded, 2U);
}

TEST(FoldInverters, InvertedAndBecomesNand)
{
    LogicNetwork n;
    const auto a = n.create_pi();
    const auto b = n.create_pi();
    n.create_po(n.create_not(n.create_and(a, b)));
    const auto folded = fold_inverters(n, nullptr);
    EXPECT_TRUE(functionally_equivalent(n, folded));
    EXPECT_EQ(folded.num_gates_of(GateType::nand2), 1U);
}

TEST(FoldInverters, XorWithInvertedInputBecomesXnor)
{
    LogicNetwork n;
    const auto a = n.create_pi();
    const auto b = n.create_pi();
    n.create_po(n.create_xor(n.create_not(a), b));
    const auto folded = fold_inverters(n, nullptr);
    EXPECT_TRUE(functionally_equivalent(n, folded));
    EXPECT_EQ(folded.num_gates_of(GateType::xnor2), 1U);
    EXPECT_EQ(folded.num_gates_of(GateType::inv), 0U);
}

TEST(FoldInverters, SharedInverterIsNotFolded)
{
    LogicNetwork n;
    const auto a = n.create_pi();
    const auto b = n.create_pi();
    const auto na = n.create_not(a);
    n.create_po(n.create_xor(na, b));
    n.create_po(na);  // the inverter has a second consumer
    const auto folded = fold_inverters(n, nullptr);
    EXPECT_TRUE(functionally_equivalent(n, folded));
    EXPECT_EQ(folded.num_gates_of(GateType::inv), 1U);
}

TEST(FanoutSubstitution, InsertsExplicitFanouts)
{
    LogicNetwork n;
    const auto a = n.create_pi();
    const auto b = n.create_pi();
    const auto x = n.create_and(a, b);
    n.create_po(n.create_not(x));
    n.create_po(x);
    MappingStats stats;
    const auto subst = fanout_substitution(n, &stats);
    EXPECT_TRUE(functionally_equivalent(n, subst));
    EXPECT_TRUE(subst.is_bestagon_compliant());
    EXPECT_EQ(stats.fanouts_inserted, 1U);
}

TEST(FanoutSubstitution, HighFanoutBuildsTree)
{
    LogicNetwork n;
    const auto a = n.create_pi();
    for (int i = 0; i < 5; ++i)
    {
        n.create_po(n.create_buf(a));
    }
    const auto subst = fanout_substitution(strash(n), nullptr);
    EXPECT_TRUE(subst.is_bestagon_compliant());
    // 5 consumers need 4 fanout nodes
    EXPECT_EQ(subst.num_gates_of(GateType::fanout), 4U);
}

/// Every fan-out node of \p n drives exactly two consumers.
bool every_fanout_drives_two(const LogicNetwork& n)
{
    const auto fanouts = n.fanout_counts();
    for (const auto id : n.topological_order())
    {
        if (n.type_of(id) == GateType::fanout && fanouts[id] != 2)
        {
            return false;
        }
    }
    return true;
}

TEST(FanoutSubstitution, ExplicitFanoutsDriveExactlyTwoConsumers)
{
    // after strash, f2 merges into f1: f has one consumer, f1 has three
    LogicNetwork n;
    const auto a = n.create_pi();
    const auto b = n.create_pi();
    const auto f = n.create_fanout(a);
    const auto f1 = n.create_fanout(f);
    const auto f2 = n.create_fanout(f);
    n.create_po(n.create_and(f1, b));
    n.create_po(n.create_not(f1));
    n.create_po(f2);
    MappingStats stats;
    const auto mapped = map_to_bestagon(n, &stats);
    EXPECT_TRUE(functionally_equivalent(n, mapped));
    EXPECT_TRUE(mapped.is_bestagon_compliant());
    EXPECT_TRUE(every_fanout_drives_two(mapped));
    // f is bypassed, f1 keeps two slots, one more fan-out serves the third use
    EXPECT_EQ(mapped.num_gates_of(GateType::fanout), 2U);
    EXPECT_EQ(stats.fanouts_inserted, 1U);
}

/// Property over the benchmark suite: mapping preserves function and yields
/// Bestagon-compliant networks.
class MappingBenchmarkTest : public ::testing::TestWithParam<std::string>
{
};

TEST_P(MappingBenchmarkTest, MapsToCompliantNetwork)
{
    const auto* bm = bestagon::io::find_benchmark(GetParam());
    ASSERT_NE(bm, nullptr);
    const auto net = bm->build();
    const auto mapped = map_to_bestagon(to_xag(net));
    EXPECT_TRUE(functionally_equivalent(net, mapped));
    std::string why;
    EXPECT_TRUE(mapped.is_bestagon_compliant(&why)) << why;
}

INSTANTIATE_TEST_SUITE_P(AllBenchmarks, MappingBenchmarkTest,
                         ::testing::Values("xor2", "xnor2", "par_gen", "mux21", "par_check",
                                           "xor5_r1", "xor5_majority", "t", "t_5", "c17", "majority",
                                           "majority_5_r1", "cm82a_5", "newtag"));

}  // namespace
