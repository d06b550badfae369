#include "logic/cuts.hpp"

#include "io/benchmarks.hpp"
#include "logic/rewriting.hpp"
#include "logic/tech_mapping.hpp"

#include "cuts_reference.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

namespace
{

using namespace bestagon::logic;

LogicNetwork make_mux()
{
    LogicNetwork n;
    const auto a = n.create_pi("a");
    const auto b = n.create_pi("b");
    const auto s = n.create_pi("s");
    const auto l = n.create_and(a, n.create_not(s));
    const auto r = n.create_and(b, s);
    n.create_po(n.create_or(l, r), "f");
    return n;
}

TEST(Cuts, TrivialCutOnPis)
{
    LogicNetwork n;
    const auto a = n.create_pi();
    n.create_po(n.create_not(a));
    const CutEnumeration cuts{n};
    const auto& pi_cuts = cuts.cuts_of(a);
    ASSERT_EQ(pi_cuts.size(), 1U);
    ASSERT_EQ(pi_cuts[0].num_leaves, 1U);
    EXPECT_EQ(pi_cuts[0].leaves()[0], a);
    unsigned var = 99;
    bool comp = true;
    EXPECT_TRUE(pi_cuts[0].function().is_projection(var, comp));
    EXPECT_FALSE(comp);
}

TEST(Cuts, CutFunctionsMatchConeSimulation)
{
    const auto n = make_mux();
    const CutEnumeration cuts{n, 4, 16};
    for (const auto id : n.topological_order())
    {
        for (const auto& cut : cuts.cuts_of(id))
        {
            // recompute independently and compare
            const auto recomputed = reference::compute_cut_function(n, id, cut.leaves());
            EXPECT_EQ(cut.function(), recomputed);
        }
    }
}

TEST(Cuts, MuxRootHasFullCut)
{
    const auto n = make_mux();
    const CutEnumeration cuts{n, 4, 16};
    const auto root = n.node(n.pos()[0]).fanin[0];
    bool found_pi_cut = false;
    for (const auto& cut : cuts.cuts_of(root))
    {
        if (cut.num_leaves == 3)
        {
            // the 3-leaf cut over the PIs computes the full mux function
            // f(a,b,s) = s ? b : a; leaves are sorted by id = (a, b, s)
            const auto a = TruthTable::nth_var(3, 0);
            const auto b = TruthTable::nth_var(3, 1);
            const auto s = TruthTable::nth_var(3, 2);
            const auto expected = (a & ~s) | (b & s);
            if (cut.function() == expected)
            {
                found_pi_cut = true;
            }
        }
    }
    EXPECT_TRUE(found_pi_cut);
}

TEST(Cuts, RespectsCutSizeLimit)
{
    const auto n = make_mux();
    const CutEnumeration cuts{n, 2, 16};
    for (const auto id : n.topological_order())
    {
        for (const auto& cut : cuts.cuts_of(id))
        {
            EXPECT_LE(cut.num_leaves, 2U);
        }
    }
}

TEST(Cuts, RespectsCutCountLimit)
{
    const auto n = make_mux();
    const CutEnumeration cuts{n, 4, 3};
    for (const auto id : n.topological_order())
    {
        EXPECT_LE(cuts.cuts_of(id).size(), 3U);
    }
}

TEST(Cuts, LeavesAreSorted)
{
    const auto n = make_mux();
    const CutEnumeration cuts{n};
    for (const auto id : n.topological_order())
    {
        for (const auto& cut : cuts.cuts_of(id))
        {
            EXPECT_TRUE(std::is_sorted(cut.leaves().begin(), cut.leaves().end()));
        }
    }
}

/// A cut leaf stays a free variable even when it lies in another leaf's
/// fan-in. Such cuts are common on the strashed Table-1 XAGs that rewrite()
/// enumerates, and each must keep the reference function.
TEST(Cuts, NestedLeafCutsMatchTheReference)
{
    std::size_t nested_total = 0;
    for (const auto& bm : bestagon::io::table1_benchmarks())
    {
        const auto network = strash(to_xag(bm.build()));
        EXPECT_TRUE(reference::cut_functions_match_reference(network, 4, 12)) << bm.name;
        const CutEnumeration cuts{network};
        std::size_t total = 0;
        std::size_t nested = 0;
        for (const auto id : network.topological_order())
        {
            for (const auto& cut : cuts.cuts_of(id))
            {
                ++total;
                nested += reference::has_nested_leaf(network, cut.leaves()) ? 1 : 0;
            }
        }
        if (bm.name == "c17")
        {
            EXPECT_EQ(total, 105U);
            EXPECT_EQ(nested, 45U);
        }
        if (bm.name == "xor5_majority")
        {
            EXPECT_EQ(total, 287U);
            EXPECT_EQ(nested, 199U);
        }
        nested_total += nested;
    }
    EXPECT_GT(nested_total, 0U);
}

/// A cut function is one 64-bit word, so k is at most 6: k = 6 enumerates
/// 6-leaf cuts with the reference functions, k = 7 is rejected.
TEST(Cuts, KIsBoundedByOneWord)
{
    LogicNetwork n;
    std::vector<LogicNetwork::NodeId> pis;
    for (unsigned i = 0; i < 7; ++i)
    {
        pis.push_back(n.create_pi());
    }
    const auto left = n.create_xor(n.create_and(pis[0], pis[1]), n.create_or(pis[2], pis[3]));
    const auto right = n.create_maj(pis[4], pis[5], n.create_not(pis[6]));
    n.create_po(n.create_nand(left, n.create_xnor(right, pis[0])));

    EXPECT_TRUE(reference::cut_functions_match_reference(n, Cut::max_leaves, 64));
    const CutEnumeration cuts{n, Cut::max_leaves, 64};
    bool six_leaves = false;
    for (const auto id : n.topological_order())
    {
        for (const auto& cut : cuts.cuts_of(id))
        {
            six_leaves = six_leaves || cut.num_leaves == 6;
        }
    }
    EXPECT_TRUE(six_leaves);
    EXPECT_THROW(static_cast<void>(CutEnumeration(n, Cut::max_leaves + 1)), std::invalid_argument);
}

}  // namespace
