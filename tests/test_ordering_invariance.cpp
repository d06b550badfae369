// Ordering-invariance regression tests for the unordered-container audit
// (see DESIGN.md §12). The logic pipeline uses unordered_map/unordered_set
// internally (strash tables, cut signatures, NPN memos, equivalence-checker
// maps); these tests build the same function with permuted node-creation
// orders — which permutes NodeIds and therefore every hash distribution —
// and assert the observable results are identical. If container iteration
// order ever leaks into a result, these tests (and lint check D2) catch it.

#include "layout/equivalence_checking.hpp"
#include "logic/cuts.hpp"
#include "logic/exact_synthesis.hpp"
#include "logic/network.hpp"
#include "logic/rewriting.hpp"
#include "logic/tech_mapping.hpp"

#include "cuts_reference.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace
{

using namespace bestagon::logic;

// f = (a & b) ^ (c | d), g = !(b | c) — built with the independent internal
// gates created in natural order...
LogicNetwork build_natural()
{
    LogicNetwork n;
    const auto a = n.create_pi("a");
    const auto b = n.create_pi("b");
    const auto c = n.create_pi("c");
    const auto d = n.create_pi("d");
    const auto ab = n.create_and(a, b);
    const auto cd = n.create_or(c, d);
    const auto bc = n.create_or(b, c);
    n.create_po(n.create_xor(ab, cd), "f");
    n.create_po(n.create_not(bc), "g");
    return n;
}

// ... and with the same gates created in reverse, interleaved with dead
// nodes. PI and PO order (the variable/output order) is identical; only the
// NodeIds of the internal gates differ.
LogicNetwork build_permuted()
{
    LogicNetwork n;
    const auto a = n.create_pi("a");
    const auto b = n.create_pi("b");
    const auto c = n.create_pi("c");
    const auto d = n.create_pi("d");
    const auto bc = n.create_or(b, c);
    static_cast<void>(n.create_and(a, d));  // dead
    const auto cd = n.create_or(c, d);
    const auto ab = n.create_and(b, a);  // commuted fanins
    static_cast<void>(n.create_xor(c, d));  // dead
    const auto g = n.create_not(bc);
    const auto f = n.create_xor(ab, cd);
    n.create_po(f, "f");
    n.create_po(g, "g");
    return n;
}

std::vector<TruthTable> po_tables(const LogicNetwork& n)
{
    return n.simulate();
}

TEST(OrderingInvariance, SimulationAgreesAcrossCreationOrders)
{
    const auto tables_a = po_tables(build_natural());
    const auto tables_b = po_tables(build_permuted());
    ASSERT_EQ(tables_a.size(), tables_b.size());
    for (std::size_t i = 0; i < tables_a.size(); ++i)
    {
        EXPECT_EQ(tables_a[i].to_hex(), tables_b[i].to_hex()) << "PO " << i;
    }
}

TEST(OrderingInvariance, StrashIsInvariantToCreationOrder)
{
    const auto a = strash(sweep(build_natural()));
    const auto b = strash(sweep(build_permuted()));
    EXPECT_EQ(a.num_gates(), b.num_gates());
    EXPECT_TRUE(functionally_equivalent(a, b));
    const auto ta = po_tables(a);
    const auto tb = po_tables(b);
    ASSERT_EQ(ta.size(), tb.size());
    for (std::size_t i = 0; i < ta.size(); ++i)
    {
        EXPECT_EQ(ta[i].to_hex(), tb[i].to_hex()) << "PO " << i;
    }
}

TEST(OrderingInvariance, CutFunctionsAreCreationOrderInvariant)
{
    // the PO cone functions computed through cut enumeration (unordered
    // signature sets inside) must match across the two builds
    const auto a = strash(sweep(build_natural()));
    const auto b = strash(sweep(build_permuted()));
    const CutEnumeration cuts_a{a};
    const CutEnumeration cuts_b{b};
    ASSERT_EQ(a.pos().size(), b.pos().size());
    for (std::size_t i = 0; i < a.pos().size(); ++i)
    {
        const auto root_a = a.node(a.pos()[i]).fanin[0];
        const auto root_b = b.node(b.pos()[i]).fanin[0];
        const auto f_a = reference::compute_cut_function(a, root_a, a.pis());
        const auto f_b = reference::compute_cut_function(b, root_b, b.pis());
        EXPECT_EQ(f_a.to_hex(), f_b.to_hex()) << "PO " << i;
    }
}

TEST(OrderingInvariance, RewritePreservesFunctionForEitherOrder)
{
    NpnDatabase db;
    const auto a = rewrite(strash(sweep(build_natural())), db);
    const auto b = rewrite(strash(sweep(build_permuted())), db);
    EXPECT_TRUE(functionally_equivalent(a, build_natural()));
    EXPECT_TRUE(functionally_equivalent(b, build_natural()));
    EXPECT_EQ(a.num_gates(), b.num_gates())
        << "rewriting must choose the same replacements regardless of NodeId numbering";
}

TEST(OrderingInvariance, TechMappingIsInvariantToCreationOrder)
{
    const auto a = map_to_bestagon(build_natural());
    const auto b = map_to_bestagon(build_permuted());
    EXPECT_EQ(a.num_gates(), b.num_gates());
    const auto ta = po_tables(a);
    const auto tb = po_tables(b);
    ASSERT_EQ(ta.size(), tb.size());
    for (std::size_t i = 0; i < ta.size(); ++i)
    {
        EXPECT_EQ(ta[i].to_hex(), tb[i].to_hex()) << "PO " << i;
    }
}

TEST(OrderingInvariance, EquivalenceVerdictAgreesAcrossCreationOrders)
{
    using bestagon::layout::EquivalenceResult;
    using bestagon::layout::check_equivalence;
    const auto a = build_natural();
    const auto b = build_permuted();
    EXPECT_EQ(check_equivalence(a, b), EquivalenceResult::equivalent);
    EXPECT_EQ(check_equivalence(map_to_bestagon(a), map_to_bestagon(b)),
              EquivalenceResult::equivalent);

    // a genuinely different function must be rejected no matter which build
    // it is compared against; repeating the identical check must reproduce
    // the identical counterexample bit-for-bit
    LogicNetwork other;
    {
        const auto pa = other.create_pi("a");
        const auto pb = other.create_pi("b");
        const auto pc = other.create_pi("c");
        const auto pd = other.create_pi("d");
        other.create_po(other.create_and(other.create_and(pa, pb), other.create_and(pc, pd)),
                        "f");
        other.create_po(other.create_not(pb), "g");
    }
    bestagon::layout::EquivalenceStats stats_1;
    bestagon::layout::EquivalenceStats stats_2;
    EXPECT_EQ(check_equivalence(a, other, &stats_1), EquivalenceResult::not_equivalent);
    EXPECT_EQ(check_equivalence(b, other), EquivalenceResult::not_equivalent);
    EXPECT_EQ(check_equivalence(a, other, &stats_2), EquivalenceResult::not_equivalent);
    EXPECT_EQ(stats_1.counterexample, stats_2.counterexample)
        << "repeating the same check must reproduce the same counterexample";
}

TEST(OrderingInvariance, RepeatedRunsAreBitIdentical)
{
    // the same input network processed twice must give byte-equal outcomes
    const auto base = build_natural();
    const auto m1 = map_to_bestagon(base);
    const auto m2 = map_to_bestagon(base);
    ASSERT_EQ(m1.size(), m2.size());
    for (LogicNetwork::NodeId id = 0; id < m1.size(); ++id)
    {
        EXPECT_EQ(m1.node(id).type, m2.node(id).type);
        EXPECT_EQ(m1.node(id).fanin, m2.node(id).fanin);
    }
}

}  // namespace
