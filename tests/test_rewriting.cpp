#include "logic/rewriting.hpp"

#include "io/benchmarks.hpp"
#include "logic/tech_mapping.hpp"
#include "rewrite_reference.hpp"

#include <gtest/gtest.h>

#include <string>

namespace
{

using namespace bestagon::logic;

TEST(Sweep, RemovesDeadNodes)
{
    LogicNetwork n;
    const auto a = n.create_pi("a");
    const auto b = n.create_pi("b");
    static_cast<void>(n.create_and(a, b));  // dead
    n.create_po(n.create_xor(a, b), "f");
    const auto swept = sweep(n);
    EXPECT_EQ(swept.num_gates(), 1U);
    EXPECT_TRUE(functionally_equivalent(n, swept));
}

TEST(Sweep, PreservesPiOrderAndNames)
{
    LogicNetwork n;
    n.create_pi("first");
    const auto b = n.create_pi("second");
    n.create_po(b, "out");
    const auto swept = sweep(n);
    EXPECT_EQ(swept.num_pis(), 2U);
    EXPECT_EQ(swept.node(swept.pis()[0]).name, "first");
    EXPECT_EQ(swept.node(swept.pis()[1]).name, "second");
}

TEST(Strash, MergesStructurallyIdenticalGates)
{
    LogicNetwork n;
    const auto a = n.create_pi();
    const auto b = n.create_pi();
    const auto x1 = n.create_and(a, b);
    const auto x2 = n.create_and(b, a);  // commutatively identical
    n.create_po(n.create_xor(x1, x2));
    const auto hashed = strash(n);
    EXPECT_TRUE(functionally_equivalent(n, hashed));
    // XOR(x, x) = 0, so everything should fold to a constant
    EXPECT_TRUE(hashed.simulate()[0].is_const0());
}

TEST(Strash, FoldsConstants)
{
    LogicNetwork n;
    const auto a = n.create_pi();
    const auto c1 = n.create_const(true);
    n.create_po(n.create_and(a, c1));  // a & 1 = a
    const auto hashed = strash(n);
    EXPECT_EQ(hashed.num_gates(), 0U);
    EXPECT_TRUE(functionally_equivalent(n, hashed));
}

TEST(Strash, CollapsesDoubleInversion)
{
    LogicNetwork n;
    const auto a = n.create_pi();
    n.create_po(n.create_not(n.create_not(a)));
    const auto hashed = strash(n);
    EXPECT_EQ(hashed.num_gates(), 0U);
    EXPECT_TRUE(functionally_equivalent(n, hashed));
}

TEST(Rewrite, ReducesRedundantXorChain)
{
    // (a ^ b) ^ b == a: rewriting should shrink this
    LogicNetwork n;
    const auto a = n.create_pi();
    const auto b = n.create_pi();
    n.create_po(n.create_xor(n.create_xor(a, b), b));
    NpnDatabase db;
    RewriteStats stats;
    const auto rewritten = rewrite(n, db, &stats);
    EXPECT_TRUE(functionally_equivalent(n, rewritten));
    EXPECT_EQ(rewritten.num_gates(), 0U);
}

/// Property over the full benchmark suite: rewriting preserves function and
/// never increases the gate count.
class RewriteBenchmarkTest : public ::testing::TestWithParam<std::string>
{
};

TEST_P(RewriteBenchmarkTest, PreservesFunctionAndNeverGrows)
{
    const auto* bm = bestagon::io::find_benchmark(GetParam());
    ASSERT_NE(bm, nullptr);
    const auto net = bm->build();
    const auto xag = to_xag(net);
    NpnDatabase db;
    RewriteStats stats;
    const auto rewritten = rewrite(xag, db, &stats);
    EXPECT_TRUE(functionally_equivalent(net, rewritten));
    EXPECT_LE(rewritten.num_gates(), xag.num_gates());
    EXPECT_EQ(stats.gates_after, rewritten.num_gates());
}

INSTANTIATE_TEST_SUITE_P(AllBenchmarks, RewriteBenchmarkTest,
                         ::testing::Values("xor2", "xnor2", "par_gen", "mux21", "par_check",
                                           "xor5_r1", "xor5_majority", "t", "t_5", "c17", "majority",
                                           "majority_5_r1", "cm82a_5", "newtag"));

TEST(Rewrite, SubstantiallyReducesMajorityBasedXor)
{
    // the xor5_majority benchmark is heavily redundant after XAG conversion
    const auto net = bestagon::io::find_benchmark("xor5_majority")->build();
    const auto xag = to_xag(net);
    NpnDatabase db;
    const auto rewritten = rewrite(xag, db);
    EXPECT_LT(rewritten.num_gates(), xag.num_gates() / 2);
}

/// The flat candidate costing against the reference that builds every
/// candidate (rewrite_reference.hpp): on the 14 Table-1 XAGs, in every pass,
/// each candidate's count equals the gate count of its strashed rebuild, and
/// rewrite() equals the reference rewrite node for node.
TEST(Rewrite, CandidateCostsMatchReference)
{
    for (const auto& bm : bestagon::io::table1_benchmarks())
    {
        EXPECT_TRUE(reference::matches_reference(to_xag(bm.build()))) << bm.name;
    }
}

TEST(Rewrite, BuildsNoSatSolver)
{
    // rewriting serves every cut from the committed NPN table, so rewriting
    // and mapping every Table-1 benchmark run no synthesis and no solver
    NpnDatabase db;
    for (const auto& bm : bestagon::io::table1_benchmarks())
    {
        const auto net = bm.build();
        const auto mapped = map_to_bestagon(rewrite(to_xag(net), db));
        EXPECT_TRUE(functionally_equivalent(net, mapped)) << bm.name;
        EXPECT_TRUE(mapped.is_bestagon_compliant()) << bm.name;
    }
    EXPECT_EQ(db.num_synthesis_failures(), 0U);
}

}  // namespace
