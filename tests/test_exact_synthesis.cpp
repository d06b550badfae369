#include "logic/exact_synthesis.hpp"
#include "logic/npn.hpp"

#include <gtest/gtest.h>

#include <array>
#include <random>
#include <stdexcept>

namespace
{

using namespace bestagon::logic;

/// Node-for-node equality: same ids, types, fanins and names.
void expect_same_nodes(const LogicNetwork& a, const LogicNetwork& b, const std::string& what)
{
    ASSERT_EQ(a.size(), b.size()) << what;
    for (LogicNetwork::NodeId id = 0; id < a.size(); ++id)
    {
        const auto& x = a.node(id);
        const auto& y = b.node(id);
        EXPECT_EQ(x.type, y.type) << what << " node " << id;
        EXPECT_EQ(x.name, y.name) << what << " node " << id;
        for (unsigned i = 0; i < gate_arity(x.type); ++i)
        {
            EXPECT_EQ(x.fanin[i], y.fanin[i]) << what << " node " << id;
        }
    }
    EXPECT_EQ(a.pis(), b.pis()) << what;
    EXPECT_EQ(a.pos(), b.pos()) << what;
}

TEST(ExactSynthesis, ConstantFunctions)
{
    const auto net0 = exact_synthesize(TruthTable::constant(2, false));
    ASSERT_TRUE(net0.has_value());
    EXPECT_TRUE(net0->simulate()[0].is_const0());
    const auto net1 = exact_synthesize(TruthTable::constant(3, true));
    ASSERT_TRUE(net1.has_value());
    EXPECT_TRUE(net1->simulate()[0].is_const1());
}

TEST(ExactSynthesis, Projections)
{
    const auto net = exact_synthesize(TruthTable::nth_var(3, 1));
    ASSERT_TRUE(net.has_value());
    EXPECT_EQ(net->simulate()[0], TruthTable::nth_var(3, 1));
    EXPECT_EQ(count_two_input_gates(*net), 0U);

    const auto neg = exact_synthesize(~TruthTable::nth_var(2, 0));
    ASSERT_TRUE(neg.has_value());
    EXPECT_EQ(neg->simulate()[0], ~TruthTable::nth_var(2, 0));
}

TEST(ExactSynthesis, SingleGateFunctions)
{
    for (const char* bits : {"1000", "1110", "0110", "0111", "0001", "1001"})
    {
        const auto f = TruthTable::from_binary(bits);
        const auto net = exact_synthesize(f);
        ASSERT_TRUE(net.has_value()) << bits;
        EXPECT_EQ(net->simulate()[0], f) << bits;
        EXPECT_EQ(count_two_input_gates(*net), 1U) << bits;
    }
}

TEST(ExactSynthesis, Xor3NeedsTwoGates)
{
    const auto f = TruthTable::nth_var(3, 0) ^ TruthTable::nth_var(3, 1) ^ TruthTable::nth_var(3, 2);
    const auto net = exact_synthesize(f);
    ASSERT_TRUE(net.has_value());
    EXPECT_EQ(net->simulate()[0], f);
    EXPECT_EQ(count_two_input_gates(*net), 2U);
}

TEST(ExactSynthesis, DeclineIsCertifiedMinimality)
{
    // XOR3 needs two gates: capping at one must yield a *certified* decline —
    // the r = 1 refutation carries a checked DRAT proof, no budget involved
    const auto f = TruthTable::nth_var(3, 0) ^ TruthTable::nth_var(3, 1) ^ TruthTable::nth_var(3, 2);
    SynthesisStats stats;
    const auto net = exact_synthesize(f, 1, 50000, &stats, /*certify_unsat=*/true);
    EXPECT_FALSE(net.has_value());
    EXPECT_EQ(stats.unsat_steps, 1U);
    EXPECT_EQ(stats.unknown_steps, 0U);
    EXPECT_EQ(stats.proofs_checked, 1U);
    EXPECT_EQ(stats.proof_failures, 0U);
    EXPECT_TRUE(stats.decline_is_certified());
}

TEST(ExactSynthesis, BudgetExhaustionIsNotCertified)
{
    // a 1-conflict budget cannot refute anything non-trivial: the decline
    // must be flagged as unknown, not as a minimality proof
    const auto f = TruthTable::nth_var(3, 0) ^ TruthTable::nth_var(3, 1) ^ TruthTable::nth_var(3, 2);
    SynthesisStats stats;
    const auto net = exact_synthesize(f, 1, 1, &stats, /*certify_unsat=*/true);
    EXPECT_FALSE(net.has_value());
    EXPECT_GT(stats.unknown_steps, 0U);
    EXPECT_FALSE(stats.decline_is_certified());
}

TEST(ExactSynthesis, MajorityNeedsFourGates)
{
    TruthTable f{3};
    for (unsigned t = 0; t < 8; ++t)
    {
        f.set_bit(t, __builtin_popcount(t) >= 2);
    }
    const auto net = exact_synthesize(f);
    ASSERT_TRUE(net.has_value());
    EXPECT_EQ(net->simulate()[0], f);
    // MAJ = ((a^b) & (a^c)) ^ a is optimal in the XAG cost model
    EXPECT_EQ(count_two_input_gates(*net), 4U);
}

/// Property: synthesized networks always realize the requested function.
TEST(ExactSynthesis, RandomFunctionsAreRealizedCorrectly)
{
    std::mt19937 rng{2024};
    for (int iter = 0; iter < 20; ++iter)
    {
        const unsigned n = 2 + rng() % 2;
        TruthTable f{n};
        for (std::uint64_t t = 0; t < f.num_bits(); ++t)
        {
            f.set_bit(t, (rng() & 1U) != 0);
        }
        const auto net = exact_synthesize(f);
        ASSERT_TRUE(net.has_value());
        EXPECT_EQ(net->simulate()[0], f);
    }
}

TEST(NetworkCodec, RoundTripsNodeForNode)
{
    LogicNetwork net;
    const auto a = net.create_pi("x0");
    const auto b = net.create_pi("x1");
    const auto c = net.create_const(true);
    const auto g = net.create_and(a, net.create_not(b));
    net.create_po(net.create_xor(net.create_buf(g), c), "f");
    const auto text = encode_network(net);
    EXPECT_EQ(text, "pi=x0 pi=x1 const1 inv(1) and(0,3) buf(4) xor(5,2) po(6)=f");
    expect_same_nodes(decode_network(text), net, text);
}

TEST(NetworkCodec, RejectsMalformedText)
{
    for (const char* text : {"frob", "pi=x0 and(0)", "pi=x0 inv(1)", "pi=x0 inv(0", "const0 const0",
                             "pi=x0 inv(0)=y", "pi=x0 po(0;0)"})
    {
        EXPECT_THROW((void)decode_network(text), std::invalid_argument) << text;
    }
}

TEST(NpnTable, KeysAreTheCanonicalClassesOfTwoToFourInputs)
{
    std::array<unsigned, npn_table_max_inputs + 1> per_inputs{};
    const auto& table = npn_table();
    for (std::size_t i = 0; i < table.size(); ++i)
    {
        const auto& key = table[i].canonical;
        ASSERT_GE(key.num_vars(), 2U);
        ASSERT_LE(key.num_vars(), npn_table_max_inputs);
        ++per_inputs[key.num_vars()];
        EXPECT_EQ(canonize_npn(key).canonical, key) << key.to_hex();
        if (i > 0)
        {
            // lookup bisects: ascending by input count, then by truth table
            const auto& prev = table[i - 1].canonical;
            EXPECT_TRUE(prev.num_vars() < key.num_vars() ||
                        (prev.num_vars() == key.num_vars() && prev.compare(key) < 0))
                << "table order at " << key.to_hex();
        }
    }
    EXPECT_EQ(per_inputs[2], 4U);
    EXPECT_EQ(per_inputs[3], 14U);
    EXPECT_EQ(per_inputs[4], 222U);
}

TEST(NpnTable, EveryEntrySimulatesToItsKey)
{
    for (const auto& entry : npn_table())
    {
        const auto& impl = entry.implementation;
        ASSERT_EQ(impl.num_pis(), entry.canonical.num_vars()) << entry.canonical.to_hex();
        ASSERT_EQ(impl.num_pos(), 1U) << entry.canonical.to_hex();
        EXPECT_EQ(impl.simulate()[0], entry.canonical) << entry.canonical.to_hex();
        EXPECT_LE(count_two_input_gates(impl), default_max_gates) << entry.canonical.to_hex();
    }
}

TEST(NpnTable, SmallEntriesEqualAFreshSynthesis)
{
    // the full comparison over all 240 classes is tools/npn_table --check;
    // the entries of at most four gates are cheap enough for tier-1
    unsigned compared = 0;
    for (const auto& entry : npn_table())
    {
        if (count_two_input_gates(entry.implementation) > 4)
        {
            continue;
        }
        const auto fresh = exact_synthesize(entry.canonical);
        ASSERT_TRUE(fresh.has_value()) << entry.canonical.to_hex();
        expect_same_nodes(entry.implementation, *fresh, entry.canonical.to_hex());
        ++compared;
    }
    EXPECT_EQ(compared, 4U + 14U + 63U);
}

TEST(NpnDatabase, CachesResults)
{
    NpnDatabase db;
    const auto canon = TruthTable::from_binary("0001");  // canonical AND class
    const auto* first = db.lookup(canon);
    ASSERT_NE(first, nullptr);
    const auto* second = db.lookup(canon);
    EXPECT_EQ(first, second);  // cached pointer identity
    EXPECT_EQ(db.num_entries(), 1U);
}

TEST(NpnDatabase, ImplementationsAreMinimal)
{
    NpnDatabase db;
    const auto* impl = db.lookup(TruthTable::from_binary("0110"));
    ASSERT_NE(impl, nullptr);
    EXPECT_EQ(count_two_input_gates(*impl), 1U);
}

TEST(NpnDatabase, NonCanonicalFunctionsHaveNoEntry)
{
    NpnDatabase db;
    EXPECT_EQ(db.lookup(TruthTable::from_binary("1000")), nullptr);  // AND, not canonical
    EXPECT_EQ(db.lookup(TruthTable::nth_var(1, 0)), nullptr);         // below two inputs
    EXPECT_EQ(db.num_entries(), 2U);
    EXPECT_EQ(db.num_synthesis_failures(), 2U);
}

TEST(NpnDatabase, MoreThanFourInputsThrow)
{
    NpnDatabase db;
    EXPECT_THROW((void)db.lookup(TruthTable{5}), std::invalid_argument);
}

}  // namespace
