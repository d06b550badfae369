#include "io/benchmarks.hpp"

#include <gtest/gtest.h>

#include <bit>

namespace
{

using namespace bestagon::logic;
using bestagon::io::find_benchmark;
using bestagon::io::table1_benchmarks;

TEST(Benchmarks, FourteenTableOneEntries)
{
    EXPECT_EQ(table1_benchmarks().size(), 14U);
}

TEST(Benchmarks, LookupByName)
{
    EXPECT_NE(find_benchmark("c17"), nullptr);
    EXPECT_EQ(find_benchmark("does_not_exist"), nullptr);
}

TEST(Benchmarks, Xor2Function)
{
    const auto net = find_benchmark("xor2")->build();
    EXPECT_EQ(net.simulate()[0].to_binary(), "0110");
}

TEST(Benchmarks, ParityFunctions)
{
    const auto gen = find_benchmark("par_gen")->build().simulate()[0];
    for (unsigned t = 0; t < 8; ++t)
    {
        EXPECT_EQ(gen.get_bit(t), (std::popcount(t) & 1) != 0);
    }
    // par_check reports 1 when the 4-bit word (3 data + parity) is consistent
    const auto check = find_benchmark("par_check")->build().simulate()[0];
    for (unsigned t = 0; t < 16; ++t)
    {
        EXPECT_EQ(check.get_bit(t), (std::popcount(t) & 1) == 0);
    }
}

TEST(Benchmarks, MuxFunction)
{
    const auto f = find_benchmark("mux21")->build().simulate()[0];
    // inputs: a (bit0), b (bit1), s (bit2)
    for (unsigned t = 0; t < 8; ++t)
    {
        const bool a = (t & 1) != 0, b = (t & 2) != 0, s = (t & 4) != 0;
        EXPECT_EQ(f.get_bit(t), s ? b : a);
    }
}

TEST(Benchmarks, BothXor5VariantsComputeParity)
{
    const auto a = find_benchmark("xor5_r1")->build();
    const auto b = find_benchmark("xor5_majority")->build();
    EXPECT_TRUE(functionally_equivalent(a, b));
    const auto f = a.simulate()[0];
    for (unsigned t = 0; t < 32; ++t)
    {
        EXPECT_EQ(f.get_bit(t), (std::popcount(t) & 1) != 0);
    }
}

TEST(Benchmarks, MajorityFunctions)
{
    const auto m3 = find_benchmark("majority")->build().simulate()[0];
    for (unsigned t = 0; t < 8; ++t)
    {
        EXPECT_EQ(m3.get_bit(t), std::popcount(t) >= 2);
    }
    const auto m5 = find_benchmark("majority_5_r1")->build().simulate()[0];
    for (unsigned t = 0; t < 32; ++t)
    {
        EXPECT_EQ(m5.get_bit(t), std::popcount(t) >= 3);
    }
}

TEST(Benchmarks, C17MatchesNandNetlist)
{
    const auto net = find_benchmark("c17")->build();
    EXPECT_EQ(net.num_pis(), 5U);
    EXPECT_EQ(net.num_pos(), 2U);
    // benchmarks/c17.v writes each of the six NANDs as ~(a & b)
    EXPECT_EQ(net.num_gates_of(GateType::and2), 6U);
    EXPECT_EQ(net.num_gates_of(GateType::inv), 6U);
    // reference evaluation of the ISCAS-85 netlist
    const auto tts = net.simulate();
    for (unsigned t = 0; t < 32; ++t)
    {
        const bool i1 = t & 1, i2 = t & 2, i3 = t & 4, i6 = t & 8, i7 = t & 16;
        const bool n10 = !(i1 && i3);
        const bool n11 = !(i3 && i6);
        const bool n16 = !(i2 && n11);
        const bool n19 = !(n11 && i7);
        EXPECT_EQ(tts[0].get_bit(t), !(n10 && n16));
        EXPECT_EQ(tts[1].get_bit(t), !(n16 && n19));
    }
}

TEST(Benchmarks, Cm82aIsATwoStageAdder)
{
    const auto tts = find_benchmark("cm82a_5")->build().simulate();
    ASSERT_EQ(tts.size(), 3U);
    for (unsigned t = 0; t < 32; ++t)
    {
        const bool a = t & 1, b = t & 2, c = t & 4, d = t & 8, e = t & 16;
        const bool s1 = a ^ b ^ c;
        const bool c1 = (a && b) || (a && c) || (b && c);
        const bool s2 = c1 ^ d ^ e;
        const bool c2 = (c1 && d) || (c1 && e) || (d && e);
        EXPECT_EQ(tts[0].get_bit(t), s1);
        EXPECT_EQ(tts[1].get_bit(t), s2);
        EXPECT_EQ(tts[2].get_bit(t), c2);
    }
}

TEST(Benchmarks, InterfaceSizesMatchTable1Sources)
{
    struct Expected
    {
        const char* name;
        unsigned pis;
        unsigned pos;
    };
    for (const auto& e : {Expected{"xor2", 2, 1}, {"xnor2", 2, 1}, {"par_gen", 3, 1},
                          {"mux21", 3, 1}, {"par_check", 4, 1}, {"xor5_r1", 5, 1},
                          {"xor5_majority", 5, 1}, {"t", 5, 2}, {"t_5", 5, 2}, {"c17", 5, 2},
                          {"majority", 3, 1}, {"majority_5_r1", 5, 1}, {"cm82a_5", 5, 3},
                          {"newtag", 8, 1}})
    {
        const auto net = find_benchmark(e.name)->build();
        EXPECT_EQ(net.num_pis(), e.pis) << e.name;
        EXPECT_EQ(net.num_pos(), e.pos) << e.name;
    }
}

TEST(Benchmarks, PaperReferenceRowsArePresent)
{
    const auto* pc = find_benchmark("par_check");
    EXPECT_EQ(pc->paper.width, 4U);
    EXPECT_EQ(pc->paper.height, 7U);
    EXPECT_EQ(pc->paper.area_tiles, 28U);
    EXPECT_EQ(pc->paper.sidbs, 284U);
    EXPECT_NEAR(pc->paper.area_nm2, 11312.68, 1e-2);
}

}  // namespace
