#include "logic/truth_table.hpp"

#include <gtest/gtest.h>

#include <random>
#include <stdexcept>

namespace
{

using bestagon::logic::TruthTable;

TEST(TruthTable, ConstantsAndProjections)
{
    const auto c0 = TruthTable::constant(3, false);
    const auto c1 = TruthTable::constant(3, true);
    EXPECT_TRUE(c0.is_const0());
    EXPECT_TRUE(c1.is_const1());
    EXPECT_EQ(c1.count_ones(), 8U);

    const auto x0 = TruthTable::nth_var(3, 0);
    for (std::uint64_t t = 0; t < 8; ++t)
    {
        EXPECT_EQ(x0.get_bit(t), (t & 1) != 0);
    }
    unsigned var = 99;
    bool comp = false;
    EXPECT_TRUE(x0.is_projection(var, comp));
    EXPECT_EQ(var, 0U);
    EXPECT_FALSE(comp);
    EXPECT_TRUE((~x0).is_projection(var, comp));
    EXPECT_TRUE(comp);
}

TEST(TruthTable, FromWordKeepsTheLowBits)
{
    EXPECT_EQ(TruthTable::from_word(2, 0xfff8), TruthTable::from_binary("1000"));
    EXPECT_EQ(TruthTable::from_word(6, 0xf0f0f0f0f0f0f0f0ULL), TruthTable::nth_var(6, 2));
    EXPECT_EQ(TruthTable::from_word(0, 3), TruthTable::constant(0, true));
    EXPECT_THROW(static_cast<void>(TruthTable::from_word(7, 0)), std::invalid_argument);
}

TEST(TruthTable, BinaryStringRoundTrip)
{
    const auto tt = TruthTable::from_binary("0110");
    EXPECT_EQ(tt.num_vars(), 2U);
    EXPECT_EQ(tt.to_binary(), "0110");
    EXPECT_FALSE(tt.get_bit(0));
    EXPECT_TRUE(tt.get_bit(1));
    EXPECT_TRUE(tt.get_bit(2));
    EXPECT_FALSE(tt.get_bit(3));
}

TEST(TruthTable, HexRoundTrip)
{
    const auto tt = TruthTable::from_hex(4, "cafe");
    EXPECT_EQ(tt.to_hex(), "cafe");
    const auto tt2 = TruthTable::from_hex(2, "8");
    EXPECT_EQ(tt2.to_binary(), "1000");  // AND
}

TEST(TruthTable, BitwiseOperations)
{
    const auto a = TruthTable::nth_var(2, 0);
    const auto b = TruthTable::nth_var(2, 1);
    EXPECT_EQ((a & b).to_binary(), "1000");
    EXPECT_EQ((a | b).to_binary(), "1110");
    EXPECT_EQ((a ^ b).to_binary(), "0110");
    EXPECT_EQ((~(a & b)).to_binary(), "0111");
}

TEST(TruthTable, FlipVarIsInvolution)
{
    std::mt19937 rng{99};
    for (int iter = 0; iter < 50; ++iter)
    {
        const unsigned n = 1 + rng() % 4;
        TruthTable f{n};
        for (std::uint64_t t = 0; t < f.num_bits(); ++t)
        {
            f.set_bit(t, (rng() & 1U) != 0);
        }
        for (unsigned v = 0; v < n; ++v)
        {
            EXPECT_EQ(f.flip_var(v).flip_var(v), f);
        }
    }
}

TEST(TruthTable, PermuteVarsIdentityAndSwap)
{
    const auto a = TruthTable::nth_var(3, 0);
    EXPECT_EQ(a.permute_vars({0, 1, 2}), a);
    // swapping variables 0 and 1 turns projection x0 into x1
    EXPECT_EQ(a.permute_vars({1, 0, 2}), TruthTable::nth_var(3, 1));
}

TEST(TruthTable, PermutationComposesCorrectly)
{
    std::mt19937 rng{7};
    TruthTable f{3};
    for (std::uint64_t t = 0; t < 8; ++t)
    {
        f.set_bit(t, (rng() & 1U) != 0);
    }
    // applying a permutation and its inverse restores f
    const std::vector<unsigned> perm{2, 0, 1};
    std::vector<unsigned> inverse(3);
    for (unsigned i = 0; i < 3; ++i)
    {
        inverse[perm[i]] = i;
    }
    EXPECT_EQ(f.permute_vars(perm).permute_vars(inverse), f);
}

TEST(TruthTable, DependsOn)
{
    const auto a = TruthTable::nth_var(3, 0);
    const auto b = TruthTable::nth_var(3, 1);
    const auto f = a ^ b;
    EXPECT_TRUE(f.depends_on(0));
    EXPECT_TRUE(f.depends_on(1));
    EXPECT_FALSE(f.depends_on(2));
}

TEST(TruthTable, ExtendIgnoresNewVariables)
{
    const auto f = TruthTable::from_binary("0110");
    const auto g = f.extend_to(3);
    EXPECT_EQ(g.num_vars(), 3U);
    for (std::uint64_t t = 0; t < 8; ++t)
    {
        EXPECT_EQ(g.get_bit(t), f.get_bit(t & 3));
    }
}

TEST(TruthTable, LargeTables)
{
    // 7-variable tables exercise the multi-word path
    const auto a = TruthTable::nth_var(7, 6);
    const auto b = TruthTable::nth_var(7, 0);
    const auto f = a ^ b;
    EXPECT_EQ(f.count_ones(), 64U);
    EXPECT_TRUE(f.depends_on(6));
    EXPECT_EQ(f.flip_var(6), ~f);
}

TEST(TruthTable, CompareIsTotalOrder)
{
    const auto a = TruthTable::from_binary("0001");
    const auto b = TruthTable::from_binary("0010");
    EXPECT_LT(a.compare(b), 0);
    EXPECT_GT(b.compare(a), 0);
    EXPECT_EQ(a.compare(a), 0);
}

}  // namespace
