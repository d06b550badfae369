#include "io/bench_reader.hpp"

#include "io/benchmarks.hpp"

#include <gtest/gtest.h>

namespace
{

using namespace bestagon;

TEST(BenchReader, ParsesC17)
{
    const auto net = io::read_bench_string(R"(
        # ISCAS-85 c17
        INPUT(1)
        INPUT(2)
        INPUT(3)
        INPUT(6)
        INPUT(7)
        OUTPUT(22)
        OUTPUT(23)
        10 = NAND(1, 3)
        11 = NAND(3, 6)
        16 = NAND(2, 11)
        19 = NAND(11, 7)
        22 = NAND(10, 16)
        23 = NAND(16, 19)
    )");
    EXPECT_EQ(net.num_pis(), 5U);
    EXPECT_EQ(net.num_pos(), 2U);
    EXPECT_TRUE(logic::functionally_equivalent(net, io::find_benchmark("c17")->build()));
}

TEST(BenchReader, HandlesUnorderedDefinitions)
{
    const auto net = io::read_bench_string(R"(
        INPUT(a)
        INPUT(b)
        OUTPUT(f)
        f = NOT(w)      # uses w before its definition
        w = AND(a, b)
    )");
    EXPECT_EQ(net.simulate()[0].to_binary(), "0111");
}

TEST(BenchReader, DecomposesWideGates)
{
    const auto net = io::read_bench_string(R"(
        INPUT(a)
        INPUT(b)
        INPUT(c)
        OUTPUT(f)
        f = NOR(a, b, c)
    )");
    const auto f = net.simulate()[0];
    for (unsigned t = 0; t < 8; ++t)
    {
        EXPECT_EQ(f.get_bit(t), t == 0);
    }
}

TEST(BenchReader, XorAndBuf)
{
    const auto net = io::read_bench_string(R"(
        INPUT(x)
        INPUT(y)
        OUTPUT(p)
        OUTPUT(q)
        p = XOR(x, y)
        q = BUFF(x)
    )");
    const auto tts = net.simulate();
    EXPECT_EQ(tts[0].to_binary(), "0110");
    EXPECT_EQ(tts[1].to_binary(), "1010");
}

TEST(BenchReader, CycleIsRejected)
{
    EXPECT_THROW(static_cast<void>(io::read_bench_string(R"(
        INPUT(a)
        OUTPUT(f)
        f = AND(a, g)
        g = NOT(f)
    )")),
                 std::runtime_error);
}

TEST(BenchReader, UndefinedOutputIsRejected)
{
    EXPECT_THROW(static_cast<void>(io::read_bench_string(R"(
        INPUT(a)
        OUTPUT(ghost)
    )")),
                 std::runtime_error);
}

TEST(BenchReader, UnsupportedGateIsRejected)
{
    EXPECT_THROW(static_cast<void>(io::read_bench_string(R"(
        INPUT(a)
        INPUT(b)
        INPUT(c)
        OUTPUT(f)
        f = MUX(a, b, c)
    )")),
                 std::runtime_error);
}

}  // namespace
