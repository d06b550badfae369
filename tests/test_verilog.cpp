#include "io/verilog.hpp"

#include "io/benchmarks.hpp"

#include <gtest/gtest.h>

namespace
{

using namespace bestagon;
using logic::LogicNetwork;

TEST(Verilog, ParsesAssignStyle)
{
    const auto net = io::read_verilog_string(R"(
        module mux(a, b, s, f);
          input a, b, s;
          output f;
          assign f = (a & ~s) | (b & s);
        endmodule
    )");
    EXPECT_EQ(net.num_pis(), 3U);
    EXPECT_EQ(net.num_pos(), 1U);
    const auto f = net.simulate()[0];
    for (unsigned t = 0; t < 8; ++t)
    {
        const bool a = t & 1, b = t & 2, s = t & 4;
        EXPECT_EQ(f.get_bit(t), s ? b : a);
    }
}

TEST(Verilog, ParsesPrimitiveGates)
{
    const auto net = io::read_verilog_string(R"(
        module c17_fragment(i1, i2, i3, o);
          input i1, i2, i3;
          output o;
          wire w1, w2;
          nand g1 (w1, i1, i3);
          nand g2 (w2, i3, i2);
          nand g3 (o, w1, w2);
        endmodule
    )");
    const auto f = net.simulate()[0];
    for (unsigned t = 0; t < 8; ++t)
    {
        const bool i1 = t & 1, i2 = t & 2, i3 = t & 4;
        EXPECT_EQ(f.get_bit(t), !(!(i1 && i3) && !(i3 && i2)));
    }
}

TEST(Verilog, ParsesXorChainWithComments)
{
    const auto net = io::read_verilog_string(R"(
        // parity of three bits
        module par(a, b, c, p);
          input a, b, c; /* three inputs */
          output p;
          assign p = a ^ b ^ c;
        endmodule
    )");
    const auto f = net.simulate()[0];
    EXPECT_EQ(f.to_binary(), "10010110");
}

TEST(Verilog, ParsesConstants)
{
    const auto net = io::read_verilog_string(R"(
        module constant_and(a, f);
          input a;
          output f;
          assign f = a & 1'b1;
        endmodule
    )");
    EXPECT_EQ(net.simulate()[0].to_binary(), "10");
}

TEST(Verilog, UndefinedSignalThrows)
{
    EXPECT_THROW(static_cast<void>(io::read_verilog_string(R"(
        module bad(a, f);
          input a;
          output f;
          assign f = a & ghost;
        endmodule
    )")),
                 std::runtime_error);
}

TEST(Verilog, DoubleDefinitionThrows)
{
    EXPECT_THROW(static_cast<void>(io::read_verilog_string(R"(
        module bad(a, f);
          input a;
          output f;
          assign f = a;
          assign f = ~a;
        endmodule
    )")),
                 std::runtime_error);
}

/// Property: writer -> reader round trip preserves function for the entire
/// benchmark suite.
class VerilogRoundTrip : public ::testing::TestWithParam<std::string>
{
};

TEST_P(VerilogRoundTrip, PreservesFunction)
{
    const auto* bm = io::find_benchmark(GetParam());
    ASSERT_NE(bm, nullptr);
    const auto net = bm->build();
    const auto text = io::to_verilog_string(net, GetParam());
    const auto back = io::read_verilog_string(text);
    EXPECT_TRUE(logic::functionally_equivalent(net, back)) << text;
}

INSTANTIATE_TEST_SUITE_P(AllBenchmarks, VerilogRoundTrip,
                         ::testing::Values("xor2", "xnor2", "par_gen", "mux21", "par_check",
                                           "xor5_r1", "xor5_majority", "t", "t_5", "c17", "majority",
                                           "majority_5_r1", "cm82a_5", "newtag"));

}  // namespace
