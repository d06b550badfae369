#include "layout/scalable_physical_design.hpp"

#include "io/benchmarks.hpp"
#include "layout/design_rules.hpp"
#include "logic/rewriting.hpp"
#include "logic/tech_mapping.hpp"

#include <gtest/gtest.h>

namespace
{

using namespace bestagon;
using namespace bestagon::layout;

logic::LogicNetwork mapped_benchmark(const std::string& name)
{
    const auto* bm = io::find_benchmark(name);
    logic::NpnDatabase db;
    return logic::map_to_bestagon(logic::rewrite(logic::to_xag(bm->build()), db));
}

TEST(ScalablePD, RejectsNonCompliantNetworks)
{
    logic::LogicNetwork n;
    const auto a = n.create_pi();
    const auto x = n.create_not(a);
    n.create_po(x);
    n.create_po(x);
    EXPECT_THROW(static_cast<void>(scalable_physical_design(n)), std::invalid_argument);
}

/// The constructive marcher must succeed on these benchmarks and produce
/// correct, DRC-clean layouts (it may legitimately bail out on densely
/// reconvergent netlists; those fall back to exact PD in the flow).
class ScalablePDBenchmark : public ::testing::TestWithParam<std::string>
{
};

TEST_P(ScalablePDBenchmark, ProducesCorrectLayouts)
{
    const auto spec = io::find_benchmark(GetParam())->build();
    const auto mapped = mapped_benchmark(GetParam());
    const auto layout = scalable_physical_design(mapped);
    ASSERT_TRUE(layout.has_value());
    const auto extracted = layout->extract_network(mapped);
    EXPECT_TRUE(logic::functionally_equivalent(spec, extracted));
    const auto drc = check_design_rules(*layout);
    EXPECT_TRUE(drc.clean()) << (drc.violations.empty() ? "" : drc.violations.front().message);
}

INSTANTIATE_TEST_SUITE_P(KnownGood, ScalablePDBenchmark,
                         ::testing::Values("xor2", "xnor2", "par_gen", "par_check", "xor5_r1",
                                           "xor5_majority"));

TEST(ScalablePD, LayoutsAreLargerThanExactButBalanced)
{
    const auto mapped = mapped_benchmark("par_check");
    const auto layout = scalable_physical_design(mapped);
    ASSERT_TRUE(layout.has_value());
    // all POs are pinned to the final row, so every path is balanced
    for (const auto& t : layout->all_tiles())
    {
        for (const auto& occ : layout->occupants(t))
        {
            if (occ.type == bestagon::logic::GateType::po)
            {
                EXPECT_EQ(t.y, static_cast<std::int32_t>(layout->height()) - 1);
            }
        }
    }
}

TEST(ScalablePD, FailureIsGracefulOnHardNetworks)
{
    // densely reconvergent networks may defeat the marcher; the call must
    // return nullopt instead of throwing or looping
    const auto mapped = mapped_benchmark("cm82a_5");
    EXPECT_NO_THROW({
        const auto layout = scalable_physical_design(mapped);
        if (layout.has_value())
        {
            const auto extracted = layout->extract_network(mapped);
            EXPECT_TRUE(logic::functionally_equivalent(io::find_benchmark("cm82a_5")->build(),
                                                       extracted));
        }
    });
}

}  // namespace
