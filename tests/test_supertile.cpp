#include "layout/supertile.hpp"

#include "io/benchmarks.hpp"
#include "layout/exact_physical_design.hpp"
#include "logic/rewriting.hpp"
#include "logic/tech_mapping.hpp"

#include <gtest/gtest.h>

namespace
{

using namespace bestagon;
using namespace bestagon::layout;

TEST(SuperTile, MinimumExpansionSatisfiesPitch)
{
    const ElectrodeTechnology tech{};
    const auto k = minimum_expansion_factor(tech);
    EXPECT_GE(k * tech.tile_height_nm, tech.min_metal_pitch_nm);
    // one tile row (18.4 nm) is below the 40 nm pitch: expansion is required
    EXPECT_GT(k, 1U);
    EXPECT_EQ(k, 3U);  // ceil(40 / 18.432)
}

TEST(SuperTile, ZoneBandsFollowExpansionFactor)
{
    GateLevelLayout layout{2, 12};
    const auto st = make_supertiles(layout, 3);
    EXPECT_EQ(st.zone({0, 0}), 0U);
    EXPECT_EQ(st.zone({0, 2}), 0U);
    EXPECT_EQ(st.zone({0, 3}), 1U);
    EXPECT_EQ(st.zone({0, 11}), 3U);
    EXPECT_EQ(st.num_bands(), 4U);
}

TEST(SuperTile, DefaultExpansionIsMinimumFeasible)
{
    GateLevelLayout layout{2, 6};
    const auto st = make_supertiles(layout);
    EXPECT_EQ(st.expansion_factor, minimum_expansion_factor());
    EXPECT_TRUE(st.satisfies_pitch(ElectrodeTechnology{}));
}

TEST(SuperTile, SingleRowExpansionViolatesPitch)
{
    GateLevelLayout layout{2, 6};
    const auto st = make_supertiles(layout, 1);
    EXPECT_FALSE(st.satisfies_pitch(ElectrodeTechnology{}));
}

TEST(SuperTile, ExpandedClockingStaysFeedForwardOnRealLayout)
{
    logic::NpnDatabase db;
    const auto mapped =
        logic::map_to_bestagon(logic::to_xag(io::find_benchmark("par_check")->build()));
    const auto layout = exact_physical_design(mapped);
    ASSERT_TRUE(layout.has_value());
    const auto st = make_supertiles(*layout, 3);
    EXPECT_TRUE(st.clocking_valid());
}

TEST(SuperTile, ElectrodePitchComputation)
{
    GateLevelLayout layout{1, 9};
    const auto st = make_supertiles(layout, 3);
    EXPECT_NEAR(st.electrode_pitch_nm(ElectrodeTechnology{}), 3 * 18.432, 1e-9);
}

}  // namespace
