#include "layout/apply_gate_library.hpp"

#include "io/benchmarks.hpp"
#include "layout/exact_physical_design.hpp"
#include "logic/rewriting.hpp"
#include "logic/tech_mapping.hpp"

#include <gtest/gtest.h>

namespace
{

using namespace bestagon;
using namespace bestagon::layout;

GateLevelLayout layout_for(const std::string& name)
{
    logic::NpnDatabase db;
    const auto mapped =
        logic::map_to_bestagon(logic::rewrite(logic::to_xag(io::find_benchmark(name)->build()), db));
    auto layout = exact_physical_design(mapped);
    EXPECT_TRUE(layout.has_value());
    return *layout;
}

TEST(ApplyLibrary, TileOriginsFollowOddRowShift)
{
    EXPECT_EQ(tile_origin({0, 0}).n, 0);
    EXPECT_EQ(tile_origin({1, 0}).n, tile_columns);
    EXPECT_EQ(tile_origin({0, 1}).n, tile_columns / 2);  // odd row shifted
    EXPECT_EQ(tile_origin({0, 1}).m, tile_rows);
    EXPECT_EQ(tile_origin({2, 3}).m, 3 * tile_rows);
}

TEST(ApplyLibrary, LogicalAreaMatchesPaperFormula)
{
    const GateLevelLayout l{4, 7};
    // 28 tiles x (23.04 nm x 18.432 nm) ~ 11.9 knm^2, the Table-1 scale
    EXPECT_NEAR(logical_area_nm2(l), 4 * 23.04 * 7 * 18.432, 1e-6);
}

TEST(ApplyLibrary, Xor2ProducesSidbLayout)
{
    const auto layout = layout_for("xor2");
    ApplyStats stats;
    const auto sidb = apply_gate_library(layout, &stats);
    EXPECT_EQ(stats.tiles_mapped, layout.num_occupied_tiles());
    EXPECT_GT(sidb.num_sidbs(), 40U);   // 4 tiles of wires/gates
    EXPECT_LT(sidb.num_sidbs(), 120U);  // sane upper bound
    EXPECT_TRUE(sidb.all_sites_unique());
}

TEST(ApplyLibrary, SidbCountsScaleWithLayoutSize)
{
    const auto small = apply_gate_library(layout_for("xor2"));
    const auto large = apply_gate_library(layout_for("c17"));
    EXPECT_GT(large.num_sidbs(), 2 * small.num_sidbs());
}

TEST(ApplyLibrary, BoundingBoxFitsTheTileGrid)
{
    const auto layout = layout_for("par_gen");
    const auto sidb = apply_gate_library(layout);
    const auto [x0, y0, x1, y1] = sidb.bounding_box_nm();
    EXPECT_GE(x0, 0.0);
    EXPECT_GE(y0, 0.0);
    // everything must fit in (width + half-shift) x height tiles
    EXPECT_LE(x1, (layout.width() + 0.5) * 23.04 + 1e-9);
    EXPECT_LE(y1, layout.height() * 18.432 + 1e-9);
}

TEST(ApplyLibrary, CrossingsUseTheDedicatedTile)
{
    // mux21 is the smallest benchmark whose exact layout contains a crossing
    const auto layout = layout_for("mux21");
    if (layout.num_crossing_tiles() > 0)
    {
        ApplyStats stats;
        const auto sidb = apply_gate_library(layout, &stats);
        EXPECT_EQ(stats.crossings_mapped, layout.num_crossing_tiles());
        EXPECT_TRUE(sidb.all_sites_unique());
    }
}

TEST(ApplyLibrary, AllTable1BenchmarksMapWithoutCollisions)
{
    for (const char* name : {"xor2", "par_gen", "mux21", "par_check", "c17"})
    {
        const auto layout = layout_for(name);
        const auto sidb = apply_gate_library(layout);
        EXPECT_TRUE(sidb.all_sites_unique()) << name;
        EXPECT_GT(sidb.num_sidbs(), 0U) << name;
    }
}

}  // namespace
