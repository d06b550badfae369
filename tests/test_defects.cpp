#include "phys/defect.hpp"

#include "io/benchmarks.hpp"
#include "io/sqd_reader.hpp"
#include "io/sqd_writer.hpp"
#include "layout/apply_gate_library.hpp"
#include "layout/defect_map.hpp"
#include "layout/exact_physical_design.hpp"
#include "layout/scalable_physical_design.hpp"
#include "logic/rewriting.hpp"
#include "logic/tech_mapping.hpp"
#include "phys/charge_state.hpp"
#include "phys/defect_sweep.hpp"
#include "phys/ground_state_exact.hpp"
#include "phys/operational.hpp"
#include "testing/oracles.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <sstream>
#include <stdexcept>

namespace
{

using namespace bestagon;
using namespace bestagon::phys;
using bestagon::logic::TruthTable;

/// The validated vertical BDL wire in tile-local coordinates (the same
/// fixture as test_operational.cpp).
GateDesign vertical_wire()
{
    GateDesign d;
    d.name = "wire";
    for (int k = 0; k < 6; ++k)
    {
        const int m = 1 + 4 * k;
        d.sites.push_back({15, m, 0});
        d.sites.push_back({15, m + 1, 0});
    }
    d.input_pairs.push_back({{15, 1, 0}, {15, 2, 0}});
    d.output_pairs.push_back({{15, 21, 0}, {15, 22, 0}});
    d.drivers.push_back({{15, -3, 0}, {15, -2, 0}});
    d.output_perturbers.push_back({15, 25, 1});
    d.functions.push_back(TruthTable::from_binary("10"));
    return d;
}

logic::LogicNetwork mapped_benchmark(const std::string& name)
{
    const auto* bm = io::find_benchmark(name);
    logic::NpnDatabase db;
    return logic::map_to_bestagon(logic::rewrite(logic::to_xag(bm->build()), db));
}

core::RunBudget tripped_budget(core::StopSource& source)
{
    source.request_stop();
    return core::RunBudget{source.token(), {}};
}

// --- defect model ------------------------------------------------------------

TEST(DefectModel, AddRejectsInvalidDefects)
{
    DefectSurface surface;
    SurfaceDefect bad_radius;
    bad_radius.exclusion_radius_nm = -1.0;
    EXPECT_THROW(surface.add(bad_radius), std::invalid_argument);
    SurfaceDefect bad_charge;
    bad_charge.charge = std::nan("");
    EXPECT_THROW(surface.add(bad_charge), std::invalid_argument);
    EXPECT_TRUE(surface.empty());
}

TEST(DefectModel, BlockingQueries)
{
    DefectSurface surface;
    SurfaceDefect d;
    d.site = {10, 10, 0};
    d.kind = DefectKind::structural;
    d.charge = 0.0;
    d.exclusion_radius_nm = 0.8;
    surface.add(d);

    EXPECT_TRUE(surface.blocks({10, 10, 0}));      // coincident
    EXPECT_TRUE(surface.blocks({11, 10, 0}));      // 0.384 nm away
    EXPECT_FALSE(surface.blocks({10, 20, 0}));     // ~7.7 nm away
    ASSERT_NE(surface.blocking_defect({10, 10, 0}), nullptr);
    EXPECT_EQ(surface.blocking_defect({10, 20, 0}), nullptr);
    EXPECT_TRUE(surface.blocks_any({{10, 20, 0}, {11, 10, 0}}));
    EXPECT_FALSE(surface.has_charged());  // structural only

    // a zero-radius defect still blocks exactly its own site
    DefectSurface point;
    SurfaceDefect charged;
    charged.site = {0, 0, 0};
    point.add(charged);
    EXPECT_TRUE(point.blocks({0, 0, 0}));
    EXPECT_FALSE(point.blocks({1, 0, 0}));
    EXPECT_TRUE(point.has_charged());
}

TEST(DefectModel, ExternalPotentialMatchesManualSum)
{
    const SimulationParameters params;
    DefectSurface surface;
    SurfaceDefect d;
    d.site = {0, 0, 0};
    d.charge = -1.0;
    surface.add(d);

    const SiDBSite probe{10, 0, 0};
    const double r = probe.x() - d.site.x();
    EXPECT_DOUBLE_EQ(surface.external_potential(probe, params),
                     screened_coulomb(r, params));  // -q * V = +V for q = -1

    // no charged defect => empty row (the zero-cost defect-free contract)
    DefectSurface structural_only;
    SurfaceDefect s;
    s.kind = DefectKind::structural;
    s.charge = 0.0;
    structural_only.add(s);
    EXPECT_TRUE(structural_only.external_potentials({probe}, params).empty());
}

TEST(DefectSampling, DeterministicNestedAndValidated)
{
    const DefectRegion region{0, 40, 0, 40};
    DefectSampleParams params;
    params.density_per_nm2 = 0.05;

    const auto a = sample_defect_surface(region, params, 42);
    const auto b = sample_defect_surface(region, params, 42);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i)
    {
        EXPECT_EQ(a.defects()[i].site.n, b.defects()[i].site.n);
        EXPECT_EQ(a.defects()[i].site.m, b.defects()[i].site.m);
    }
    EXPECT_NE(sample_defect_surface(region, params, 43).defects()[0].site.n,
              a.defects()[0].site.n);  // a different seed draws a different stream (with
                                       // overwhelming probability on a 41x41 region)

    // prefix nesting: the low-count surface is exactly the head of the stream
    const std::size_t lo = defect_count_for_density(region, 0.01, 42);
    const std::size_t hi = defect_count_for_density(region, 0.05, 42);
    ASSERT_LE(lo, hi);
    const auto small = sample_defect_surface(region, params, 42, lo);
    const auto large = sample_defect_surface(region, params, 42, hi);
    ASSERT_EQ(small.size(), lo);
    ASSERT_EQ(large.size(), hi);
    for (std::size_t i = 0; i < lo; ++i)
    {
        EXPECT_EQ(small.defects()[i].site.n, large.defects()[i].site.n);
        EXPECT_EQ(small.defects()[i].site.m, large.defects()[i].site.m);
    }

    DefectSampleParams bad = params;
    bad.density_per_nm2 = -0.1;
    EXPECT_THROW(bad.validate(), std::invalid_argument);
    bad = params;
    bad.charged_fraction = 1.5;
    EXPECT_THROW(bad.validate(), std::invalid_argument);
}

// --- parameter validation ----------------------------------------------------

TEST(ParameterValidation, SimulationParametersRejectNonPhysicalValues)
{
    SimulationParameters p;
    p.epsilon_r = 0.0;
    EXPECT_THROW(validate_parameters(p), std::invalid_argument);
    p = SimulationParameters{};
    p.lambda_tf = -5.0;
    EXPECT_THROW(validate_parameters(p), std::invalid_argument);
    p = SimulationParameters{};
    EXPECT_NO_THROW(validate_parameters(p));
    // the operational layer validates before simulating
    p.epsilon_r = -1.0;
    EXPECT_THROW(static_cast<void>(check_operational(vertical_wire(), p)),
                 std::invalid_argument);
}

// --- defect-aware simulation -------------------------------------------------

TEST(DefectAware, EmptySurfaceIsBitIdentical)
{
    // reference: each pattern's pristine instance, built without a surface
    const auto design = vertical_wire();
    const SimulationParameters params;
    const auto with_empty = check_operational(design, params, DefectSurface{});
    ASSERT_EQ(with_empty.details.size(), with_empty.patterns_total);
    EXPECT_TRUE(with_empty.operational);
    EXPECT_FALSE(with_empty.blocked);
    for (std::uint64_t p = 0; p < with_empty.patterns_total; ++p)
    {
        const auto pristine = find_ground_state(SiDBSystem{design.instance_sites(p), params});
        EXPECT_EQ(pristine.grand_potential,
                  with_empty.details[p].ground_state.grand_potential);  // bit-identical
        EXPECT_EQ(pristine.config, with_empty.details[p].ground_state.config);
    }
}

TEST(DefectAware, BlockedDesignShortCircuits)
{
    const auto design = vertical_wire();
    DefectSurface surface;
    SurfaceDefect d;
    d.site = design.sites.front();  // right on top of a permanent SiDB
    surface.add(d);
    const auto result = check_operational(design, SimulationParameters{}, surface);
    EXPECT_TRUE(result.blocked);
    EXPECT_FALSE(result.operational);
    EXPECT_FALSE(result.blocked_reason.empty());
    EXPECT_TRUE(result.details.empty());  // nothing was simulated
}

TEST(DefectAware, CacheMatchesDirectSystemWithChargedDefects)
{
    const auto design = vertical_wire();
    const SimulationParameters params;
    DefectSurface surface;
    SurfaceDefect d;
    d.site = {25, 11, 0};  // ~3.8 nm beside the wire: strong but not blocking
    surface.add(d);

    const GateInstanceCache cache{design, params, &surface};
    ASSERT_FALSE(cache.blocked());
    for (const std::uint64_t pattern : {0ULL, 1ULL})
    {
        const auto fast = cache.instantiate(pattern);
        const SiDBSystem direct{design.instance_sites(pattern), params, surface};
        ASSERT_EQ(fast.size(), direct.size());
        ASSERT_TRUE(fast.has_external_potentials());
        for (std::size_t i = 0; i < fast.size(); ++i)
        {
            EXPECT_EQ(fast.external_potential(i), direct.external_potential(i))
                << "pattern " << pattern << " site " << i;
            for (std::size_t j = 0; j < fast.size(); ++j)
            {
                EXPECT_EQ(fast.potential(i, j), direct.potential(i, j));
            }
        }
        const auto gs_fast = exact_ground_state(fast);
        const auto gs_direct = exact_ground_state(direct);
        EXPECT_EQ(gs_fast.grand_potential, gs_direct.grand_potential);
        EXPECT_EQ(gs_fast.config, gs_direct.config);
    }
}

// --- defect-avoiding placement & routing ------------------------------------

TEST(DefectMap, TileBlockingFollowsExclusionRadii)
{
    DefectSurface surface;
    SurfaceDefect d;
    d.site = layout::tile_origin({0, 0});  // upper-left corner of tile (0, 0)
    d.kind = DefectKind::structural;
    d.charge = 0.0;
    d.exclusion_radius_nm = 1.0;
    surface.add(d);

    EXPECT_TRUE(layout::tile_blocked({0, 0}, surface));
    EXPECT_FALSE(layout::tile_blocked({3, 5}, surface));
    const auto blocked = layout::blocked_tiles(4, 4, surface);
    ASSERT_EQ(blocked.size(), 1U);
    EXPECT_EQ(blocked.front(), (layout::HexCoord{0, 0}));
}

TEST(ExactPD, RoutesAroundBlockedTilesAndDiagnosesFullBlockage)
{
    const auto mapped = mapped_benchmark("xor2");

    layout::ExactPDOptions opt;
    SurfaceDefect corner;
    corner.site = layout::tile_origin({0, 0});
    corner.kind = DefectKind::structural;
    corner.charge = 0.0;
    corner.exclusion_radius_nm = 1.0;
    opt.defects.add(corner);
    const auto layout = layout::exact_physical_design(mapped, opt);
    ASSERT_TRUE(layout.has_value());
    for (const auto& tile : layout->all_tiles())
    {
        if (!layout->is_empty(tile))
        {
            EXPECT_FALSE(layout::tile_blocked(tile, opt.defects));
        }
    }

    // a surface-spanning defect blocks every tile: the instance is refuted
    // and the diagnosis names the defect constraint group
    layout::ExactPDOptions blocked_opt;
    blocked_opt.diagnose_infeasibility = true;
    SurfaceDefect everywhere = corner;
    everywhere.exclusion_radius_nm = 1e6;
    blocked_opt.defects.add(everywhere);
    layout::ExactPDStats stats;
    const auto none = layout::exact_physical_design(mapped, blocked_opt, &stats);
    EXPECT_FALSE(none.has_value());
    ASSERT_FALSE(stats.refuting_groups.empty());
    EXPECT_NE(std::find(stats.refuting_groups.begin(), stats.refuting_groups.end(), "defects"),
              stats.refuting_groups.end());
}

TEST(ScalablePD, TranslatesLayoutOffDefectiveTiles)
{
    const auto mapped = mapped_benchmark("xor2");
    const auto baseline = layout::scalable_physical_design(mapped);
    ASSERT_TRUE(baseline.has_value());

    // drop a defect onto the first occupied tile of the marched layout
    DefectSurface surface;
    for (const auto& tile : baseline->all_tiles())
    {
        if (!baseline->is_empty(tile))
        {
            SurfaceDefect d;
            d.site = layout::tile_origin(tile);
            d.kind = DefectKind::structural;
            d.charge = 0.0;
            d.exclusion_radius_nm = 0.5;
            surface.add(d);
            break;
        }
    }
    ASSERT_FALSE(surface.empty());

    layout::ScalablePDStats stats;
    const auto shifted = layout::scalable_physical_design(mapped, {}, &stats, &surface);
    ASSERT_TRUE(shifted.has_value()) << stats.message;
    EXPECT_TRUE(stats.defect_shift_x > 0 || stats.defect_shift_y > 0);
    EXPECT_EQ(stats.defect_shift_y % 4, 0U);  // clock zones preserved
    for (const auto& tile : shifted->all_tiles())
    {
        if (!shifted->is_empty(tile))
        {
            EXPECT_FALSE(layout::tile_blocked(tile, surface));
        }
    }
}

// --- .sqd round trip ---------------------------------------------------------

TEST(SqdRoundTrip, DefectLayerSurvivesWriteAndRead)
{
    const auto design = vertical_wire();
    DefectSurface surface;
    SurfaceDefect charged;
    charged.site = {30, 4, 1};
    charged.charge = 1.0;
    charged.exclusion_radius_nm = 0.25;
    surface.add(charged);
    SurfaceDefect structural;
    structural.site = {-5, 7, 0};
    structural.kind = DefectKind::structural;
    structural.charge = 0.0;
    structural.exclusion_radius_nm = 1.5;
    surface.add(structural);

    std::ostringstream out;
    io::write_sqd(out, design, surface);
    std::istringstream in{out.str()};
    const auto contents = io::read_sqd(in);
    EXPECT_TRUE(contents.ok()) << (contents.errors.empty() ? "" : contents.errors.front());
    EXPECT_EQ(contents.name, design.name);
    EXPECT_EQ(contents.sites, design.instance_sites(0));
    ASSERT_EQ(contents.defects.size(), surface.size());
    for (std::size_t i = 0; i < surface.size(); ++i)
    {
        const auto& written = surface.defects()[i];
        const auto& read = contents.defects.defects()[i];
        EXPECT_EQ(read.site, written.site);
        EXPECT_EQ(read.kind, written.kind);
        EXPECT_DOUBLE_EQ(read.charge, written.charge);
        EXPECT_DOUBLE_EQ(read.exclusion_radius_nm, written.exclusion_radius_nm);
    }
}

TEST(SqdRoundTrip, MalformedEntriesAreRecordedNotThrown)
{
    const std::string doc = R"(<siqad>
<name>damaged</name>
<design>
<dbdot><layer_id>1</layer_id></dbdot>
<dbdot><latcoord n="1" m="2" l="0"/></dbdot>
<defect><latcoord n="3" m="4" l="7"/></defect>
<defect><latcoord n="3" m="4" l="0"/><property kind="weird"/></defect>
<defect><latcoord n="5" m="6" l="1"/><property kind="structural" exclusion_radius_nm="-2"/></defect>
<defect><latcoord n="7" m="8" l="0"/><property charge="abc"/></defect>
<defect><latcoord n="9" m="1" l="0"/></defect>
</design>
</siqad>)";
    std::istringstream in{doc};
    const auto contents = io::read_sqd(in);
    EXPECT_FALSE(contents.ok());
    EXPECT_EQ(contents.errors.size(), 5U);  // bad dbdot + four bad defects
    ASSERT_EQ(contents.sites.size(), 1U);   // the well-formed dbdot survived
    EXPECT_EQ(contents.sites.front(), (SiDBSite{1, 2, 0}));
    ASSERT_EQ(contents.defects.size(), 1U);  // the well-formed defect survived
    EXPECT_EQ(contents.defects.defects().front().site, (SiDBSite{9, 1, 0}));

    std::istringstream garbage{"not xml at all"};
    const auto bad = io::read_sqd(garbage);
    EXPECT_FALSE(bad.ok());
    EXPECT_TRUE(bad.sites.empty());
}

// --- Monte-Carlo yield sweep -------------------------------------------------

TEST(DefectSweep, ParamValidation)
{
    DefectSweepParams sweep;
    sweep.densities_per_nm2 = {};
    EXPECT_THROW(sweep.validate(), std::invalid_argument);
    sweep = DefectSweepParams{};
    sweep.densities_per_nm2 = {0.01, 0.01};  // not strictly ascending
    EXPECT_THROW(sweep.validate(), std::invalid_argument);
    sweep = DefectSweepParams{};
    sweep.samples = 0;
    EXPECT_THROW(sweep.validate(), std::invalid_argument);
    sweep = DefectSweepParams{};
    sweep.margin_nm = -1.0;
    EXPECT_THROW(sweep.validate(), std::invalid_argument);
    EXPECT_NO_THROW(DefectSweepParams{}.validate());
}

TEST(DefectSweep, SurvivalCurveIsMonotoneAndDeterministic)
{
    const auto design = vertical_wire();
    DefectSweepParams sweep;
    sweep.densities_per_nm2 = {0.002, 0.01, 0.03};
    sweep.samples = 10;
    sweep.num_threads = 1;
    const auto a = defect_yield_sweep(design, SimulationParameters{}, sweep);
    const auto b = defect_yield_sweep(design, SimulationParameters{}, sweep);
    ASSERT_EQ(a.points.size(), 3U);
    EXPECT_FALSE(a.cancelled);
    for (std::size_t k = 0; k < a.points.size(); ++k)
    {
        EXPECT_EQ(a.points[k].samples_evaluated, 10U);
        EXPECT_EQ(a.points[k].operational, b.points[k].operational);  // rerun identical
        if (k > 0)
        {
            EXPECT_LE(a.points[k].operational, a.points[k - 1].operational);
        }
    }
    const auto json = to_json(a);
    EXPECT_NE(json.find("\"yield\""), std::string::npos);
    EXPECT_NE(json.find(design.name), std::string::npos);
}

TEST(DefectSweep, TrippedBudgetCancelsWithoutEvaluating)
{
    const auto design = vertical_wire();
    DefectSweepParams sweep;
    sweep.densities_per_nm2 = {0.01};
    sweep.samples = 4;
    sweep.num_threads = 1;
    core::StopSource source;
    const auto result =
        defect_yield_sweep(design, SimulationParameters{}, sweep, tripped_budget(source));
    EXPECT_TRUE(result.cancelled);
    ASSERT_EQ(result.points.size(), 1U);
    EXPECT_EQ(result.points.front().samples_evaluated, 0U);
}

// --- testkit oracle ----------------------------------------------------------

TEST(TestkitOracles, DefectDifferentialHappyPath)
{
    const auto verdict =
        testkit::defect_differential(vertical_wire(), SimulationParameters{}, 0xbe57a60eULL);
    EXPECT_TRUE(verdict) << verdict.detail;
}

TEST(TestkitOracles, DefectDifferentialCatchesIgnoredPotentials)
{
    const auto verdict =
        testkit::defect_differential(vertical_wire(), SimulationParameters{}, 0xbe57a60eULL, 1e-12,
                                     testkit::DefectFault::ignore_defect_potentials);
    EXPECT_FALSE(verdict);
    EXPECT_FALSE(verdict.detail.empty());
}

}  // namespace
