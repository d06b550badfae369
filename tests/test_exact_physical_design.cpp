#include "layout/exact_physical_design.hpp"

#include "layout/apply_gate_library.hpp"
#include "layout/defect_map.hpp"
#include "layout/design_rules.hpp"
#include "layout/equivalence_checking.hpp"
#include "logic/benchmarks.hpp"
#include "logic/rewriting.hpp"
#include "logic/tech_mapping.hpp"
#include "phys/defect.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <utility>
#include <vector>

namespace
{

using namespace bestagon;
using namespace bestagon::layout;

logic::LogicNetwork mapped_benchmark(const std::string& name)
{
    const auto* bm = logic::find_benchmark(name);
    logic::NpnDatabase db;
    return logic::map_to_bestagon(logic::rewrite(logic::to_xag(bm->build()), db));
}

TEST(ExactPD, MinimumHeightIsCriticalPathPlusOne)
{
    logic::LogicNetwork n;
    const auto a = n.create_pi();
    const auto b = n.create_pi();
    n.create_po(n.create_xor(a, b));
    // PI (row 0) -> gate (row 1) -> PO (row 2)
    EXPECT_EQ(minimum_height(n), 3U);
}

TEST(ExactPD, Xor2MatchesPaperAspectRatio)
{
    const auto mapped = mapped_benchmark("xor2");
    const auto layout = exact_physical_design(mapped);
    ASSERT_TRUE(layout.has_value());
    EXPECT_EQ(layout->width(), 2U);
    EXPECT_EQ(layout->height(), 3U);  // paper Table 1: 2x3
}

TEST(ExactPD, RejectsNonCompliantNetworks)
{
    logic::LogicNetwork n;
    const auto a = n.create_pi();
    const auto b = n.create_pi();
    const auto x = n.create_and(a, b);
    n.create_po(x);
    n.create_po(x);  // fan-out 2 without fanout node
    EXPECT_THROW(static_cast<void>(exact_physical_design(n)), std::invalid_argument);
}

TEST(ExactPD, InfeasibleSizeLimitsReturnNullopt)
{
    const auto mapped = mapped_benchmark("c17");
    ExactPDOptions opt;
    opt.max_width = 2;
    opt.max_height = 4;  // too small for c17
    ExactPDStats stats;
    const auto layout = exact_physical_design(mapped, opt, &stats);
    EXPECT_FALSE(layout.has_value());
    // c17 has 5 PIs, so no candidate size even exists under max_width = 2
    EXPECT_FALSE(stats.message.empty());
}

/// 2-PI network whose depth constraints pin four gates to one row: at the
/// minimal height and width <= 3 every aspect ratio is genuinely refuted.
logic::LogicNetwork congestion_network()
{
    logic::LogicNetwork n;
    const auto a = n.create_pi("a");
    const auto b = n.create_pi("b");
    const auto fa = n.create_fanout(a);
    const auto fb = n.create_fanout(b);
    const auto fa1 = n.create_fanout(fa);
    const auto fa2 = n.create_fanout(fa);
    const auto fb1 = n.create_fanout(fb);
    const auto fb2 = n.create_fanout(fb);
    const auto x1 = n.create_xor(fa1, fb1);
    const auto x2 = n.create_and(fa1, fb2);
    const auto x3 = n.create_or(fa2, fb1);
    const auto x4 = n.create_nand(fa2, fb2);
    const auto y1 = n.create_xor(x1, x2);
    const auto y2 = n.create_xor(x3, x4);
    n.create_po(n.create_xor(y1, y2), "f");
    return n;
}

TEST(ExactPD, CertifiesEveryUnsatSize)
{
    const auto n = congestion_network();
    ExactPDOptions opt;
    opt.max_width = 3;
    opt.max_height = minimum_height(n);
    opt.certify_unsat = true;
    ExactPDStats stats;
    const auto layout = exact_physical_design(n, opt, &stats);
    EXPECT_FALSE(layout.has_value());
    EXPECT_FALSE(stats.budget_exhausted);
    EXPECT_GT(stats.sizes_tried, 0U);
    EXPECT_EQ(stats.proofs_checked, stats.sizes_tried);  // every decline certified
    EXPECT_EQ(stats.proof_failures, 0U);
}

/// Every size gets its own solver: on a ladder that refutes narrow sizes
/// before a wider one fits, each refuted size is certified on its own and
/// no encoding grid carries over between sizes.
TEST(ExactPD, FreshLaneCertifiesEveryUnsatSize)
{
    const auto n = congestion_network();
    ExactPDOptions opt;
    opt.max_width = 8;
    opt.max_height = 12;
    opt.certify_unsat = true;
    ExactPDStats stats;
    const auto layout = exact_physical_design(n, opt, &stats);
    ASSERT_TRUE(layout.has_value());
    EXPECT_FALSE(stats.budget_exhausted);
    ASSERT_GT(stats.sizes_tried, 1U);
    EXPECT_EQ(stats.proofs_checked, stats.sizes_tried - 1);  // all but the feasible last size
    EXPECT_EQ(stats.proof_failures, 0U);
    EXPECT_EQ(stats.grid_generations, 0U);  // no persistent grid
}

TEST(ExactPD, RecordsPerSizeVerdictsAndGridGenerations)
{
    const auto n = congestion_network();
    ExactPDOptions opt;
    opt.max_width = 3;
    opt.max_height = minimum_height(n);
    ExactPDStats stats;
    const auto layout = exact_physical_design(n, opt, &stats);
    ASSERT_FALSE(layout.has_value());
    ASSERT_EQ(stats.size_verdicts.size(), stats.sizes_tried);
    std::uint64_t conflicts = 0;
    for (const auto& v : stats.size_verdicts)
    {
        EXPECT_EQ(v.result, sat::Result::unsatisfiable)
            << v.size.width << "x" << v.size.height << " was not refuted";
        conflicts += v.conflicts;
    }
    // the per-size conflicts add up to the run's total; no grid ever grows
    EXPECT_EQ(conflicts, stats.total_conflicts);
    EXPECT_EQ(stats.grid_generations, 0U);
}

/// A starved conflict budget cuts sizes mid-ladder: the run must latch
/// budget_exhausted (suppressing any infeasibility diagnosis), keep walking
/// the remaining ratios, and record the unknown verdicts it collected.
TEST(ExactPD, BudgetExhaustionMidLadderIsLatchedAndDiagnosisSkipped)
{
    const auto n = congestion_network();
    ExactPDOptions opt;
    opt.max_width = 3;
    opt.max_height = minimum_height(n);
    opt.conflicts_per_size = 1;
    opt.diagnose_infeasibility = true;
    ExactPDStats stats;
    const auto layout = exact_physical_design(n, opt, &stats);
    EXPECT_FALSE(layout.has_value());
    EXPECT_TRUE(stats.budget_exhausted);
    EXPECT_TRUE(stats.refuting_groups.empty());  // a truncated decline proves nothing
    bool saw_unknown = false;
    for (const auto& v : stats.size_verdicts)
    {
        saw_unknown = saw_unknown || v.result == sat::Result::unknown;
    }
    EXPECT_TRUE(saw_unknown);
}

TEST(ExactPD, PreTrippedTokenCancelsBeforeAnySolve)
{
    const auto n = congestion_network();
    core::StopSource source;
    source.request_stop();
    ExactPDOptions opt;
    opt.run.token = source.token();
    ExactPDStats stats;
    const auto layout = exact_physical_design(n, opt, &stats);
    EXPECT_FALSE(layout.has_value());
    EXPECT_TRUE(stats.cancelled);
    EXPECT_EQ(stats.sizes_tried, 0U);
    EXPECT_EQ(stats.message, "cancelled");
}

TEST(ExactPD, ZeroTimeBudgetExhaustsBeforeAnySolve)
{
    const auto n = congestion_network();
    ExactPDOptions opt;
    opt.time_budget_ms = 0;
    ExactPDStats stats;
    const auto layout = exact_physical_design(n, opt, &stats);
    EXPECT_FALSE(layout.has_value());
    EXPECT_TRUE(stats.budget_exhausted);
    EXPECT_EQ(stats.sizes_tried, 0U);
    EXPECT_EQ(stats.message, "time budget exhausted");
}

/// A blocked corner tile is avoided: no occupied tile of the layout is
/// blocked, and the area-minimal size moves from 2x3 to 3x3.
TEST(ExactPD, DefectAvoidanceMatchesBetweenLanes)
{
    const auto mapped = mapped_benchmark("xor2");
    phys::SurfaceDefect corner;
    corner.site = tile_origin({0, 0});
    corner.kind = phys::DefectKind::structural;
    corner.charge = 0.0;
    corner.exclusion_radius_nm = 1.0;

    ExactPDOptions opt;
    opt.defects.add(corner);
    const auto layout = exact_physical_design(mapped, opt);

    ASSERT_TRUE(layout.has_value());
    EXPECT_EQ(layout->width(), 3U);
    EXPECT_EQ(layout->height(), 3U);
    for (const auto& tile : layout->all_tiles())
    {
        if (!layout->is_empty(tile))
        {
            EXPECT_FALSE(tile_blocked(tile, opt.defects));
        }
    }
}

TEST(ExactPD, DiagnosesRefutingConstraintGroups)
{
    const auto n = congestion_network();
    ExactPDOptions opt;
    opt.max_width = 2;
    opt.max_height = minimum_height(n);
    opt.diagnose_infeasibility = true;
    ExactPDStats stats;
    const auto layout = exact_physical_design(n, opt, &stats);
    ASSERT_FALSE(layout.has_value());
    // four gates pinned to a two-tile row: placement + tile exclusivity
    // refute the instance; routing and capacity are not needed
    ASSERT_FALSE(stats.refuting_groups.empty());
    EXPECT_EQ(stats.refuting_groups,
              (std::vector<std::string>{"exclusivity", "placement"}));
}

TEST(ExactPD, NoDiagnosisWhenLayoutExists)
{
    const auto mapped = mapped_benchmark("xor2");
    ExactPDOptions opt;
    opt.certify_unsat = true;
    opt.diagnose_infeasibility = true;
    ExactPDStats stats;
    const auto layout = exact_physical_design(mapped, opt, &stats);
    ASSERT_TRUE(layout.has_value());
    EXPECT_TRUE(stats.refuting_groups.empty());
    EXPECT_EQ(stats.proof_failures, 0U);
}

/// Property suite over benchmarks small enough for fast exact solving:
/// layouts are functionally correct, DRC-clean and respect the documented
/// aspect-ratio scale of the paper's Table 1.
class ExactPDBenchmark : public ::testing::TestWithParam<std::string>
{
};

TEST_P(ExactPDBenchmark, ProducesCorrectAndCleanLayouts)
{
    const auto* bm = logic::find_benchmark(GetParam());
    const auto spec = bm->build();
    const auto mapped = mapped_benchmark(GetParam());
    ExactPDOptions opt;
    opt.time_budget_ms = 60000;
    const auto layout = exact_physical_design(mapped, opt);
    ASSERT_TRUE(layout.has_value());

    // functional correctness via extraction
    const auto extracted = layout->extract_network(mapped);
    EXPECT_TRUE(logic::functionally_equivalent(spec, extracted));

    // design rules
    const auto drc = check_design_rules(*layout);
    EXPECT_TRUE(drc.clean()) << (drc.violations.empty() ? "" : drc.violations.front().message);

    // area stays within 1.5x of the paper's Table 1 (netlists are partially
    // reconstructed, so exact equality is not guaranteed)
    EXPECT_LE(layout->area(), bm->paper.area_tiles * 3 / 2 + 1);
}

INSTANTIATE_TEST_SUITE_P(SmallAndMedium, ExactPDBenchmark,
                         ::testing::Values("xor2", "xnor2", "par_gen", "mux21", "par_check",
                                           "xor5_r1", "majority", "c17"));

TEST(ExactPD, PlacesAllNodesExactlyOnce)
{
    const auto mapped = mapped_benchmark("mux21");
    const auto layout = exact_physical_design(mapped);
    ASSERT_TRUE(layout.has_value());
    std::size_t placed = 0;
    for (const auto& t : layout->all_tiles())
    {
        for (const auto& occ : layout->occupants(t))
        {
            if (!occ.is_wire())
            {
                ++placed;
            }
        }
    }
    std::size_t expected = 0;
    for (const auto id : mapped.topological_order())
    {
        static_cast<void>(id);
        ++expected;
    }
    EXPECT_EQ(placed, expected);
}

// --- work counters ------------------------------------------------------------

/// The ladder as "WxH:S" / "WxH:U" tokens in exploration order, each
/// followed by "/<conflicts>" with \p with_conflicts.
std::string verdict_trace(const ExactPDStats& stats, bool with_conflicts = false)
{
    std::ostringstream out;
    for (const auto& v : stats.size_verdicts)
    {
        out << (out.tellp() > 0 ? " " : "") << v.size.width << 'x' << v.size.height << ':'
            << (v.result == sat::Result::satisfiable     ? 'S'
                : v.result == sat::Result::unsatisfiable ? 'U'
                                                         : '?');
        if (with_conflicts)
        {
            out << '/' << v.conflicts;
        }
    }
    return out.str();
}

/// Runs the exact ladder on a Table-1 benchmark and pins its deterministic
/// work: total conflicts and the per-size verdicts. A moved count means a
/// variable, a clause, their order or a decision of the P&R search changed.
void expect_pinned_ladder(const std::string& name, std::uint64_t conflicts,
                          const std::string& verdicts)
{
    ExactPDStats stats;
    const auto layout = exact_physical_design(mapped_benchmark(name), {}, &stats);
    ASSERT_TRUE(layout.has_value()) << name;
    EXPECT_EQ(stats.total_conflicts, conflicts) << name;
    EXPECT_EQ(verdict_trace(stats), verdicts) << name;
}

TEST(WorkCounters, ExactPnrLadderOnMux21)
{
    expect_pinned_ladder("mux21", 1, "3x6:S");
}

TEST(WorkCounters, ExactPnrLadderOnParCheck)
{
    expect_pinned_ladder("par_check", 51, "4x4:U 5x4:U 4x5:S");
}

TEST(WorkCounters, ExactPnrLadderOnC17)
{
    expect_pinned_ladder("c17", 20, "5x8:S");
}

TEST(WorkCounters, ExactPnrLadderOnCm82a5)
{
    expect_pinned_ladder("cm82a_5", 439, "5x12:U 5x13:U 5x14:S");
}

TEST(WorkCounters, ExactPnrLadderOnMajority5R1)
{
    expect_pinned_ladder("majority_5_r1", 754, "5x11:U 5x12:U 5x13:S");
}

/// Per-size conflicts of the multi-rung ladders: each size runs on its own
/// solver, so every rung's count is pinned on its own.
TEST(WorkCounters, ExactPnrConflictsPerRung)
{
    for (const auto& [name, trace] : std::vector<std::pair<std::string, std::string>>{
             {"par_check", "4x4:U/17 5x4:U/21 4x5:S/13"},
             {"cm82a_5", "5x12:U/14 5x13:U/122 5x14:S/303"},
             {"majority_5_r1", "5x11:U/33 5x12:U/255 5x13:S/466"}})
    {
        ExactPDStats stats;
        ASSERT_TRUE(exact_physical_design(mapped_benchmark(name), {}, &stats).has_value()) << name;
        EXPECT_EQ(verdict_trace(stats, /*with_conflicts=*/true), trace) << name;
    }
}

TEST(WorkCounters, ExactPnrEquivalenceCheckOnC17)
{
    // the flow's step 5: the c17 layout mitered against its mapped network
    const auto mapped = mapped_benchmark("c17");
    const auto layout = exact_physical_design(mapped);
    ASSERT_TRUE(layout.has_value());
    EquivalenceStats stats;
    EXPECT_EQ(check_layout_equivalence(mapped, *layout, &stats), EquivalenceResult::equivalent);
    EXPECT_EQ(stats.conflicts, 12U);
}

}  // namespace
