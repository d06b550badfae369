#include "layout/exact_physical_design.hpp"

#include "io/benchmarks.hpp"
#include "layout/apply_gate_library.hpp"
#include "layout/defect_map.hpp"
#include "layout/design_rules.hpp"
#include "layout/equivalence_checking.hpp"
#include "logic/rewriting.hpp"
#include "logic/tech_mapping.hpp"
#include "phys/defect.hpp"

#include "core/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <functional>
#include <optional>
#include <sstream>
#include <thread>
#include <string>
#include <utility>
#include <vector>

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

TEST(ExactPD, MinimumHeightIsTheWidestRowWindow)
{
    logic::LogicNetwork n;
    const auto a = n.create_pi();
    const auto b = n.create_pi();
    n.create_po(n.create_xor(a, b));
    // PI (row 0) -> gate (row 1) -> PO (row 2); the gate's two PIs need
    // only one row above it
    EXPECT_EQ(minimum_height(n), 3U);
}

/// A balanced 4-input XOR tree: the longest path asks for 4 rows, but the
/// root's four PIs sit on distinct row-0 tiles and reach it only after 3
/// rows, so the PO needs row 4. Exact P&R meets the bound.
TEST(ExactPD, MinimumHeightCountsThePiSpanAndIsTight)
{
    logic::LogicNetwork n;
    const auto a = n.create_pi("a");
    const auto b = n.create_pi("b");
    const auto c = n.create_pi("c");
    const auto d = n.create_pi("d");
    n.create_po(n.create_xor(n.create_xor(a, b), n.create_xor(c, d)), "f");
    ASSERT_TRUE(n.is_bestagon_compliant());
    EXPECT_EQ(minimum_height(n), 5U);

    ExactPDStats stats;
    const auto layout = exact_physical_design(n, {}, &stats);
    ASSERT_TRUE(layout.has_value());
    EXPECT_EQ(layout->height(), 5U);
    EXPECT_EQ(stats.size_verdicts.front().size.height, 5U);  // the ladder starts there
}

/// Fan-out trees of one PI: the POs sit on distinct tiles of the last row,
/// so a fan-out feeding m of them lies at least m - 1 rows above it.
TEST(ExactPD, MinimumHeightCountsThePoSpan)
{
    // 3 outputs: PI -> f1 -> {PO, f2 -> {PO, PO}}; f1 sits on row >= 1 and
    // has 2 rows below it for its 3 POs, which ties the longest path
    logic::LogicNetwork three;
    const auto f1 = three.create_fanout(three.create_pi("a"));
    const auto f2 = three.create_fanout(f1);
    three.create_po(f1, "y0");
    three.create_po(f2, "y1");
    three.create_po(f2, "y2");
    ASSERT_TRUE(three.is_bestagon_compliant());
    EXPECT_EQ(minimum_height(three), 4U);

    // 4 outputs on a balanced tree: the longest path asks for 4 rows, the
    // root fan-out's 4 POs for 3 rows below row 1
    logic::LogicNetwork four;
    const auto root = four.create_fanout(four.create_pi("a"));
    const auto left = four.create_fanout(root);
    const auto right = four.create_fanout(root);
    four.create_po(left, "y0");
    four.create_po(left, "y1");
    four.create_po(right, "y2");
    four.create_po(right, "y3");
    ASSERT_TRUE(four.is_bestagon_compliant());
    EXPECT_EQ(minimum_height(four), 5U);
    const auto layout = exact_physical_design(four);
    ASSERT_TRUE(layout.has_value());
    EXPECT_EQ(layout->height(), 5U);
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

/// Limits below the structural bounds leave the ladder empty; the
/// diagnosis still runs on the max-size encoding and names what refutes it.
TEST(ExactPD, DiagnosesAnEmptyLadder)
{
    const auto diagnose = [](const std::string& name, unsigned w, unsigned h) {
        ExactPDOptions opt;
        opt.max_width = w;
        opt.max_height = h;
        opt.diagnose_infeasibility = true;
        ExactPDStats stats;
        EXPECT_FALSE(exact_physical_design(mapped_benchmark(name), opt, &stats).has_value());
        EXPECT_EQ(stats.sizes_tried, 0U) << name;
        EXPECT_FALSE(stats.budget_exhausted) << name;
        EXPECT_NE(stats.message.find("no layout within size limits"), std::string::npos)
            << stats.message;
        return stats.refuting_groups;
    };
    using Groups = std::vector<std::string>;
    // newtag's 8 PIs put the gate that sees them all on row 7 or lower and
    // its PO on row 8, so at height 8 that window is empty
    EXPECT_EQ(diagnose("newtag", 12, 8), Groups{"clocking"});
    EXPECT_EQ(diagnose("xor2", 2, 2), Groups{"clocking"});
    // two PIs pinned to a one-tile row 0
    EXPECT_EQ(diagnose("xor2", 1, 3), (Groups{"exclusivity", "placement"}));
    // no tile at all: no node can be placed
    EXPECT_EQ(diagnose("xor2", 0, 3), Groups{"placement"});
    EXPECT_EQ(diagnose("xor2", 0, 0), Groups{"clocking"});
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
    const auto* bm = io::find_benchmark(GetParam());
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

/// A congested 2-PI network written with explicit fan-out nodes, `fa1` and
/// `fa2` both `fanout(fa)`: strash merges them, so the mapper sees a
/// single-consumer fan-out above a four-consumer one. Mapping must still give
/// every fan-out exactly two consumers, so the layout is DRC-clean.
TEST(ExactPD, ExplicitFanoutNetworkMapsToDrcCleanLayout)
{
    logic::LogicNetwork spec;
    const auto a = spec.create_pi("a");
    const auto b = spec.create_pi("b");
    const auto fa = spec.create_fanout(a);
    const auto fb = spec.create_fanout(b);
    const auto fa1 = spec.create_fanout(fa);
    const auto fa2 = spec.create_fanout(fa);
    const auto fb1 = spec.create_fanout(fb);
    const auto fb2 = spec.create_fanout(fb);
    const auto x1 = spec.create_xor(fa1, fb1);
    const auto x2 = spec.create_and(fa1, fb2);
    const auto x3 = spec.create_or(fa2, fb1);
    const auto x4 = spec.create_nand(fa2, fb2);
    const auto y1 = spec.create_xor(x1, x2);
    const auto y2 = spec.create_xor(x3, x4);
    spec.create_po(spec.create_xor(y1, y2), "f");

    const auto mapped = logic::map_to_bestagon(spec);
    ASSERT_TRUE(logic::functionally_equivalent(spec, mapped));
    const auto layout = exact_physical_design(mapped);
    ASSERT_TRUE(layout.has_value());
    EXPECT_EQ(check_layout_equivalence(mapped, *layout), EquivalenceResult::equivalent);
    const auto drc = check_design_rules(*layout);
    EXPECT_TRUE(drc.clean()) << (drc.violations.empty() ? "" : drc.violations.front().message);
}

// --- work counters ------------------------------------------------------------

/// The ladder as "WxH:S" / "WxH:U" tokens in exploration order, each
/// followed by "/<conflicts>" with \p with_conflicts, and by
/// "/<decisions>/<propagations>" as well with \p with_trace.
std::string verdict_trace(const ExactPDStats& stats, bool with_conflicts = false,
                          bool with_trace = false)
{
    std::ostringstream out;
    for (const auto& v : stats.size_verdicts)
    {
        out << (out.tellp() > 0 ? " " : "") << v.size.width << 'x' << v.size.height << ':'
            << (v.result == sat::Result::satisfiable     ? 'S'
                : v.result == sat::Result::unsatisfiable ? 'U'
                                                         : '?');
        if (with_conflicts || with_trace)
        {
            out << '/' << v.conflicts;
        }
        if (with_trace)
        {
            out << '/' << v.decisions << '/' << v.propagations;
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
    expect_pinned_ladder("par_check", 6, "4x5:S");
}

TEST(WorkCounters, ExactPnrLadderOnC17)
{
    expect_pinned_ladder("c17", 20, "5x8:S");
}

TEST(WorkCounters, ExactPnrLadderOnCm82a5)
{
    expect_pinned_ladder("cm82a_5", 235, "5x12:U 5x13:S");
}

TEST(WorkCounters, ExactPnrLadderOnMajority5R1)
{
    expect_pinned_ladder("majority_5_r1", 1561, "5x11:U 5x12:U 5x13:U 6x11:U 5x14:S");
}

/// Per-size search traces of all 14 Table-1 ladders, as
/// "WxH:verdict/conflicts/decisions/propagations": each size runs on its own
/// solver, so every rung's trace is pinned on its own, whichever thread
/// decided it. The t and t_5 ladders are decided two rungs at a time after
/// their first refutation.
TEST(WorkCounters, ExactPnrConflictsPerRung)
{
    for (const auto& [name, trace] : std::vector<std::pair<std::string, std::string>>{
             {"c17", "5x8:S/20/118/3213"},
             {"majority", "3x7:S/3/19/263"},
             {"mux21", "3x6:S/1/9/142"},
             {"newtag", "8x9:S/165/638/34474"},
             {"par_gen", "3x4:S/3/11/131"},
             {"xnor2", "2x3:S/0/2/17"},
             {"xor2", "2x3:S/0/2/17"},
             {"xor5_majority", "5x6:S/34/68/2224"},
             {"xor5_r1", "5x6:S/6/29/547"},
             {"par_check", "4x5:S/6/25/487"},
             {"cm82a_5", "5x12:U/67/430/22713 5x13:S/168/970/75378"},
             {"majority_5_r1",
              "5x11:U/30/53/6638 5x12:U/149/426/65896 5x13:U/887/2462/458997 "
              "6x11:U/40/73/10973 5x14:S/455/2685/264121"},
             {"t", "5x5:U/24/28/1211 6x5:U/27/33/1612 5x6:S/80/158/9696"},
             {"t_5", "5x8:U/85/165/30351 5x9:U/927/2848/366348 6x8:U/150/418/49453 "
                     "5x10:S/340/1872/149531"}})
    {
        ExactPDStats stats;
        ASSERT_TRUE(exact_physical_design(mapped_benchmark(name), {}, &stats).has_value()) << name;
        EXPECT_EQ(verdict_trace(stats, /*with_conflicts=*/true, /*with_trace=*/true), trace) << name;
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

// --- two rungs in flight --------------------------------------------------------

/// Threads of this process (Linux), or 0 where that cannot be read.
std::size_t thread_count()
{
    std::size_t n = 0;
    std::error_code ec;
    for (std::filesystem::directory_iterator it{"/proc/self/task", ec}, end; !ec && it != end;
         it.increment(ec))
    {
        ++n;
    }
    return n;
}

/// Runs \p body on a core::ThreadPool worker: the calling thread takes item
/// 0 and waits until a worker has run item 1.
void on_pool_worker(const std::function<void()>& body)
{
    std::atomic<bool> done{false};
    core::ThreadPool pool{1};
    pool.run(
        2,
        [&](std::size_t) {
            if (core::ThreadPool::inside_worker())
            {
                body();
                done = true;
                return;
            }
            const auto give_up = std::chrono::steady_clock::now() + std::chrono::seconds{60};
            while (!done && std::chrono::steady_clock::now() < give_up)
            {
                std::this_thread::sleep_for(std::chrono::milliseconds{1});
            }
        },
        2);
    ASSERT_TRUE(done.load());
}

/// The one-at-a-time walk of the same call, from inside a pool worker.
ExactPDStats sequential_walk(const logic::LogicNetwork& network, const ExactPDOptions& options,
                             std::optional<GateLevelLayout>* layout = nullptr)
{
    ExactPDStats stats;
    on_pool_worker([&] {
        auto result = exact_physical_design(network, options, &stats);
        if (layout != nullptr)
        {
            *layout = std::move(result);
        }
    });
    return stats;
}

bool two_cpus()
{
    return core::resolve_thread_count(0) > 1;
}

TEST(ExactPDLadder, CallFromAPoolWorkerRunsOneRungAtATime)
{
    const auto mapped = mapped_benchmark("majority_5_r1");
    ExactPDStats parallel;
    ASSERT_TRUE(exact_physical_design(mapped, {}, &parallel).has_value());
    EXPECT_EQ(parallel.rungs_in_flight, two_cpus() ? 2U : 1U);

    std::optional<GateLevelLayout> layout;
    const auto sequential = sequential_walk(mapped, {}, &layout);
    ASSERT_TRUE(layout.has_value());
    EXPECT_EQ(sequential.rungs_in_flight, 1U);
    EXPECT_EQ(verdict_trace(sequential, true, true), verdict_trace(parallel, true, true));
    EXPECT_EQ(sequential.total_conflicts, parallel.total_conflicts);
}

TEST(ExactPDLadder, CallerStopEndsBothRungsPromptly)
{
    const auto mapped = mapped_benchmark("majority_5_r1");
    const auto threads_before = thread_count();
    core::StopSource source;
    ExactPDOptions opt;
    opt.run.token = source.token();
    // the first rung takes about a millisecond, the next two tens of them
    std::thread stopper{[&] {
        std::this_thread::sleep_for(std::chrono::milliseconds{5});
        source.request_stop();
    }};
    ExactPDStats stats;
    const auto start = std::chrono::steady_clock::now();
    const auto layout = exact_physical_design(mapped, opt, &stats);
    const auto elapsed = std::chrono::steady_clock::now() - start;
    stopper.join();
    EXPECT_FALSE(layout.has_value());
    EXPECT_TRUE(stats.cancelled);
    EXPECT_EQ(stats.message, "cancelled");
    EXPECT_LT(elapsed, std::chrono::seconds{5});
    // the helper was joined before the call returned
    EXPECT_EQ(thread_count(), threads_before);
}

TEST(ExactPDLadder, ExpiredDeadlineEndsTheLadder)
{
    const auto mapped = mapped_benchmark("majority_5_r1");
    ExactPDOptions opt;
    opt.time_budget_ms = 5;
    ExactPDStats stats;
    const auto start = std::chrono::steady_clock::now();
    const auto layout = exact_physical_design(mapped, opt, &stats);
    EXPECT_LT(std::chrono::steady_clock::now() - start, std::chrono::seconds{5});
    EXPECT_FALSE(layout.has_value());
    EXPECT_TRUE(stats.budget_exhausted);
    EXPECT_FALSE(stats.cancelled);
    EXPECT_EQ(stats.message, "time budget exhausted");
}

/// A conflict budget that cuts majority_5_r1's 5x13 rung (887 conflicts)
/// but not the 5x14 winner (455): the ladder books the same verdicts as
/// the one-at-a-time walk, the unknown one included.
TEST(ExactPDLadder, ConflictCutBeforeTheWinnerMatchesTheSequentialWalk)
{
    const auto mapped = mapped_benchmark("majority_5_r1");
    ExactPDOptions opt;
    opt.conflicts_per_size = 600;
    ExactPDStats stats;
    const auto layout = exact_physical_design(mapped, opt, &stats);
    ASSERT_TRUE(layout.has_value());
    EXPECT_TRUE(stats.budget_exhausted);
    EXPECT_EQ(verdict_trace(stats, true), "5x11:U/30 5x12:U/149 5x13:?/600 6x11:U/40 5x14:S/455");
    const auto sequential = sequential_walk(mapped, opt);
    EXPECT_EQ(verdict_trace(sequential, true, true), verdict_trace(stats, true, true));
    EXPECT_EQ(sequential.budget_exhausted, stats.budget_exhausted);
}

/// Refuted rungs after the winner may have been decided by the helper, but
/// only the ones up to the winner are certified and counted.
TEST(ExactPDLadder, CertifiesTheRefutedRungsUpToTheWinner)
{
    const auto mapped = mapped_benchmark("t_5");
    ExactPDOptions opt;
    opt.certify_unsat = true;
    ExactPDStats stats;
    ASSERT_TRUE(exact_physical_design(mapped, opt, &stats).has_value());
    EXPECT_EQ(verdict_trace(stats), "5x8:U 5x9:U 6x8:U 5x10:S");
    EXPECT_EQ(stats.proofs_checked, 3U);
    EXPECT_EQ(stats.proof_failures, 0U);
}

/// Defect-aware P&R runs on the same ladder: a blocked tile on a
/// multi-rung ladder gives the sequential walk's verdicts and layout.
TEST(ExactPDLadder, DefectSurfaceMatchesTheSequentialWalk)
{
    const auto mapped = mapped_benchmark("t");
    phys::SurfaceDefect defect;
    defect.site = tile_origin({2, 2});
    defect.kind = phys::DefectKind::structural;
    defect.charge = 0.0;
    defect.exclusion_radius_nm = 1.0;
    ExactPDOptions opt;
    opt.defects.add(defect);

    ExactPDStats stats;
    const auto layout = exact_physical_design(mapped, opt, &stats);
    ASSERT_TRUE(layout.has_value());
    ASSERT_GT(stats.size_verdicts.size(), 1U);
    for (const auto& tile : layout->all_tiles())
    {
        if (!layout->is_empty(tile))
        {
            EXPECT_FALSE(tile_blocked(tile, opt.defects));
        }
    }
    std::optional<GateLevelLayout> sequential_layout;
    const auto sequential = sequential_walk(mapped, opt, &sequential_layout);
    ASSERT_TRUE(sequential_layout.has_value());
    EXPECT_EQ(verdict_trace(sequential, true, true), verdict_trace(stats, true, true));
    EXPECT_EQ(sequential_layout->width(), layout->width());
    EXPECT_EQ(sequential_layout->height(), layout->height());
    for (const auto& tile : layout->all_tiles())
    {
        EXPECT_EQ(sequential_layout->occupants(tile).size(), layout->occupants(tile).size());
    }
}

}  // namespace
