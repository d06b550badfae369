#include "core/design_flow.hpp"

#include "core/thread_pool.hpp"
#include "io/benchmarks.hpp"
#include "layout/defect_map.hpp"
#include "logic/rewriting.hpp"
#include "logic/tech_mapping.hpp"
#include "testing/random.hpp"
#include "testing/reproducer.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <string>
#include <vector>

namespace
{

using namespace bestagon;
using core::FlowOptions;

TEST(DesignFlow, Xor2EndToEnd)
{
    const auto result = core::run_design_flow(io::find_benchmark("xor2")->build());
    ASSERT_TRUE(result.success());
    EXPECT_EQ(result.layout->width(), 2U);
    EXPECT_EQ(result.layout->height(), 3U);
    EXPECT_EQ(result.equivalence, layout::EquivalenceResult::equivalent);
    EXPECT_TRUE(result.drc.clean());
    EXPECT_TRUE(result.sidb.has_value());
    EXPECT_TRUE(result.sidb->all_sites_unique());
    EXPECT_TRUE(result.supertiles->satisfies_pitch(layout::ElectrodeTechnology{}));
}

TEST(DesignFlow, ValidateGatesStepChecksEveryDistinctTileInUse)
{
    FlowOptions opt;
    opt.validate_gates = true;
    opt.sim_params.num_threads = 4;
    const auto result = core::run_design_flow(io::find_benchmark("xor2")->build(), opt);
    ASSERT_TRUE(result.success());
    ASSERT_FALSE(result.apply_stats.implementations_used.empty());
    ASSERT_EQ(result.gate_validation.size(), result.apply_stats.implementations_used.size());
    for (std::size_t i = 0; i < result.gate_validation.size(); ++i)
    {
        const auto& v = result.gate_validation[i];
        EXPECT_EQ(v.name, result.apply_stats.implementations_used[i]->design.name);
        EXPECT_TRUE(v.evaluated) << v.name;
        EXPECT_GT(v.patterns_total, 0U);
        // a pre-validated library tile must re-validate at the calibration point
        if (result.apply_stats.implementations_used[i]->simulation_validated)
        {
            EXPECT_TRUE(v.operational) << v.name;
        }
    }

    // off by default
    const auto plain = core::run_design_flow(io::find_benchmark("xor2")->build());
    EXPECT_TRUE(plain.gate_validation.empty());
}

TEST(DesignFlow, VerilogEntryPoint)
{
    const auto result = core::run_design_flow_verilog(R"(
        module half(a, b, s);
          input a, b;
          output s;
          assign s = a ^ b;
        endmodule
    )");
    ASSERT_TRUE(result.success());
    EXPECT_EQ(result.mapped.num_pis(), 2U);
}

TEST(DesignFlow, RewritingCanBeDisabled)
{
    FlowOptions opt;
    opt.rewrite = false;
    const auto net = io::find_benchmark("mux21")->build();
    const auto without = core::run_design_flow(net, opt);
    opt.rewrite = true;
    const auto with = core::run_design_flow(net, opt);
    ASSERT_TRUE(without.success());
    ASSERT_TRUE(with.success());
    // rewriting never hurts and shrinks the redundant mux structure
    EXPECT_LE(with.rewritten.num_gates(), without.rewritten.num_gates());
    EXPECT_LE(with.layout->area(), without.layout->area());
}

/// The scalable engine runs only as the fallback of exact P&R; a tile budget
/// exact P&R cannot meet forces it.
TEST(DesignFlow, ScalableEngineWorksOnSimpleBenchmarks)
{
    FlowOptions opt;
    opt.exact_options.max_width = 1;  // force exact failure
    opt.exact_options.max_height = 2;
    const auto result = core::run_design_flow(io::find_benchmark("par_check")->build(), opt);
    ASSERT_TRUE(result.success());
    EXPECT_EQ(result.engine_used, "scalable");
}

TEST(DesignFlow, FallbackReportsEngine)
{
    FlowOptions opt;
    opt.exact_options.max_width = 1;  // force exact failure
    opt.exact_options.max_height = 2;
    const auto result = core::run_design_flow(io::find_benchmark("par_gen")->build(), opt);
    ASSERT_TRUE(result.layout.has_value());
    EXPECT_EQ(result.engine_used, "scalable");
    EXPECT_TRUE(result.success());
}

/// The scalable fallback honors the same defect surface as exact P&R: a
/// structural defect on the first occupied tile of the defect-free fallback
/// layout makes the march translate the layout off it.
TEST(DesignFlow, FallbackAvoidsDefects)
{
    FlowOptions opt;
    opt.exact_options.max_width = 1;  // force exact failure
    opt.exact_options.max_height = 2;
    const auto spec = io::find_benchmark("par_gen")->build();
    const auto plain = core::run_design_flow(spec, opt);
    ASSERT_TRUE(plain.layout.has_value());
    for (const auto& tile : plain.layout->all_tiles())
    {
        if (!plain.layout->is_empty(tile))
        {
            phys::SurfaceDefect d;
            d.site = layout::tile_origin(tile);
            d.kind = phys::DefectKind::structural;
            d.charge = 0.0;
            d.exclusion_radius_nm = 0.5;
            opt.exact_options.defects.add(d);
            break;
        }
    }
    ASSERT_FALSE(opt.exact_options.defects.empty());

    const auto result = core::run_design_flow(spec, opt);
    ASSERT_TRUE(result.success());
    EXPECT_EQ(result.engine_used, "scalable");
    EXPECT_EQ(result.scalable_stats.defect_shift_x, 1U);
    EXPECT_EQ(result.scalable_stats.defect_shift_y, 0U);
    for (const auto& tile : result.layout->all_tiles())
    {
        if (!result.layout->is_empty(tile))
        {
            EXPECT_FALSE(layout::tile_blocked(tile, opt.exact_options.defects))
                << tile.x << ',' << tile.y;
        }
    }
}

/// Specifications with a constant output: the exact engine rejects a network
/// with constant nodes, and the flow must then still run the scalable
/// engine. The specs are the constant-output draws among the first 189 of
/// bench/flow's random_flow corpus. The scalable engine rejects
/// constants too, so the stage fails, and its detail gives both engines'
/// reasons.
TEST(DesignFlow, ExactRejectionRunsTheScalableFallback)
{
    testkit::XagOptions options;
    options.min_gates = 6;
    options.max_gates = 14;
    unsigned constant_specs = 0;
    unsigned rejected = 0;
    for (std::uint64_t i = 0; i < 189; ++i)
    {
        testkit::Rng rng{testkit::case_seed(0xbe57a611, i)};
        const auto spec = testkit::random_network(rng, options);
        const auto functions = spec.simulate();
        if (std::none_of(functions.begin(), functions.end(),
                         [](const auto& f) { return f.is_const0() || f.is_const1(); }))
        {
            continue;
        }
        ++constant_specs;
        const auto result = core::run_design_flow(spec);
        layout::ExactPDOptions probe;
        probe.time_budget_ms = 1;
        try
        {
            static_cast<void>(layout::exact_physical_design(result.mapped, probe));
            continue;
        }
        catch (const std::invalid_argument&)
        {
            ++rejected;
        }
        EXPECT_EQ(result.engine_used, "scalable") << "spec" << i;
        const auto* stage = result.diagnostics.find("physical_design");
        ASSERT_NE(stage, nullptr) << "spec" << i;
        if (!result.layout.has_value())
        {
            EXPECT_EQ(stage->status, core::StageStatus::failed) << "spec" << i;
            EXPECT_NE(stage->detail.find("exact_physical_design: constant"), std::string::npos) << stage->detail;
            EXPECT_NE(stage->detail.find("scalable_physical_design: constant"), std::string::npos) << stage->detail;
        }
    }
    EXPECT_EQ(constant_specs, 61U);
    EXPECT_EQ(rejected, 52U);
}

TEST(DesignFlow, NoSiDBLayoutIsNoSuccess)
{
    // a verified layout without its dot-accurate SiDB layout is no success
    auto result = core::run_design_flow(io::find_benchmark("xor2")->build());
    ASSERT_TRUE(result.success());
    result.sidb.reset();
    EXPECT_TRUE(result.layout.has_value());
    EXPECT_EQ(result.equivalence, layout::EquivalenceResult::equivalent);
    EXPECT_FALSE(result.success());
}

/// The specs of the seeded random_flow corpus of bench/flow that have an
/// input no output depends on: testkit networks drawn from
/// derive_seed(0xbe57a611, i) until 128 without a constant output are kept.
std::vector<logic::LogicNetwork> specs_with_unread_inputs()
{
    testkit::XagOptions options;
    options.min_gates = 6;
    options.max_gates = 14;
    std::vector<logic::LogicNetwork> specs;
    unsigned kept = 0;
    for (std::uint64_t i = 0; kept < 128; ++i)
    {
        testkit::Rng rng{core::derive_seed(0xbe57a611, i)};
        auto spec = testkit::random_network(rng, options);
        const auto functions = spec.simulate();
        if (std::any_of(functions.begin(), functions.end(),
                        [](const auto& f) { return f.is_const0() || f.is_const1(); }))
        {
            continue;
        }
        ++kept;
        for (unsigned v = 0; v < spec.num_pis(); ++v)
        {
            if (std::none_of(functions.begin(), functions.end(),
                             [v](const auto& f) { return f.depends_on(v); }))
            {
                specs.push_back(std::move(spec));
                break;
            }
        }
    }
    return specs;
}

/// A PI nothing reads keeps its border tile with no out port and no dots:
/// every such spec yields a DRC-clean, verified .sqd on both engines.
TEST(DesignFlow, UnreadInputsYieldASqd)
{
    const auto specs = specs_with_unread_inputs();
    ASSERT_EQ(specs.size(), 23U);
    FlowOptions fallback;
    fallback.exact_options.max_width = 1;  // force the scalable engine
    fallback.exact_options.max_height = 2;
    for (std::size_t i = 0; i < specs.size(); ++i)
    {
        for (const auto* engine : {"exact", "scalable"})
        {
            const auto result = core::run_design_flow(
                specs[i], std::string{engine} == "exact" ? FlowOptions{} : fallback);
            EXPECT_EQ(result.engine_used, engine) << "spec " << i;
            EXPECT_TRUE(result.success()) << "spec " << i << " on " << engine << ":\n"
                                          << result.diagnostics.table();
            EXPECT_TRUE(result.drc.clean()) << "spec " << i << " on " << engine;
        }
    }
}

/// A flow run's stage record without its timings: the engine that placed
/// the layout, then one "stage status detail" line per stage, in order.
std::string stage_record(const core::FlowResult& result)
{
    std::string out = "engine=" + result.engine_used + '\n';
    for (const auto& s : result.diagnostics.stages)
    {
        out += s.stage + ' ' + core::to_string(s.status) + ' ' + s.detail + '\n';
    }
    return out;
}

/// Pins what the flow reports about each stage on every path through it:
/// plain, forced fallback, exact rejection, parse failure, expired deadline,
/// cancellation and gate validation.
TEST(DesignFlow, StageRecordIsPinned)
{
    const std::string front = "to_xag completed \nrewrite completed \ntech_mapping completed \n";
    const std::string back = "supertiles completed \ndrc completed clean\napply_library completed \n";
    const auto xor2 = io::find_benchmark("xor2")->build();

    EXPECT_EQ(stage_record(core::run_design_flow(xor2)),
              "engine=exact\n" + front + "physical_design completed exact\n" +
                  "equivalence completed equivalent\n" + back);

    FlowOptions fallback;
    fallback.exact_options.max_width = 1;
    fallback.exact_options.max_height = 2;
    EXPECT_EQ(stage_record(core::run_design_flow(io::find_benchmark("par_gen")->build(), fallback)),
              "engine=scalable\n" + front +
                  "physical_design degraded exact engine declined; scalable fallback\n" +
                  "equivalence completed equivalent\n" + back);

    // spec 0 of ExactRejectionRunsTheScalableFallback has a constant output
    testkit::XagOptions random;
    random.min_gates = 6;
    random.max_gates = 14;
    testkit::Rng rng{testkit::case_seed(0xbe57a611, 0)};
    EXPECT_EQ(stage_record(core::run_design_flow(testkit::random_network(rng, random))),
              "engine=scalable\n" + front +
                  "physical_design failed exact engine rejected the input "
                  "(exact_physical_design: constant nodes unsupported); "
                  "scalable_physical_design: constants unsupported\n");

    // the parse detail is the reader's message; MalformedVerilogDoesNotThrow
    // and MalformedBenchDoesNotThrow check that its prefix appears once
    const auto parse_failure = [](const core::FlowResult& result, const std::string& message) {
        EXPECT_EQ(result.engine_used, "");
        ASSERT_EQ(result.diagnostics.stages.size(), 1U);
        const auto& parse = result.diagnostics.stages.front();
        EXPECT_EQ(parse.stage, "parse");
        EXPECT_EQ(parse.status, core::StageStatus::failed);
        ASSERT_GE(parse.detail.size(), message.size()) << parse.detail;
        EXPECT_EQ(parse.detail.substr(parse.detail.size() - message.size()), message);
    };
    parse_failure(core::run_design_flow_verilog("c17"), "verilog: expected 'module', got 'c17'");
    parse_failure(core::run_design_flow_bench("INPUT(a\nG1 = NONSENSE(a)\n"),
                  "bench: malformed I/O declaration: INPUT(a");

    FlowOptions expired;
    expired.deadline_ms = 0;
    EXPECT_EQ(stage_record(core::run_design_flow(xor2, expired)),
              "engine=scalable\n" + front +
                  "physical_design degraded exact budget exhausted; scalable fallback\n" +
                  "equivalence timed_out check cut short; result is unknown\n" + back);

    core::StopSource source;
    source.request_stop();
    FlowOptions cancelled;
    cancelled.stop = source.token();
    EXPECT_EQ(stage_record(core::run_design_flow(xor2, cancelled)),
              "engine=exact\n" + front + "physical_design cancelled exact engine cancelled\n");

    FlowOptions validated;
    validated.validate_gates = true;
    EXPECT_EQ(stage_record(core::run_design_flow(xor2, validated)),
              "engine=exact\n" + front + "physical_design completed exact\n" +
                  "equivalence completed equivalent\n" + back + "gate_validation completed \n");
}

class FlowBenchmark : public ::testing::TestWithParam<std::string>
{
};

TEST_P(FlowBenchmark, FullFlowSucceeds)
{
    const auto* bm = io::find_benchmark(GetParam());
    FlowOptions opt;
    opt.exact_options.time_budget_ms = 60000;
    const auto result = core::run_design_flow(bm->build(), opt);
    ASSERT_TRUE(result.success()) << GetParam();
    EXPECT_TRUE(result.drc.clean()) << GetParam();
    // functional correctness against the *original* specification
    const auto extracted = result.layout->extract_network(result.mapped);
    EXPECT_TRUE(logic::functionally_equivalent(bm->build(), extracted)) << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Table1, FlowBenchmark,
                         ::testing::Values("xor2", "xnor2", "par_gen", "mux21", "par_check",
                                           "xor5_r1", "xor5_majority", "t", "majority", "c17"));

// --- work counters ------------------------------------------------------------

/// The Table-1 flow's deterministic work: the 14 benchmarks/*.v files run
/// through run_design_flow with default options, as the `table1` workload of
/// bench/flow does, and the totals its trace reports are pinned. Wall clock is
/// too noisy to gate on; the amount of work is not. A moved total means
/// rewrite, mapping, the P&R encoding or search, or the equivalence miter
/// changed what it does. Rewrite is pinned twice: the flows' rewritten gate
/// counts, and the replacements and passes of logic::rewrite on the same
/// XAGs.
TEST(WorkCounters, Table1Flow)
{
    std::uint64_t pnr_conflicts = 0;
    std::uint64_t rungs = 0;
    std::uint64_t rungs_unsat = 0;
    std::uint64_t area_tiles = 0;
    std::uint64_t equivalence_conflicts = 0;
    std::uint64_t rewritten_gates = 0;
    std::uint64_t replacements = 0;
    std::uint64_t passes = 0;
    for (const auto& bm : io::table1_benchmarks())
    {
        const auto& name = bm.name;
        const auto spec = bm.build();
        logic::NpnDatabase database;
        logic::RewriteStats rewrite_stats;
        static_cast<void>(logic::rewrite(logic::to_xag(spec), database, &rewrite_stats));
        replacements += rewrite_stats.replacements;
        passes += rewrite_stats.passes;
        const auto result = core::run_design_flow(spec);
        ASSERT_TRUE(result.success()) << name;
        rewritten_gates += result.rewritten.num_gates();
        EXPECT_EQ(result.engine_used, "exact") << name;
        pnr_conflicts += result.pd_stats.total_conflicts;
        rungs += result.pd_stats.sizes_tried;
        rungs_unsat += static_cast<std::uint64_t>(
            std::count_if(result.pd_stats.size_verdicts.begin(), result.pd_stats.size_verdicts.end(),
                          [](const auto& v) { return v.result == sat::Result::unsatisfiable; }));
        area_tiles += result.layout->area();
        layout::EquivalenceStats stats;
        EXPECT_EQ(layout::check_layout_equivalence(result.mapped, *result.layout, &stats),
                  layout::EquivalenceResult::equivalent)
            << name;
        equivalence_conflicts += stats.conflicts;
    }
    EXPECT_EQ(pnr_conflicts, 3667U);
    EXPECT_EQ(rungs, 24U);
    EXPECT_EQ(rungs_unsat, 10U);
    EXPECT_EQ(area_tiles, 470U);
    EXPECT_EQ(equivalence_conflicts, 181U);
    EXPECT_EQ(rewritten_gates, 80U);
    EXPECT_EQ(replacements, 17U);
    EXPECT_EQ(passes, 31U);
}

}  // namespace
