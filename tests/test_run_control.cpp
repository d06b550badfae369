/// \file test_run_control.cpp
/// \brief Run-control primitives (StopToken / Deadline / RunBudget /
///        FlowDiagnostics) and their cooperative threading through the
///        solver, the physical-simulation engines and the design flow:
///        budgets cut promptly, cancelled runs stay well-formed, exhausted
///        exact budgets degrade to the scalable engine, and unlimited
///        budgets leave every result bit-identical.

#include "core/design_flow.hpp"
#include "core/run_control.hpp"
#include "layout/bestagon_library.hpp"
#include "logic/benchmarks.hpp"
#include "phys/gate_designer.hpp"
#include "phys/ground_state_exact.hpp"
#include "phys/operational.hpp"
#include "phys/operational_domain.hpp"
#include "phys/simanneal.hpp"
#include "sat/dimacs.hpp"
#include "sat/solver.hpp"
#include "testing/oracles.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <thread>

namespace
{

using namespace bestagon;
using core::Deadline;
using core::FlowOptions;
using core::RunBudget;
using core::StageStatus;
using core::StopSource;
using core::StopToken;

std::int64_t elapsed_ms(std::chrono::steady_clock::time_point start)
{
    return std::chrono::duration_cast<std::chrono::milliseconds>(
               std::chrono::steady_clock::now() - start)
        .count();
}

/// A RunBudget whose token already requested a stop.
RunBudget tripped_budget()
{
    StopSource source;
    source.request_stop();
    return RunBudget{source.token(), {}};
}

/// The pigeonhole principle PHP(pigeons, holes): UNSAT when pigeons > holes,
/// with exponential-size resolution refutations — a CDCL solver needs far
/// more than a few milliseconds on PHP(12, 11).
sat::Cnf pigeonhole(unsigned pigeons, unsigned holes)
{
    sat::Cnf cnf;
    cnf.num_vars = static_cast<int>(pigeons * holes);
    const auto var = [holes](unsigned p, unsigned h) {
        return static_cast<int>(p * holes + h + 1);
    };
    for (unsigned p = 0; p < pigeons; ++p)
    {
        std::vector<int> clause;
        for (unsigned h = 0; h < holes; ++h)
        {
            clause.push_back(var(p, h));
        }
        cnf.clauses.push_back(std::move(clause));
    }
    for (unsigned h = 0; h < holes; ++h)
    {
        for (unsigned p1 = 0; p1 < pigeons; ++p1)
        {
            for (unsigned p2 = p1 + 1; p2 < pigeons; ++p2)
            {
                cnf.clauses.push_back({-var(p1, h), -var(p2, h)});
            }
        }
    }
    return cnf;
}

// --- primitives ------------------------------------------------------------

TEST(RunControl, DefaultTokenNeverStops)
{
    const StopToken token;
    EXPECT_FALSE(token.stop_possible());
    EXPECT_FALSE(token.stop_requested());

    StopSource source;
    const StopToken attached = source.token();
    const StopToken copy = attached;
    EXPECT_TRUE(attached.stop_possible());
    EXPECT_FALSE(attached.stop_requested());
    source.request_stop();
    EXPECT_TRUE(attached.stop_requested());
    EXPECT_TRUE(copy.stop_requested()) << "copies share the channel";
    source.request_stop();  // idempotent
    EXPECT_TRUE(source.stop_requested());
}

TEST(RunControl, DeadlineBasics)
{
    EXPECT_TRUE(Deadline{}.unlimited());
    EXPECT_TRUE(Deadline::in_ms(-1).unlimited());
    EXPECT_FALSE(Deadline{}.expired());
    EXPECT_EQ(Deadline{}.remaining_ms(), Deadline::unlimited_ms);

    const auto now = Deadline::in_ms(0);
    EXPECT_FALSE(now.unlimited());
    EXPECT_TRUE(now.expired());
    EXPECT_EQ(now.remaining_ms(), 0);

    const auto later = Deadline::in_ms(60000);
    EXPECT_FALSE(later.expired());
    EXPECT_GT(later.remaining_ms(), 0);
    EXPECT_LE(later.remaining_ms(), 60000);
}

TEST(RunControl, SoonerComposesDeadlines)
{
    const auto near = Deadline::in_ms(0);
    const auto far = Deadline::in_ms(60000);
    EXPECT_TRUE(Deadline::sooner(near, far).expired());
    EXPECT_TRUE(Deadline::sooner(far, near).expired());
    // unlimited is the identity
    EXPECT_TRUE(Deadline::sooner(Deadline{}, near).expired());
    EXPECT_FALSE(Deadline::sooner(far, Deadline{}).expired());
    EXPECT_TRUE(Deadline::sooner(Deadline{}, Deadline{}).unlimited());
}

TEST(RunControl, RunBudgetComposition)
{
    const RunBudget unlimited;
    EXPECT_FALSE(unlimited.limited());
    EXPECT_FALSE(unlimited.stopped());

    StopSource source;
    RunBudget with_token{source.token(), {}};
    EXPECT_TRUE(with_token.limited());
    EXPECT_FALSE(with_token.stopped());
    source.request_stop();
    EXPECT_TRUE(with_token.stopped());

    // clipping: ms < 0 leaves the deadline untouched, 0 stops immediately
    EXPECT_FALSE(unlimited.clipped_ms(-1).limited());
    EXPECT_TRUE(unlimited.clipped_ms(0).stopped());
    EXPECT_FALSE(unlimited.clipped_ms(60000).stopped());
    EXPECT_TRUE(unlimited.clipped_ms(60000).limited());
}

TEST(RunControl, StageStatusNames)
{
    EXPECT_STREQ(core::to_string(StageStatus::completed), "completed");
    EXPECT_STREQ(core::to_string(StageStatus::degraded), "degraded");
    EXPECT_STREQ(core::to_string(StageStatus::timed_out), "timed_out");
    EXPECT_STREQ(core::to_string(StageStatus::cancelled), "cancelled");
    EXPECT_STREQ(core::to_string(StageStatus::failed), "failed");
    EXPECT_STREQ(core::to_string(StageStatus::skipped), "skipped");
}

TEST(RunControl, DiagnosticsQueries)
{
    core::FlowDiagnostics diag;
    diag.stages.push_back({"to_xag", StageStatus::completed, 1, 0, ""});
    diag.stages.push_back({"physical_design", StageStatus::degraded, 40, 0, "fallback"});
    EXPECT_FALSE(diag.all_completed()) << "degraded counts as not completed";
    EXPECT_EQ(diag.first_cut(), nullptr) << "degraded stages are usable, not cut";
    EXPECT_FALSE(diag.interrupted());
    ASSERT_NE(diag.find("to_xag"), nullptr);
    EXPECT_EQ(diag.find("nonexistent"), nullptr);

    diag.stages.push_back({"equivalence", StageStatus::timed_out, 12, 0, "cut"});
    EXPECT_TRUE(diag.interrupted());
    ASSERT_NE(diag.first_cut(), nullptr);
    EXPECT_EQ(diag.first_cut()->stage, "equivalence");

    const auto table = diag.table();
    EXPECT_NE(table.find("physical_design"), std::string::npos);
    EXPECT_NE(table.find("degraded"), std::string::npos);
    EXPECT_NE(table.find("timed_out"), std::string::npos);
}

// --- solver budgets (satellite: prompt time-budget enforcement) -------------

TEST(RunControl, SolverHonorsSmallTimeBudgetOnHardInstance)
{
    // PHP(12, 11) takes a CDCL solver minutes; a 10 ms budget must surface
    // as `unknown` promptly, not after the next 256-conflict block
    sat::Solver solver;
    ASSERT_TRUE(sat::load_into_solver(solver, pigeonhole(12, 11)));
    const auto start = std::chrono::steady_clock::now();
    const auto result = solver.solve({}, {.run = RunBudget{}.clipped_ms(10)});
    const auto ms = elapsed_ms(start);
    EXPECT_EQ(result, sat::Result::unknown);
    EXPECT_LT(ms, 2000) << "a 10 ms budget took " << ms << " ms to take effect";
}

TEST(RunControl, SolverStopTokenPreempts)
{
    sat::Solver solver;
    ASSERT_TRUE(sat::load_into_solver(solver, pigeonhole(12, 11)));
    StopSource source;
    source.request_stop();
    const auto start = std::chrono::steady_clock::now();
    EXPECT_EQ(solver.solve({}, {.run = {.token = source.token()}}), sat::Result::unknown);
    EXPECT_LT(elapsed_ms(start), 2000);
}

TEST(RunControl, SolverDeadlinePreempts)
{
    sat::Solver solver;
    ASSERT_TRUE(sat::load_into_solver(solver, pigeonhole(12, 11)));
    const auto start = std::chrono::steady_clock::now();
    EXPECT_EQ(solver.solve({}, {.run = {.deadline = Deadline::in_ms(10)}}), sat::Result::unknown);
    EXPECT_LT(elapsed_ms(start), 2000);
}

// --- flow degradation (satellite: deterministic fallback test) --------------

TEST(RunControl, ExhaustedExactBudgetDegradesToScalable)
{
    // a zero conflict budget is deterministically exhausted on the first
    // aspect ratio: the flow must fall back to the scalable engine and say so
    FlowOptions options;
    options.engine = core::PhysicalDesignEngine::exact_with_fallback;
    options.exact_options.conflicts_per_size = 0;
    const auto result =
        core::run_design_flow(logic::find_benchmark("xor2")->build(), options);

    EXPECT_TRUE(result.pd_stats.budget_exhausted);
    EXPECT_EQ(result.engine_used, "scalable");
    ASSERT_TRUE(result.layout.has_value());
    EXPECT_EQ(result.equivalence, layout::EquivalenceResult::equivalent);
    EXPECT_TRUE(result.success()) << "a degraded flow still succeeds end to end";

    const auto* pd = result.diagnostics.find("physical_design");
    ASSERT_NE(pd, nullptr);
    EXPECT_EQ(pd->status, StageStatus::degraded);
    EXPECT_NE(pd->detail.find("fallback"), std::string::npos) << pd->detail;
    EXPECT_EQ(result.diagnostics.first_cut(), nullptr)
        << "degradation is not an interruption";
}

TEST(RunControl, PreCancelledFlowIsWellFormed)
{
    StopSource source;
    source.request_stop();
    FlowOptions options;
    options.stop = source.token();
    const auto result =
        core::run_design_flow(logic::find_benchmark("xor2")->build(), options);

    EXPECT_FALSE(result.success());
    EXPECT_FALSE(result.layout.has_value()) << "cancellation must not trigger the fallback";
    ASSERT_NE(result.diagnostics.find("to_xag"), nullptr);
    EXPECT_EQ(result.diagnostics.find("to_xag")->status, StageStatus::completed);
    const auto* cut = result.diagnostics.first_cut();
    ASSERT_NE(cut, nullptr);
    EXPECT_EQ(cut->stage, "physical_design");
    EXPECT_EQ(cut->status, StageStatus::cancelled);
}

TEST(RunControl, ZeroDeadlineStillEmitsPartialArtifacts)
{
    // an already-expired deadline: exact P&R degrades to the scalable
    // fallback (which only honors the token), equivalence reports unknown,
    // and the cheap artifact stages still produce the layout files
    FlowOptions options;
    options.deadline_ms = 0;
    const auto result =
        core::run_design_flow(logic::find_benchmark("xor2")->build(), options);

    ASSERT_TRUE(result.layout.has_value());
    EXPECT_EQ(result.engine_used, "scalable");
    EXPECT_TRUE(result.sidb.has_value()) << "artifact stages run even after the cut";
    EXPECT_EQ(result.equivalence, layout::EquivalenceResult::unknown);
    EXPECT_FALSE(result.success());

    const auto* pd = result.diagnostics.find("physical_design");
    ASSERT_NE(pd, nullptr);
    EXPECT_EQ(pd->status, StageStatus::degraded);
    const auto* eq = result.diagnostics.find("equivalence");
    ASSERT_NE(eq, nullptr);
    EXPECT_EQ(eq->status, StageStatus::timed_out);
    ASSERT_NE(result.diagnostics.first_cut(), nullptr);
    EXPECT_EQ(result.diagnostics.first_cut()->stage, "equivalence");
}

TEST(RunControl, ZeroDeadlineSkipsGateValidationWithRecord)
{
    FlowOptions options;
    options.deadline_ms = 0;
    options.validate_gates = true;
    const auto result =
        core::run_design_flow(logic::find_benchmark("xor2")->build(), options);
    const auto* val = result.diagnostics.find("gate_validation");
    ASSERT_NE(val, nullptr) << "the skip itself must be recorded";
    EXPECT_EQ(val->status, StageStatus::skipped);
    EXPECT_NE(val->detail.find("deadline"), std::string::npos) << val->detail;
    EXPECT_TRUE(result.gate_validation.empty());
}

TEST(RunControl, ValidationRetriesAreBoundedAndRecorded)
{
    FlowOptions options;
    options.validate_gates = true;
    options.sim_params.engine = phys::Engine::simanneal;
    options.validation_retries = 2;
    options.sim_params.num_threads = 2;
    const auto result =
        core::run_design_flow(logic::find_benchmark("xor2")->build(), options);
    ASSERT_TRUE(result.success());
    const auto* val = result.diagnostics.find("gate_validation");
    ASSERT_NE(val, nullptr);
    EXPECT_EQ(val->status, StageStatus::completed);
    for (const auto& v : result.gate_validation)
    {
        EXPECT_TRUE(v.evaluated);
        EXPECT_LE(v.retries, options.validation_retries) << v.name;
    }
}

TEST(RunControl, UnlimitedDeadlineIsBitIdenticalToNoDeadline)
{
    const auto spec = logic::find_benchmark("xor2")->build();
    const auto plain = core::run_design_flow(spec);
    FlowOptions options;
    options.deadline_ms = std::int64_t{1} << 40;  // limited, but never expires
    const auto budgeted = core::run_design_flow(spec, options);

    ASSERT_TRUE(plain.success());
    ASSERT_TRUE(budgeted.success());
    EXPECT_EQ(plain.engine_used, budgeted.engine_used);
    EXPECT_EQ(plain.layout->width(), budgeted.layout->width());
    EXPECT_EQ(plain.layout->height(), budgeted.layout->height());
    EXPECT_EQ(plain.sidb->num_sidbs(), budgeted.sidb->num_sidbs());
    EXPECT_EQ(plain.equivalence, budgeted.equivalence);
    ASSERT_EQ(plain.diagnostics.stages.size(), budgeted.diagnostics.stages.size());
    for (std::size_t i = 0; i < plain.diagnostics.stages.size(); ++i)
    {
        EXPECT_EQ(plain.diagnostics.stages[i].status, budgeted.diagnostics.stages[i].status)
            << plain.diagnostics.stages[i].stage;
    }
}

// --- parser robustness (satellite: no raw parser exceptions) ----------------

TEST(RunControl, MalformedVerilogDoesNotThrow)
{
    const auto result = core::run_design_flow_verilog("module broken(a, b\n  asign q = ;");
    EXPECT_FALSE(result.success());
    EXPECT_FALSE(result.layout.has_value());
    ASSERT_EQ(result.diagnostics.stages.size(), 1U);
    EXPECT_EQ(result.diagnostics.stages[0].stage, "parse");
    EXPECT_EQ(result.diagnostics.stages[0].status, StageStatus::failed);
    EXPECT_EQ(result.diagnostics.stages[0].detail.rfind("verilog: ", 0), 0U)
        << result.diagnostics.stages[0].detail;
}

TEST(RunControl, MalformedBenchDoesNotThrow)
{
    const auto result = core::run_design_flow_bench("INPUT(a\nG1 = NONSENSE(a)\n");
    EXPECT_FALSE(result.success());
    ASSERT_EQ(result.diagnostics.stages.size(), 1U);
    EXPECT_EQ(result.diagnostics.stages[0].stage, "parse");
    EXPECT_EQ(result.diagnostics.stages[0].status, StageStatus::failed);
    EXPECT_EQ(result.diagnostics.stages[0].detail.rfind("bench: ", 0), 0U)
        << result.diagnostics.stages[0].detail;
}

TEST(RunControl, WellFormedVerilogRecordsParseStage)
{
    const auto result = core::run_design_flow_verilog(R"(
        module half(a, b, s);
          input a, b;
          output s;
          assign s = a ^ b;
        endmodule
    )");
    ASSERT_TRUE(result.success());
    ASSERT_FALSE(result.diagnostics.stages.empty());
    EXPECT_EQ(result.diagnostics.stages.front().stage, "parse");
    EXPECT_EQ(result.diagnostics.stages.front().status, StageStatus::completed);
}

// --- physical-simulation engines -------------------------------------------

TEST(RunControl, SimannealCancellationStaysWellFormed)
{
    phys::SimulationParameters params;
    params.mu_minus = -0.32;
    std::vector<phys::SiDBSite> sites;
    for (int n = 0; n < 8; ++n)
    {
        sites.push_back({3 * n, (n % 3) * 2, n % 2});
    }
    const phys::SiDBSystem system{sites, params};

    const auto cancelled = phys::simulated_annealing(system, {}, tripped_budget());
    EXPECT_TRUE(cancelled.cancelled);

    // an unlimited budget is bit-identical to the plain call
    const auto plain = phys::simulated_annealing(system);
    const auto unlimited = phys::simulated_annealing(system, {}, RunBudget{});
    EXPECT_FALSE(unlimited.cancelled);
    EXPECT_EQ(plain.grand_potential, unlimited.grand_potential);
    EXPECT_EQ(plain.config, unlimited.config);
}

TEST(RunControl, ExactCancellationReportsIncomplete)
{
    phys::SimulationParameters params;
    params.mu_minus = -0.32;
    std::vector<phys::SiDBSite> sites;
    for (int n = 0; n < 18; ++n)  // large enough to guarantee a poll
    {
        sites.push_back({4 * n, 0, 0});
    }
    const phys::SiDBSystem system{sites, params};
    const auto result = phys::exact_ground_state(system, tripped_budget());
    EXPECT_TRUE(result.cancelled);
    EXPECT_FALSE(result.complete);

    const auto unlimited = phys::exact_ground_state(system);
    EXPECT_TRUE(unlimited.complete);
    EXPECT_FALSE(unlimited.cancelled);
}

TEST(RunControl, OperationalCheckCancellationKeepsPatternIndices)
{
    const auto& lib = layout::BestagonLibrary::instance();
    const auto* wire = lib.lookup(logic::GateType::buf, layout::Port::nw, std::nullopt,
                                  layout::Port::sw, std::nullopt);
    ASSERT_NE(wire, nullptr);
    phys::SimulationParameters params;
    params.mu_minus = -0.32;
    const auto result =
        phys::check_operational(wire->design, params, tripped_budget());
    EXPECT_TRUE(result.cancelled);
    EXPECT_FALSE(result.operational) << "unevaluated patterns must count against operivity";
    for (std::size_t p = 0; p < result.details.size(); ++p)
    {
        EXPECT_EQ(result.details[p].pattern, p) << "skipped slots keep their pattern index";
        EXPECT_FALSE(result.details[p].evaluated);
    }
}

TEST(RunControl, PatternCutBeforeAnyConfigurationStaysUnevaluated)
{
    // a tripped budget skips every annealing instance, so the search returns
    // no configuration at all; the readout must not index into it
    const auto& lib = layout::BestagonLibrary::instance();
    const auto* wire = lib.lookup(logic::GateType::buf, layout::Port::nw, std::nullopt,
                                  layout::Port::sw, std::nullopt);
    ASSERT_NE(wire, nullptr);
    phys::SimulationParameters params;
    params.engine = phys::Engine::simanneal;
    const auto result = phys::simulate_gate_pattern(wire->design, 0, params, tripped_budget());
    EXPECT_TRUE(result.ground_state.cancelled);
    EXPECT_FALSE(result.evaluated);
    EXPECT_FALSE(result.correct);
    EXPECT_TRUE(result.output_states.empty());
}

TEST(RunControl, OperationalDomainCancellationKeepsCoordinates)
{
    const auto& lib = layout::BestagonLibrary::instance();
    const auto* wire = lib.lookup(logic::GateType::buf, layout::Port::nw, std::nullopt,
                                  layout::Port::sw, std::nullopt);
    ASSERT_NE(wire, nullptr);
    phys::SimulationParameters base;
    base.mu_minus = -0.32;
    phys::DomainSweep sweep;
    sweep.axes = phys::DomainAxes::epsilon_r_vs_lambda_tf;
    sweep.x_min = 4.0;
    sweep.x_max = 6.0;
    sweep.x_steps = 3;
    sweep.y_min = 4.0;
    sweep.y_max = 6.0;
    sweep.y_steps = 3;
    const auto domain =
        phys::compute_operational_domain(wire->design, base, sweep, tripped_budget());
    EXPECT_TRUE(domain.cancelled);
    ASSERT_EQ(domain.points.size(), 9U);
    for (const auto& p : domain.points)
    {
        EXPECT_FALSE(p.evaluated);
        EXPECT_FALSE(p.operational);
        EXPECT_GE(p.x, sweep.x_min);
        EXPECT_LE(p.x, sweep.x_max);
    }
    EXPECT_EQ(domain.coverage(), 0.0);
}

TEST(RunControl, GateDesignerHonorsCancellation)
{
    // a pre-tripped token must abort the stochastic search before any
    // simulation work, retries included
    phys::GateDesign d;
    d.name = "wire";
    for (const int m : {1, 2, 5, 6})
    {
        d.sites.push_back({15, m, 0});
    }
    d.input_pairs.push_back({{15, 1, 0}, {15, 2, 0}});
    d.output_pairs.push_back({{15, 5, 0}, {15, 6, 0}});
    d.functions.push_back(logic::TruthTable::from_binary("10"));
    std::vector<phys::SiDBSite> candidates = {{10, 3, 0}, {11, 3, 0}, {12, 3, 1}};
    phys::DesignerOptions options;
    options.max_iterations = 1000000;
    options.max_retries = 5;
    StopSource source;
    source.request_stop();
    options.run.token = source.token();
    phys::SimulationParameters params;
    params.mu_minus = -0.32;
    const auto start = std::chrono::steady_clock::now();
    const auto result = phys::design_gate(d, candidates, options, params);
    EXPECT_FALSE(result.has_value());
    EXPECT_LT(elapsed_ms(start), 5000);
}

// --- the end-to-end invariant oracle ----------------------------------------

TEST(RunControl, ConcurrentStopMidFlowSatisfiesTheOracle)
{
    StopSource source;
    FlowOptions options;
    options.stop = source.token();
    options.validate_gates = true;
    std::thread watchdog{[&source]() {
        std::this_thread::sleep_for(std::chrono::milliseconds{15});
        source.request_stop();
    }};
    const auto verdict = testkit::run_control_differential(
        logic::find_benchmark("par_gen")->build(), options);
    watchdog.join();
    EXPECT_TRUE(verdict.ok) << verdict.detail;
}

TEST(RunControl, DeadlineBoundedFlowSatisfiesTheOracle)
{
    FlowOptions options;
    options.deadline_ms = 25;
    options.validate_gates = true;
    testkit::RunControlOracleStats stats;
    const auto verdict = testkit::run_control_differential(
        logic::find_benchmark("par_gen")->build(), options, 2000, &stats);
    EXPECT_TRUE(verdict.ok) << verdict.detail;
    EXPECT_LE(stats.wall_ms, 2 * options.deadline_ms + 2000);
}

}  // namespace
