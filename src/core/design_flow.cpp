#include "core/design_flow.hpp"

#include "core/thread_pool.hpp"
#include "io/bench_reader.hpp"
#include "io/verilog.hpp"
#include "logic/rewriting.hpp"
#include "logic/tech_mapping.hpp"

#include <algorithm>
#include <chrono>
#include <exception>
#include <stdexcept>
#include <string>
#include <utility>

namespace bestagon::core
{

namespace
{

/// Status of a stage that was cut by the run budget: the token takes
/// precedence (an explicit cancellation is more specific than a deadline).
[[nodiscard]] StageStatus cut_status(const RunBudget& run)
{
    return run.token.stop_requested() ? StageStatus::cancelled : StageStatus::timed_out;
}

/// How a stage body ended.
struct StageOutcome
{
    StageStatus status{StageStatus::completed};
    std::string detail;
};

/// Runs one flow stage: times \p body, turns an escaping exception into a
/// `failed` outcome and appends the stage's one report. Returns false when
/// the stage failed, which ends the run.
template <typename Body>
bool run_stage(FlowDiagnostics& diag, std::string name, Body&& body)
{
    const auto start = std::chrono::steady_clock::now();
    StageOutcome outcome;
    try
    {
        outcome = body();
    }
    catch (const std::exception& e)
    {
        outcome = {StageStatus::failed, e.what()};
    }
    StageReport report;
    report.stage = std::move(name);
    report.status = outcome.status;
    report.wall_us = std::chrono::duration_cast<std::chrono::microseconds>(
                         std::chrono::steady_clock::now() - start)
                         .count();
    report.detail = std::move(outcome.detail);
    diag.stages.push_back(std::move(report));
    return outcome.status != StageStatus::failed;
}

/// Step (4): exact P&R first. When it declines, exhausts its budget or
/// rejects the input, the scalable engine runs on the same defect surface;
/// a cancellation ends the stage without a fallback (the user wants out).
StageOutcome place_and_route(const FlowOptions& options, const RunBudget& run, FlowResult& result)
{
    auto exact_opts = options.exact_options;
    exact_opts.run.token = run.token;
    exact_opts.run.deadline = Deadline::sooner(exact_opts.run.deadline, run.deadline);
    std::string exact_outcome;
    try
    {
        result.layout = layout::exact_physical_design(result.mapped, exact_opts, &result.pd_stats);
    }
    catch (const std::invalid_argument& e)
    {
        exact_outcome = std::string{"exact engine rejected the input ("} + e.what() + ")";
    }
    result.engine_used = "exact";
    if (result.layout.has_value())
    {
        return {StageStatus::completed, "exact"};
    }
    if (result.pd_stats.cancelled)
    {
        return {StageStatus::cancelled, "exact engine cancelled"};
    }
    if (exact_outcome.empty())
    {
        exact_outcome =
            result.pd_stats.budget_exhausted ? "exact budget exhausted" : "exact engine declined";
    }

    // the deadline that cut the exact engine must not also cut the (fast,
    // constructive) fallback — only the cancellation token still applies
    result.engine_used = "scalable";
    result.layout = layout::scalable_physical_design(result.mapped, RunBudget{run.token, {}},
                                                     &result.scalable_stats,
                                                     &options.exact_options.defects);
    if (result.layout.has_value())
    {
        return {StageStatus::degraded, exact_outcome + "; scalable fallback"};
    }
    if (result.scalable_stats.cancelled)
    {
        return {StageStatus::cancelled, "scalable fallback cancelled"};
    }
    return {StageStatus::failed,
            exact_outcome + "; " +
                (result.scalable_stats.message.empty() ? "scalable engine found no layout"
                                                       : result.scalable_stats.message)};
}

/// Step (7b): re-checks every distinct tile in use; the checks are
/// independent physical simulations and fan out in parallel. Skipped with a
/// record when the run is already out of budget.
StageOutcome validate_gates(const FlowOptions& options, const RunBudget& run, FlowResult& result)
{
    if (run.stopped())
    {
        return {StageStatus::skipped, run.token.stop_requested() ? "skipped: run cancelled"
                                                                 : "skipped: deadline exhausted"};
    }
    const auto& used = result.apply_stats.implementations_used;
    result.gate_validation.resize(used.size());
    parallel_for(options.sim_params.num_threads, used.size(), run, [&](std::size_t i) {
        const auto check = phys::check_operational(used[i]->design, options.sim_params, {}, run);
        result.gate_validation[i] = {used[i]->design.name, check.operational,
                                     check.patterns_correct, check.patterns_total,
                                     !check.cancelled};
    });
    const bool all_evaluated = std::all_of(result.gate_validation.begin(),
                                           result.gate_validation.end(),
                                           [](const GateValidation& v) { return v.evaluated; });
    if (run.stopped() || !all_evaluated)
    {
        return {cut_status(run), "validation cut short; unevaluated tiles are recorded"};
    }
    return {};
}

/// The staged flow body. A stage that fails ends the run; a tripped run
/// budget marks a stage `cancelled`/`timed_out` and lets the cheap artifact
/// stages still run, so a cut run keeps every partial result produced so far.
void run_flow_stages(const logic::LogicNetwork& specification, const FlowOptions& options,
                     FlowResult& result)
{
    const RunBudget run{options.stop, Deadline::in_ms(options.deadline_ms)};
    auto& diag = result.diagnostics;

    // (1) specification as XAG, (2) cut rewriting with the exact NPN
    // database, (3) technology mapping onto the Bestagon gate set
    if (!run_stage(diag, "to_xag", [&]() -> StageOutcome {
            result.xag = logic::to_xag(specification);
            return {};
        }) ||
        !run_stage(diag, "rewrite", [&]() -> StageOutcome {
            if (!options.rewrite)
            {
                result.rewritten = result.xag;
                return {StageStatus::skipped, "disabled"};
            }
            logic::NpnDatabase database;
            result.rewritten = logic::rewrite(result.xag, database);
            return {};
        }) ||
        !run_stage(diag, "tech_mapping", [&]() -> StageOutcome {
            result.mapped = logic::map_to_bestagon(result.rewritten);
            return {};
        }))
    {
        return;
    }

    // (4) physical design
    run_stage(diag, "physical_design", [&]() { return place_and_route(options, run, result); });
    if (!result.layout.has_value())
    {
        return;
    }

    // (5) formal equivalence checking specification <-> layout; a cut check
    // degrades to `unknown` and the flow still emits the remaining artifacts
    if (!run_stage(diag, "equivalence", [&]() -> StageOutcome {
            result.equivalence =
                layout::check_layout_equivalence(result.mapped, *result.layout, nullptr, run);
            if (result.equivalence == layout::EquivalenceResult::unknown && run.stopped())
            {
                return {cut_status(run), "check cut short; result is unknown"};
            }
            return {StageStatus::completed,
                    result.equivalence == layout::EquivalenceResult::equivalent ? "equivalent"
                    : result.equivalence == layout::EquivalenceResult::not_equivalent
                        ? "NOT equivalent"
                        : "unknown"};
        }))
    {
        return;
    }

    // (6) super-tile merging, design rules, (7) library application: cheap,
    // bounded artifact stages — they run even after a deadline cut so that a
    // degraded run still yields usable outputs
    if (!run_stage(diag, "supertiles", [&]() -> StageOutcome {
            result.supertiles = layout::make_supertiles(*result.layout, options.supertile_expansion);
            return {};
        }) ||
        !run_stage(diag, "drc", [&]() -> StageOutcome {
            result.drc = layout::check_design_rules(*result.supertiles);
            return {StageStatus::completed, result.drc.clean() ? "clean" : "violations found"};
        }) ||
        !run_stage(diag, "apply_library", [&]() -> StageOutcome {
            result.sidb = layout::apply_gate_library(*result.layout, &result.apply_stats);
            return {};
        }))
    {
        return;
    }

    // (7b) ground-state re-validation of the distinct tiles in use
    if (options.validate_gates)
    {
        run_stage(diag, "gate_validation", [&]() { return validate_gates(options, run, result); });
    }
}

/// Parses \p text with \p read as the "parse" stage, then runs the flow on
/// the parsed network. A reader's exception becomes a failed parse stage
/// whose detail is the reader's message.
template <typename Reader>
FlowResult parse_then_run(Reader read, const std::string& text, const FlowOptions& options)
{
    FlowResult result;
    logic::LogicNetwork network;
    if (run_stage(result.diagnostics, "parse", [&]() -> StageOutcome {
            network = read(text);
            return {};
        }))
    {
        run_flow_stages(network, options, result);
    }
    return result;
}

}  // namespace

FlowResult run_design_flow(const logic::LogicNetwork& specification, const FlowOptions& options)
{
    FlowResult result;
    run_flow_stages(specification, options, result);
    return result;
}

FlowResult run_design_flow_verilog(const std::string& verilog, const FlowOptions& options)
{
    return parse_then_run(io::read_verilog_string, verilog, options);
}

FlowResult run_design_flow_bench(const std::string& bench, const FlowOptions& options)
{
    return parse_then_run(io::read_bench_string, bench, options);
}

}  // namespace bestagon::core
