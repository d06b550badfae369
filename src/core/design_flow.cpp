#include "core/design_flow.hpp"

#include "core/thread_pool.hpp"
#include "io/bench_reader.hpp"
#include "io/verilog.hpp"
#include "logic/rewriting.hpp"
#include "logic/tech_mapping.hpp"

#include <atomic>
#include <exception>
#include <numeric>
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

/// Appends one stage report; wall_ms is measured from \p start.
void report(FlowDiagnostics& diag, std::string stage, StageStatus status, std::int64_t start,
            std::string detail = {}, unsigned retries = 0)
{
    StageReport r;
    r.stage = std::move(stage);
    r.status = status;
    r.wall_ms = now_ms() - start;
    r.retries = retries;
    r.detail = std::move(detail);
    diag.stages.push_back(std::move(r));
}

/// The staged flow body. Each stage is individually guarded: an exception
/// marks the stage `failed` and ends the run; a tripped run budget marks it
/// `cancelled`/`timed_out` and lets the cheap artifact stages still run, so
/// a cut run keeps every partial result produced so far.
void run_flow_stages(const logic::LogicNetwork& specification, const FlowOptions& options,
                     const RunBudget& run, FlowResult& result)
{
    auto& diag = result.diagnostics;

    // (1) specification as XAG — bounded, structural
    {
        const auto start = now_ms();
        try
        {
            result.xag = logic::to_xag(specification);
            report(diag, "to_xag", StageStatus::completed, start);
        }
        catch (const std::exception& e)
        {
            report(diag, "to_xag", StageStatus::failed, start, e.what());
            return;
        }
    }

    // (2) cut rewriting with the exact NPN database
    {
        const auto start = now_ms();
        try
        {
            if (options.rewrite)
            {
                logic::NpnDatabase database;
                result.rewritten = logic::rewrite(result.xag, database);
                report(diag, "rewrite", StageStatus::completed, start);
            }
            else
            {
                result.rewritten = result.xag;
                report(diag, "rewrite", StageStatus::skipped, start, "disabled");
            }
        }
        catch (const std::exception& e)
        {
            report(diag, "rewrite", StageStatus::failed, start, e.what());
            return;
        }
    }

    // (3) technology mapping onto the Bestagon gate set
    {
        const auto start = now_ms();
        try
        {
            result.mapped = logic::map_to_bestagon(result.rewritten);
            report(diag, "tech_mapping", StageStatus::completed, start);
        }
        catch (const std::exception& e)
        {
            report(diag, "tech_mapping", StageStatus::failed, start, e.what());
            return;
        }
    }

    // (4) physical design, with the degradation ladder:
    //     exact engine cut by budget/deadline -> scalable fallback (degraded);
    //     cut by cancellation -> stop (no fallback: the user wants out)
    {
        const auto start = now_ms();
        try
        {
            const auto run_scalable = [&]() {
                return layout::scalable_physical_design(result.mapped, RunBudget{run.token, {}},
                                                        &result.scalable_stats);
            };
            switch (options.engine)
            {
                case PhysicalDesignEngine::exact:
                case PhysicalDesignEngine::exact_with_fallback:
                {
                    auto exact_opts = options.exact_options;
                    exact_opts.run.token = run.token;
                    exact_opts.run.deadline =
                        Deadline::sooner(exact_opts.run.deadline, run.deadline);
                    // an input the exact engine rejects (e.g. a constant
                    // output) still goes to the fallback
                    std::string exact_rejection;
                    try
                    {
                        result.layout =
                            layout::exact_physical_design(result.mapped, exact_opts, &result.pd_stats);
                    }
                    catch (const std::invalid_argument& e)
                    {
                        if (options.engine == PhysicalDesignEngine::exact)
                        {
                            throw;
                        }
                        exact_rejection = e.what();
                    }
                    result.engine_used = "exact";
                    if (result.layout.has_value())
                    {
                        report(diag, "physical_design", StageStatus::completed, start, "exact");
                        break;
                    }
                    if (result.pd_stats.cancelled)
                    {
                        report(diag, "physical_design", StageStatus::cancelled, start,
                               "exact engine cancelled");
                        break;
                    }
                    if (options.engine == PhysicalDesignEngine::exact)
                    {
                        report(diag, "physical_design",
                               result.pd_stats.budget_exhausted ? StageStatus::timed_out
                                                                : StageStatus::completed,
                               start,
                               result.pd_stats.message.empty() ? "exact engine found no layout"
                                                               : result.pd_stats.message);
                        break;
                    }
                    const std::string exact_outcome =
                        !exact_rejection.empty() ? "exact engine rejected the input (" + exact_rejection + ")"
                        : result.pd_stats.budget_exhausted ? "exact budget exhausted"
                                                           : "exact engine declined";
                    // fallback: the deadline that cut the exact engine must
                    // not also cut the (fast, constructive) fallback — only
                    // the cancellation token still applies
                    result.engine_used = "scalable";
                    result.layout = run_scalable();
                    if (result.layout.has_value())
                    {
                        report(diag, "physical_design", StageStatus::degraded, start,
                               exact_outcome + "; scalable fallback");
                    }
                    else if (result.scalable_stats.cancelled)
                    {
                        report(diag, "physical_design", StageStatus::cancelled, start,
                               "scalable fallback cancelled");
                    }
                    else
                    {
                        report(diag, "physical_design", StageStatus::failed, start,
                               exact_outcome + "; " +
                                   (result.scalable_stats.message.empty()
                                        ? "scalable engine found no layout"
                                        : result.scalable_stats.message));
                    }
                    break;
                }
                case PhysicalDesignEngine::scalable:
                {
                    result.layout = run_scalable();
                    result.engine_used = "scalable";
                    if (result.layout.has_value())
                    {
                        report(diag, "physical_design", StageStatus::completed, start, "scalable");
                    }
                    else if (result.scalable_stats.cancelled)
                    {
                        report(diag, "physical_design", StageStatus::cancelled, start,
                               "scalable engine cancelled");
                    }
                    else
                    {
                        report(diag, "physical_design", StageStatus::failed, start,
                               result.scalable_stats.message);
                    }
                    break;
                }
            }
        }
        catch (const std::exception& e)
        {
            report(diag, "physical_design", StageStatus::failed, start, e.what());
            return;
        }
    }
    if (!result.layout.has_value())
    {
        return;
    }

    // (5) formal equivalence checking specification <-> layout; a cut check
    // degrades to `unknown` and the flow still emits the remaining artifacts
    {
        const auto start = now_ms();
        const auto eq_run = run.clipped_ms(options.equivalence_budget_ms);
        try
        {
            result.equivalence =
                layout::check_layout_equivalence(result.mapped, *result.layout, nullptr, eq_run);
            if (result.equivalence == layout::EquivalenceResult::unknown && eq_run.stopped())
            {
                report(diag, "equivalence", cut_status(eq_run), start,
                       "check cut short; result is unknown");
            }
            else
            {
                report(diag, "equivalence", StageStatus::completed, start,
                       result.equivalence == layout::EquivalenceResult::equivalent
                           ? "equivalent"
                           : (result.equivalence == layout::EquivalenceResult::not_equivalent
                                  ? "NOT equivalent"
                                  : "unknown"));
            }
        }
        catch (const std::exception& e)
        {
            report(diag, "equivalence", StageStatus::failed, start, e.what());
            return;
        }
    }

    // (6) super-tile merging, design rules, (7) library application: cheap,
    // bounded artifact stages — they run even after a deadline cut so that a
    // degraded run still yields usable outputs
    {
        const auto start = now_ms();
        try
        {
            result.supertiles = layout::make_supertiles(*result.layout, options.supertile_expansion);
            report(diag, "supertiles", StageStatus::completed, start);
        }
        catch (const std::exception& e)
        {
            report(diag, "supertiles", StageStatus::failed, start, e.what());
            return;
        }
    }
    {
        const auto start = now_ms();
        try
        {
            result.drc = layout::check_design_rules(*result.supertiles);
            report(diag, "drc", StageStatus::completed, start,
                   result.drc.clean() ? "clean" : "violations found");
        }
        catch (const std::exception& e)
        {
            report(diag, "drc", StageStatus::failed, start, e.what());
            return;
        }
    }
    {
        const auto start = now_ms();
        try
        {
            result.sidb = layout::apply_gate_library(*result.layout, &result.apply_stats);
            report(diag, "apply_library", StageStatus::completed, start);
        }
        catch (const std::exception& e)
        {
            report(diag, "apply_library", StageStatus::failed, start, e.what());
            return;
        }
    }

    // (7b) ground-state re-validation of the distinct tiles in use; the
    // checks are independent physical simulations and fan out in parallel.
    // Skipped-with-record when the run is already out of budget.
    if (options.validate_gates)
    {
        const auto start = now_ms();
        if (run.stopped())
        {
            report(diag, "gate_validation", StageStatus::skipped, start,
                   run.token.stop_requested() ? "skipped: run cancelled"
                                              : "skipped: deadline exhausted");
            return;
        }
        const auto val_run = run.clipped_ms(options.validation_budget_ms);
        try
        {
            const auto& used = result.apply_stats.implementations_used;
            result.gate_validation.resize(used.size());
            parallel_for(options.sim_params.num_threads, used.size(), val_run, [&](std::size_t i) {
                GateValidation& v = result.gate_validation[i];
                v.name = used[i]->design.name;
                auto params = options.sim_params;
                auto check = phys::check_operational(used[i]->design, params,
                                                     options.validation_engine, val_run);
                // stochastic engine: bounded retries with a deterministically
                // rotated seed before declaring the tile non-operational
                while (!check.operational && !check.cancelled &&
                       phys::stochastic_engine(phys::resolve_engine(options.validation_engine,
                                                                    options.sim_params)) &&
                       v.retries < options.validation_retries && !val_run.stopped())
                {
                    ++v.retries;
                    params.anneal_seed =
                        derive_seed(options.sim_params.anneal_seed, v.retries);
                    check = phys::check_operational(used[i]->design, params,
                                                    options.validation_engine, val_run);
                }
                v.operational = check.operational;
                v.patterns_correct = check.patterns_correct;
                v.patterns_total = check.patterns_total;
                v.evaluated = !check.cancelled;
            });
            unsigned retries = 0;
            bool all_evaluated = true;
            for (const auto& v : result.gate_validation)
            {
                retries += v.retries;
                all_evaluated = all_evaluated && v.evaluated;
            }
            if (val_run.stopped() || !all_evaluated)
            {
                report(diag, "gate_validation", cut_status(val_run), start,
                       "validation cut short; unevaluated tiles are recorded", retries);
            }
            else
            {
                report(diag, "gate_validation", StageStatus::completed, start, {}, retries);
            }
        }
        catch (const std::exception& e)
        {
            report(diag, "gate_validation", StageStatus::failed, start, e.what());
            return;
        }
    }
}

}  // namespace

FlowResult run_design_flow(const logic::LogicNetwork& specification, const FlowOptions& options)
{
    FlowResult result;
    const RunBudget run{options.stop, Deadline::in_ms(options.deadline_ms)};
    run_flow_stages(specification, options, run, result);
    return result;
}

FlowResult run_design_flow_verilog(const std::string& verilog, const FlowOptions& options)
{
    const auto start = now_ms();
    logic::LogicNetwork network;
    try
    {
        network = io::read_verilog_string(verilog);
    }
    catch (const std::exception& e)
    {
        FlowResult result;
        report(result.diagnostics, "parse", StageStatus::failed, start,
               std::string{"verilog: "} + e.what());
        return result;
    }
    const auto parse_ms = now_ms() - start;
    auto result = run_design_flow(network, options);
    StageReport parse;
    parse.stage = "parse";
    parse.status = StageStatus::completed;
    parse.wall_ms = parse_ms;
    result.diagnostics.stages.insert(result.diagnostics.stages.begin(), std::move(parse));
    return result;
}

FlowResult run_design_flow_bench(const std::string& bench, const FlowOptions& options)
{
    const auto start = now_ms();
    logic::LogicNetwork network;
    try
    {
        network = io::read_bench_string(bench);
    }
    catch (const std::exception& e)
    {
        FlowResult result;
        report(result.diagnostics, "parse", StageStatus::failed, start,
               std::string{"bench: "} + e.what());
        return result;
    }
    const auto parse_ms = now_ms() - start;
    auto result = run_design_flow(network, options);
    StageReport parse;
    parse.stage = "parse";
    parse.status = StageStatus::completed;
    parse.wall_ms = parse_ms;
    result.diagnostics.stages.insert(result.diagnostics.stages.begin(), std::move(parse));
    return result;
}

}  // namespace bestagon::core
