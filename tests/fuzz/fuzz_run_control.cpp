/// \file fuzz_run_control.cpp
/// \brief Fault-injected run control across the whole design flow: random
///        networks run under random cancellation / deadline scenarios, and
///        the run_control_differential oracle checks that a cut run never
///        throws, returns within a small multiple of its budget, and keeps
///        artifacts consistent with the per-stage diagnostics.

#include "core/run_control.hpp"
#include "testing/oracles.hpp"
#include "testing/random.hpp"
#include "testing/reproducer.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <thread>

namespace
{

using namespace bestagon;

testkit::XagOptions small_networks()
{
    testkit::XagOptions options;
    options.max_pis = 4;
    options.min_gates = 2;
    options.max_gates = 10;
    options.max_pos = 2;
    return options;
}

core::FlowOptions budgeted_flow_options()
{
    core::FlowOptions options;
    options.exact_options.max_width = 8;
    options.exact_options.max_height = 12;
    options.exact_options.conflicts_per_size = 20000;
    options.exact_options.time_budget_ms = 10000;
    return options;
}

/// The run-control scenarios the fuzzer rotates through.
enum class Scenario : unsigned
{
    pre_cancelled,     ///< the token tripped before the flow started
    concurrent_stop,   ///< a watchdog thread trips the token mid-flow
    tiny_deadline,     ///< a 0..40 ms global deadline
    stage_budgets,     ///< unlimited overall, tiny per-stage budgets
    count
};

TEST(FuzzRunControl, CutRunsStayWellFormed)
{
    const auto budget = testkit::fuzz_budget(0x2c0'0001, 16);
    unsigned interruptions = 0;
    for (std::uint64_t i = 0; i < budget.iterations; ++i)
    {
        testkit::Rng rng{testkit::case_seed(budget.base_seed, i)};
        const auto spec = testkit::random_network(rng, small_networks());
        auto options = budgeted_flow_options();
        options.validate_gates = rng.chance(0.5);
        options.sim_params.engine =
            rng.chance(0.5) ? phys::Engine::exact : phys::Engine::simanneal;
        options.validation_retries = static_cast<unsigned>(rng.below(3));

        core::StopSource source;
        std::thread watchdog;
        const auto scenario = static_cast<Scenario>(i % static_cast<unsigned>(Scenario::count));
        switch (scenario)
        {
            case Scenario::pre_cancelled:
                source.request_stop();
                options.stop = source.token();
                break;
            case Scenario::concurrent_stop:
            {
                options.stop = source.token();
                const auto delay_ms = rng.below(30);
                watchdog = std::thread{[&source, delay_ms]() {
                    std::this_thread::sleep_for(std::chrono::milliseconds{delay_ms});
                    source.request_stop();
                }};
                break;
            }
            case Scenario::tiny_deadline:
                options.deadline_ms = static_cast<std::int64_t>(rng.below(41));
                break;
            case Scenario::stage_budgets:
                options.exact_options.time_budget_ms = static_cast<std::int64_t>(rng.below(10));
                options.equivalence_budget_ms = static_cast<std::int64_t>(rng.below(10));
                options.validation_budget_ms = static_cast<std::int64_t>(rng.below(10));
                break;
            case Scenario::count: break;
        }

        testkit::RunControlOracleStats stats;
        const auto verdict = testkit::run_control_differential(spec, options, 2000, &stats);
        if (watchdog.joinable())
        {
            watchdog.join();
        }
        ASSERT_TRUE(verdict.ok) << verdict.detail << '\n'
                                << testkit::reproducer("run-control", budget.base_seed, i);
        interruptions += stats.interrupted ? 1 : 0;
    }
    // the scenarios must actually exercise the cut paths, not only complete
    EXPECT_GT(interruptions, 0U) << "no scenario ever interrupted the flow";
}

TEST(FuzzRunControl, UncontrolledRunsAlsoSatisfyTheOracle)
{
    // the invariants hold with no stop or deadline configured, too — and the
    // flow must then produce a layout for every network the engines accept
    const auto budget = testkit::fuzz_budget(0x2c0'0002, 8);
    for (std::uint64_t i = 0; i < budget.iterations; ++i)
    {
        testkit::Rng rng{testkit::case_seed(budget.base_seed, i)};
        const auto spec = testkit::random_network(rng, small_networks());
        testkit::RunControlOracleStats stats;
        const auto verdict =
            testkit::run_control_differential(spec, budgeted_flow_options(), 2000, &stats);
        ASSERT_TRUE(verdict.ok) << verdict.detail << '\n'
                                << testkit::reproducer("run-control-plain", budget.base_seed, i);
        EXPECT_FALSE(stats.interrupted)
            << testkit::reproducer("run-control-plain", budget.base_seed, i);
    }
}

/// Mutation coverage: the oracle must notice a flow that forgets its stage
/// accounting, and one that claims equivalence without a layout.
TEST(FuzzRunControl, OracleCatchesDroppedDiagnostics)
{
    testkit::Rng rng{testkit::case_seed(0x2c0'0003, 0)};
    const auto spec = testkit::random_network(rng, small_networks());
    const auto verdict = testkit::run_control_differential(
        spec, budgeted_flow_options(), 2000, nullptr, testkit::RunControlFault::drop_diagnostics);
    ASSERT_FALSE(verdict.ok) << "oracle missed a flow with no stage diagnostics";
    EXPECT_NE(verdict.detail.find("no stage diagnostics"), std::string::npos) << verdict.detail;
}

TEST(FuzzRunControl, OracleCatchesForgedSuccess)
{
    testkit::Rng rng{testkit::case_seed(0x2c0'0004, 0)};
    const auto spec = testkit::random_network(rng, small_networks());
    const auto verdict = testkit::run_control_differential(
        spec, budgeted_flow_options(), 2000, nullptr, testkit::RunControlFault::forge_success);
    ASSERT_FALSE(verdict.ok) << "oracle missed an equivalent verdict without a layout";
    // either consistency check may fire first: "equivalent verdict without a
    // layout" or "derived artifacts exist without a gate-level layout"
    EXPECT_NE(verdict.detail.find("without a"), std::string::npos) << verdict.detail;
}

}  // namespace
