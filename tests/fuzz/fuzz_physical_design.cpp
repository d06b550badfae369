/// \file fuzz_physical_design.cpp
/// \brief Differential fuzzing of the exact vs. scalable placement & routing
///        engines: every produced layout must pass SAT equivalence checking
///        against the specification, every exact layout must be DRC-clean,
///        every size the exact engine refutes must carry a checked DRAT
///        proof, and the exact engine may never lose on area inside its own
///        search bounds.

#include "testing/oracles.hpp"
#include "testing/random.hpp"
#include "testing/reproducer.hpp"

#include <gtest/gtest.h>

namespace
{

using namespace bestagon;

layout::ExactPDOptions budgeted_exact_options()
{
    layout::ExactPDOptions options;
    options.max_width = 8;
    options.max_height = 12;
    options.conflicts_per_size = 50000;
    options.time_budget_ms = 20000;
    return options;
}

testkit::XagOptions small_networks()
{
    testkit::XagOptions options;
    options.max_pis = 3;
    options.min_gates = 2;
    options.max_gates = 6;
    options.max_pos = 2;
    return options;
}

TEST(FuzzPhysicalDesign, BothEnginesImplementTheSpecification)
{
    const auto budget = testkit::fuzz_budget(0x9d0'0001, 8);
    unsigned exact_runs = 0;
    unsigned scalable_runs = 0;
    unsigned proofs_checked = 0;
    for (std::uint64_t i = 0; i < budget.iterations; ++i)
    {
        testkit::Rng rng{testkit::case_seed(budget.base_seed, i)};
        const auto spec = testkit::random_network(rng, small_networks());
        testkit::PdOracleStats stats;
        const auto verdict =
            testkit::physical_design_differential(spec, budgeted_exact_options(), &stats);
        ASSERT_TRUE(verdict.ok) << verdict.detail << '\n'
                                << testkit::reproducer("physical-design", budget.base_seed, i);
        EXPECT_EQ(stats.proof_failures, 0U)
            << testkit::reproducer("physical-design", budget.base_seed, i);
        exact_runs += stats.exact_ran ? 1 : 0;
        scalable_runs += stats.scalable_ran ? 1 : 0;
        proofs_checked += stats.proofs_checked;
    }
    // both engines must actually participate in the differential check
    // (either may decline individual cases: budget expiry / march failure)
    EXPECT_GT(exact_runs, 0U) << "exact engine never completed within its budget";
    EXPECT_GT(scalable_runs, 0U) << "scalable engine declined every generated network";
    // the ascending-area search refutes smaller sizes before finding a layout;
    // every such UNSAT verdict must have been DRAT-certified along the way
    EXPECT_GT(proofs_checked, 0U) << "no refuted size was ever certified";
}

TEST(FuzzPhysicalDesign, ScalableEngineSurvivesWiderNetworks)
{
    // beyond the exact engine's practical reach: scalable-only, but every
    // layout still has to satisfy the SAT miter
    const auto budget = testkit::fuzz_budget(0x9d0'0002, 12);
    testkit::XagOptions options;
    options.max_pis = 5;
    options.min_gates = 6;
    options.max_gates = 18;
    options.max_pos = 3;
    layout::ExactPDOptions no_exact;
    no_exact.max_width = 1;  // unsatisfiable bounds: skips the exact engine
    no_exact.max_height = 1;
    no_exact.conflicts_per_size = 100;
    no_exact.time_budget_ms = 100;
    unsigned scalable_runs = 0;
    for (std::uint64_t i = 0; i < budget.iterations; ++i)
    {
        testkit::Rng rng{testkit::case_seed(budget.base_seed, i)};
        const auto spec = testkit::random_network(rng, options);
        testkit::PdOracleStats stats;
        const auto verdict = testkit::physical_design_differential(spec, no_exact, &stats);
        ASSERT_TRUE(verdict.ok) << verdict.detail << '\n'
                                << testkit::reproducer("physical-design-wide", budget.base_seed, i);
        scalable_runs += stats.scalable_ran ? 1 : 0;
    }
    EXPECT_GT(scalable_runs, 0U) << "scalable engine declined every generated network";
}

/// A congested 2-PI network: both inputs feed four gates, so the mapper's
/// fan-out trees and the depth constraints pin four gates to one row. The
/// narrow ladder sizes are genuinely refuted before a wider one fits, so
/// the exact engine certifies several rejected ratios on its way to a
/// layout. Written with plain gates: the oracle maps it, and the mapper
/// inserts the fan-outs.
logic::LogicNetwork congested_network()
{
    logic::LogicNetwork spec;
    const auto a = spec.create_pi("a");
    const auto b = spec.create_pi("b");
    const auto x1 = spec.create_xor(a, b);
    const auto x2 = spec.create_and(a, b);
    const auto x3 = spec.create_or(a, b);
    const auto x4 = spec.create_nand(a, b);
    const auto y1 = spec.create_xor(x1, x2);
    const auto y2 = spec.create_xor(x3, x4);
    spec.create_po(spec.create_xor(y1, y2), "f");
    return spec;
}

TEST(FuzzPhysicalDesign, ExactEngineCertifiesRefutedRatiosOnCongestedNetwork)
{
    testkit::PdOracleStats stats;
    const auto verdict = testkit::physical_design_differential(congested_network(),
                                                               budgeted_exact_options(), &stats);
    ASSERT_TRUE(verdict.ok) << verdict.detail;
    EXPECT_TRUE(stats.exact_ran);
    EXPECT_GT(stats.proofs_checked, 0U);
    EXPECT_EQ(stats.proof_failures, 0U);
}

/// Mutation coverage: an engine that realizes the wrong function (modeled by
/// a specification with one inverted output) must fail the SAT miter.
TEST(FuzzPhysicalDesign, OracleCatchesWrongFunction)
{
    logic::LogicNetwork spec;
    const auto a = spec.create_pi("a");
    const auto b = spec.create_pi("b");
    spec.create_po(spec.create_xor(a, b), "f");
    const auto verdict = testkit::physical_design_differential(
        spec, budgeted_exact_options(), nullptr, testkit::PdFault::invert_spec_output);
    ASSERT_FALSE(verdict.ok) << "oracle missed a functionally wrong layout";
    EXPECT_NE(verdict.detail.find("NOT equivalent"), std::string::npos) << verdict.detail;
}

}  // namespace
