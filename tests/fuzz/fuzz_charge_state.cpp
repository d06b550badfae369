/// \file fuzz_charge_state.cpp
/// \brief Differential fuzzing of the incremental charge-state kernel: cached
///        local potentials vs. fresh naive sums under random committed move
///        sequences, the kernel-backed quench vs. the pre-refactor naive
///        quench, and the exact engine vs. brute force.

#include "testing/oracles.hpp"
#include "testing/random.hpp"
#include "testing/reproducer.hpp"

#include <gtest/gtest.h>

namespace
{

using namespace bestagon;

TEST(FuzzChargeState, CacheMatchesNaiveOnRandomMoveSequences)
{
    const auto budget = testkit::fuzz_budget(0xcace'0001, 30);
    const phys::SimulationParameters sim_params{};
    for (std::uint64_t i = 0; i < budget.iterations; ++i)
    {
        const auto seed = testkit::case_seed(budget.base_seed, i);
        testkit::Rng rng{seed};
        const auto canvas = testkit::random_sidb_canvas(rng);
        const auto verdict = testkit::charge_state_differential(canvas, sim_params, seed);
        ASSERT_TRUE(verdict.ok) << verdict.detail << '\n'
                                << testkit::reproducer("charge-state", budget.base_seed, i);
    }
}

TEST(FuzzChargeState, SparseCanvasesAtTheSecondCalibrationPoint)
{
    const auto budget = testkit::fuzz_budget(0xcace'0002, 15);
    phys::SimulationParameters sim_params;
    sim_params.mu_minus = -0.28;  // the paper's second operating point
    testkit::CanvasOptions options;
    options.max_dots = 10;
    options.max_column = 20;
    options.max_dimer_row = 10;
    for (std::uint64_t i = 0; i < budget.iterations; ++i)
    {
        const auto seed = testkit::case_seed(budget.base_seed, i);
        testkit::Rng rng{seed};
        const auto canvas = testkit::random_sidb_canvas(rng, options);
        const auto verdict = testkit::charge_state_differential(canvas, sim_params, seed);
        ASSERT_TRUE(verdict.ok) << verdict.detail << '\n'
                                << testkit::reproducer("charge-state-sparse", budget.base_seed, i);
    }
}

/// Mutation coverage: a commit that updates the configuration but skips the
/// cache update must be detected by the very next cache comparison.
TEST(FuzzChargeState, OracleCatchesSkippedCacheUpdate)
{
    const std::vector<phys::SiDBSite> canvas{{0, 0, 0}, {4, 1, 0}, {8, 2, 1}, {2, 3, 0}};
    const phys::SimulationParameters sim_params{};

    const auto mutant = testkit::charge_state_differential(
        canvas, sim_params, 0xbad5eed, 64, 1e-12, testkit::ChargeStateFault::skip_cache_update);
    ASSERT_FALSE(mutant.ok) << "oracle missed a skipped cache update";
    EXPECT_NE(mutant.detail.find("drifted"), std::string::npos) << mutant.detail;
}

}  // namespace
