/// \file fuzz_ground_state.cpp
/// \brief Differential fuzzing of the ground-state engines (exact, simanneal)
///        against 2^n brute force on random small SiDB canvases.

#include "testing/oracles.hpp"
#include "testing/random.hpp"
#include "testing/reproducer.hpp"

#include <gtest/gtest.h>

namespace
{

using namespace bestagon;

phys::SimAnnealParameters anneal_for_fuzzing()
{
    phys::SimAnnealParameters params;
    params.num_instances = 24;  // generous effort: a miss IS a divergence
    return params;
}

/// \p params with simanneal seeded from \p seed.
phys::SimulationParameters seeded(phys::SimulationParameters params, std::uint64_t seed)
{
    params.anneal_seed = seed;
    return params;
}

TEST(FuzzGroundState, EnginesMatchBruteForceOnRandomCanvases)
{
    const auto budget = testkit::fuzz_budget(0x6d0'0001, 40);
    const phys::SimulationParameters sim_params{};
    for (std::uint64_t i = 0; i < budget.iterations; ++i)
    {
        const auto seed = testkit::case_seed(budget.base_seed, i);
        testkit::Rng rng{seed};
        const auto canvas = testkit::random_sidb_canvas(rng);
        const auto verdict = testkit::ground_state_differential(canvas, seeded(sim_params, seed),
                                                                anneal_for_fuzzing());
        ASSERT_TRUE(verdict.ok) << verdict.detail << '\n'
                                << testkit::reproducer("ground-state", budget.base_seed, i);
    }
}

TEST(FuzzGroundState, SparseCanvasesAtTheSecondCalibrationPoint)
{
    const auto budget = testkit::fuzz_budget(0x6d0'0002, 20);
    phys::SimulationParameters sim_params;
    sim_params.mu_minus = -0.28;  // the paper's second operating point
    testkit::CanvasOptions options;
    options.max_dots = 8;
    options.max_column = 20;
    options.max_dimer_row = 10;
    for (std::uint64_t i = 0; i < budget.iterations; ++i)
    {
        const auto seed = testkit::case_seed(budget.base_seed, i);
        testkit::Rng rng{seed};
        const auto canvas = testkit::random_sidb_canvas(rng, options);
        const auto verdict = testkit::ground_state_differential(canvas, seeded(sim_params, seed),
                                                                anneal_for_fuzzing());
        ASSERT_TRUE(verdict.ok) << verdict.detail << '\n'
                                << testkit::reproducer("ground-state-sparse", budget.base_seed, i);
    }
}

/// Mutation coverage: corrupting the heuristic's configuration, the reference
/// minimum, or the exact engine's population window must all be detected.
TEST(FuzzGroundState, OracleCatchesSeededMutations)
{
    const std::vector<phys::SiDBSite> canvas{{0, 0, 0}, {4, 1, 0}, {8, 2, 1}};
    const phys::SimulationParameters sim_params{};

    const auto corrupted = testkit::ground_state_differential(
        canvas, seeded(sim_params, 0xbad5eed), anneal_for_fuzzing(), 1e-6,
        testkit::GroundStateFault::corrupt_anneal_config);
    ASSERT_FALSE(corrupted.ok) << "oracle missed a corrupted annealing configuration";

    const auto shifted = testkit::ground_state_differential(
        canvas, seeded(sim_params, 0xbad5eed), anneal_for_fuzzing(), 1e-6,
        testkit::GroundStateFault::shift_exact_energy);
    ASSERT_FALSE(shifted.ok) << "oracle missed a misreported brute-force minimum";
    EXPECT_NE(shifted.detail.find("not bit-identical"), std::string::npos) << shifted.detail;

    const auto shrunk = testkit::ground_state_differential(
        canvas, seeded(sim_params, 0xbad5eed), anneal_for_fuzzing(), 1e-6,
        testkit::GroundStateFault::shrink_exact_population_window);
    ASSERT_FALSE(shrunk.ok) << "oracle missed an unsound exact-engine population window";
    EXPECT_NE(shrunk.detail.find("exact engine"), std::string::npos) << shrunk.detail;
}

/// Mutation coverage of the exact engine's descent: with the sites before the
/// branching index left without the row update, the oracle must fail on the
/// suite's random canvases. A canvas with few charges may not show the fault,
/// so the test asks for most canvases, not for a fixed one.
TEST(FuzzGroundState, OracleCatchesStaleExactPotentials)
{
    const auto budget = testkit::fuzz_budget(0x6d0'0001, 40);
    const phys::SimulationParameters sim_params{};
    std::uint64_t caught = 0;
    for (std::uint64_t i = 0; i < budget.iterations; ++i)
    {
        const auto seed = testkit::case_seed(budget.base_seed, i);
        testkit::Rng rng{seed};
        const auto canvas = testkit::random_sidb_canvas(rng);
        const auto stale = testkit::ground_state_differential(
            canvas, seeded(sim_params, seed), anneal_for_fuzzing(), 1e-6,
            testkit::GroundStateFault::stale_exact_potentials);
        if (!stale.ok)
        {
            EXPECT_NE(stale.detail.find("exact engine"), std::string::npos) << stale.detail;
            ++caught;
        }
    }
    EXPECT_GE(caught, budget.iterations / 2)
        << "oracle missed stale exact-engine potentials on " << budget.iterations - caught
        << " of " << budget.iterations << " canvases (base seed " << budget.base_seed << ')';
}

}  // namespace
