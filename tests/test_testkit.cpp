/// \file test_testkit.cpp
/// \brief Unit tests for the property-testing subsystem itself: generator
///        determinism and validity, seed/reproducer conventions, and the
///        happy path of every differential oracle.

#include "testing/golden.hpp"
#include "testing/oracles.hpp"
#include "testing/random.hpp"
#include "testing/reproducer.hpp"

#include "core/thread_pool.hpp"
#include "io/benchmarks.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <set>
#include <stdexcept>

namespace
{

using namespace bestagon;

TEST(TestkitRng, SameSeedSameStream)
{
    testkit::Rng a{42};
    testkit::Rng b{42};
    for (int i = 0; i < 100; ++i)
    {
        EXPECT_EQ(a.next(), b.next());
    }
    testkit::Rng c{43};
    bool any_difference = false;
    testkit::Rng a2{42};
    for (int i = 0; i < 100; ++i)
    {
        any_difference |= a2.next() != c.next();
    }
    EXPECT_TRUE(any_difference);
}

TEST(TestkitRng, BoundsAreRespected)
{
    testkit::Rng rng{7};
    for (int i = 0; i < 1000; ++i)
    {
        const auto v = rng.range(3, 9);
        EXPECT_GE(v, 3U);
        EXPECT_LE(v, 9U);
        const auto r = rng.real();
        EXPECT_GE(r, 0.0);
        EXPECT_LT(r, 1.0);
    }
}

TEST(TestkitSeeds, CaseSeedMatchesDeriveSeed)
{
    EXPECT_EQ(testkit::case_seed(0x5eed, 17), core::derive_seed(0x5eed, 17));
    EXPECT_NE(testkit::case_seed(0x5eed, 0), testkit::case_seed(0x5eed, 1));
}

TEST(TestkitSeeds, ReproducerIsOneActionableLine)
{
    const auto line = testkit::reproducer("sat", 0x5eed, 17);
    EXPECT_NE(line.find("[bestagon-repro]"), std::string::npos);
    EXPECT_NE(line.find("oracle=sat"), std::string::npos);
    EXPECT_NE(line.find("BESTAGON_FUZZ_SEED=0x5eed"), std::string::npos);
    EXPECT_NE(line.find("case=17"), std::string::npos);
    EXPECT_EQ(line.find('\n'), std::string::npos);
}

TEST(TestkitSeeds, BudgetHonorsEnvironmentOverrides)
{
    ::unsetenv("BESTAGON_FUZZ_SEED");  // isolate from an ambient fuzz-job environment
    ::unsetenv("BESTAGON_FUZZ_SCALE");
    const auto defaults = testkit::fuzz_budget(0xabc, 10);
    EXPECT_EQ(defaults.base_seed, 0xabcU);
    EXPECT_EQ(defaults.iterations, 10U);

    ::setenv("BESTAGON_FUZZ_SEED", "0x123", 1);
    ::setenv("BESTAGON_FUZZ_SCALE", "3", 1);
    const auto overridden = testkit::fuzz_budget(0xabc, 10);
    ::unsetenv("BESTAGON_FUZZ_SEED");
    ::unsetenv("BESTAGON_FUZZ_SCALE");
    EXPECT_EQ(overridden.base_seed, 0x123U);
    EXPECT_EQ(overridden.iterations, 30U);

    ::setenv("BESTAGON_FUZZ_SEED", "not-a-number", 1);
    const auto malformed = testkit::fuzz_budget(0xabc, 10);
    ::unsetenv("BESTAGON_FUZZ_SEED");
    EXPECT_EQ(malformed.base_seed, 0xabcU);
}

TEST(TestkitGenerators, CnfRespectsOptionsAndIsDeterministic)
{
    testkit::CnfOptions options;
    options.min_vars = 4;
    options.max_vars = 9;
    options.max_clause_len = 3;
    for (std::uint64_t seed = 0; seed < 20; ++seed)
    {
        testkit::Rng rng{seed};
        const auto cnf = testkit::random_cnf(rng, options);
        EXPECT_GE(cnf.num_vars, 4);
        EXPECT_LE(cnf.num_vars, 9);
        EXPECT_FALSE(cnf.clauses.empty());
        for (const auto& clause : cnf.clauses)
        {
            EXPECT_GE(clause.size(), 1U);
            EXPECT_LE(clause.size(), 3U);
            std::set<int> vars;
            for (const int lit : clause)
            {
                EXPECT_NE(lit, 0);
                EXPECT_LE(std::abs(lit), cnf.num_vars);
                EXPECT_TRUE(vars.insert(std::abs(lit)).second) << "duplicate variable in clause";
            }
        }
        testkit::Rng replay{seed};
        const auto again = testkit::random_cnf(replay, options);
        EXPECT_EQ(cnf.clauses, again.clauses);
    }
}

TEST(TestkitGenerators, NetworksSimulateAndStayInBounds)
{
    testkit::XagOptions options;
    options.max_pis = 4;
    options.max_gates = 10;
    for (std::uint64_t seed = 0; seed < 20; ++seed)
    {
        testkit::Rng rng{seed};
        const auto net = testkit::random_network(rng, options);
        EXPECT_GE(net.num_pis(), options.min_pis);
        EXPECT_LE(net.num_pis(), options.max_pis);
        EXPECT_GE(net.num_pos(), 1U);
        EXPECT_LE(net.num_pos(), options.max_pos);
        EXPECT_TRUE(net.is_xag());
        const auto tts = net.simulate();  // must not throw: network is well-formed
        EXPECT_EQ(tts.size(), net.num_pos());
    }
}

TEST(TestkitGenerators, MappedNetworksAreBestagonCompliant)
{
    for (std::uint64_t seed = 100; seed < 110; ++seed)
    {
        testkit::Rng rng{seed};
        const auto mapped = testkit::random_mapped_network(rng);
        std::string why;
        EXPECT_TRUE(mapped.is_bestagon_compliant(&why)) << why;
    }
}

TEST(TestkitGenerators, GateLayoutsPlaceEveryNetwork)
{
    testkit::Rng rng{2026};
    const auto layout = testkit::random_gate_layout(rng);
    ASSERT_TRUE(layout.has_value());
    EXPECT_GT(layout->num_occupied_tiles(), 0U);
}

TEST(TestkitGenerators, CanvasesAreUniqueAndBounded)
{
    testkit::CanvasOptions options;
    options.min_dots = 3;
    options.max_dots = 9;
    for (std::uint64_t seed = 0; seed < 20; ++seed)
    {
        testkit::Rng rng{seed};
        const auto canvas = testkit::random_sidb_canvas(rng, options);
        EXPECT_GE(canvas.size(), 3U);
        EXPECT_LE(canvas.size(), 9U);
        const std::set<phys::SiDBSite> unique(canvas.begin(), canvas.end());
        EXPECT_EQ(unique.size(), canvas.size());
        for (const auto& site : canvas)
        {
            EXPECT_GE(site.n, 0);
            EXPECT_LE(site.n, options.max_column);
            EXPECT_GE(site.m, 0);
            EXPECT_LE(site.m, options.max_dimer_row);
            EXPECT_TRUE(site.l == 0 || site.l == 1);
        }
    }
}

TEST(TestkitOracles, SatHappyPathOnFixedFormulas)
{
    sat::Cnf satisfiable;
    satisfiable.num_vars = 3;
    satisfiable.clauses = {{1, 2}, {-1, 3}, {-2, -3}};
    EXPECT_TRUE(testkit::sat_differential(satisfiable).ok);

    sat::Cnf unsatisfiable;
    unsatisfiable.num_vars = 2;
    unsatisfiable.clauses = {{1, 2}, {1, -2}, {-1, 2}, {-1, -2}};
    EXPECT_TRUE(testkit::sat_differential(unsatisfiable).ok);
}

TEST(TestkitOracles, GroundStateHappyPathOnFixedCanvas)
{
    const std::vector<phys::SiDBSite> canvas{{0, 0, 0}, {4, 1, 0}, {8, 2, 1}, {2, 3, 0}};
    const auto verdict = testkit::ground_state_differential(canvas, phys::SimulationParameters{});
    EXPECT_TRUE(verdict.ok) << verdict.detail;
}

/// The exact engine's descent writes each child's potentials in one pass; a
/// descent that leaves the sites before the branching index stale must be
/// caught by the oracle on the canvases the CI ground-state stress step draws
/// first (its pinned seed), while the sound engine passes on the same ones.
TEST(TestkitOracles, GroundStateCatchesStaleExactPotentialsAtTheCiSeed)
{
    constexpr std::uint64_t ci_seed = 0xbe57a605;
    constexpr std::uint64_t cases = 16;
    std::uint64_t caught = 0;
    for (std::uint64_t i = 0; i < cases; ++i)
    {
        const auto seed = testkit::case_seed(ci_seed, i);
        testkit::Rng rng{seed};
        const auto canvas = testkit::random_sidb_canvas(rng);
        const phys::SimulationParameters params;
        const auto sound = testkit::ground_state_differential(canvas, params);
        EXPECT_TRUE(sound.ok) << "case " << i << ": " << sound.detail;
        const auto stale = testkit::ground_state_differential(
            canvas, params, testkit::GroundStateFault::stale_exact_potentials);
        if (!stale.ok)
        {
            EXPECT_NE(stale.detail.find("exact engine"), std::string::npos) << stale.detail;
            ++caught;
        }
    }
    // 13 of the 16 at this seed
    EXPECT_GE(caught, cases / 2);
}

TEST(TestkitOracles, BruteForceGroundStateCountsDegeneracyAndRejectsLargeSystems)
{
    const phys::SimulationParameters params;
    const auto empty = testkit::brute_force_ground_state(phys::SiDBSystem{{}, params});
    EXPECT_TRUE(empty.complete);
    EXPECT_TRUE(empty.config.empty());
    EXPECT_EQ(empty.grand_potential, 0.0);
    EXPECT_EQ(empty.degeneracy, 1U);

    // a BDL pair holds one electron on either site: two degenerate minima
    const phys::SiDBSystem pair{{{0, 0, 0}, {1, 0, 0}}, params};
    const auto bistable = testkit::brute_force_ground_state(pair);
    EXPECT_EQ(bistable.config, (phys::ChargeConfig{1, 0}));  // first in enumeration order
    EXPECT_EQ(bistable.grand_potential, pair.grand_potential(bistable.config));
    EXPECT_EQ(bistable.degeneracy, 2U);

    std::vector<phys::SiDBSite> sites;
    for (int k = 0; k <= static_cast<int>(testkit::max_brute_force_sites); ++k)
    {
        sites.push_back({40 * k, 0, 0});
    }
    const phys::SiDBSystem too_large{sites, params};
    EXPECT_THROW(static_cast<void>(testkit::brute_force_ground_state(too_large)),
                 std::invalid_argument);
}

TEST(TestkitOracles, FrontendHappyPathOnBenchmark)
{
    const auto verdict =
        testkit::frontend_differential(io::find_benchmark("par_check")->build(), 0x7e57);
    EXPECT_TRUE(verdict.ok) << verdict.detail;
}

TEST(TestkitOracles, InvertedPoCopyFlipsExactlyThatOutput)
{
    const auto net = io::find_benchmark("c17")->build();
    const auto inverted = testkit::with_inverted_po(net, 1);
    ASSERT_EQ(inverted.num_pos(), net.num_pos());
    const auto original_tts = net.simulate();
    const auto inverted_tts = inverted.simulate();
    EXPECT_EQ(inverted_tts[0], original_tts[0]);
    EXPECT_EQ(inverted_tts[1], ~original_tts[1]);
}

TEST(TestkitGolden, UpdateModeWritesAndComparisonModeReads)
{
    const std::string path = ::testing::TempDir() + "/bestagon_testkit_golden.txt";
    std::remove(path.c_str());
    const bool was_update = testkit::update_goldens_flag();

    testkit::update_goldens_flag() = true;
    EXPECT_TRUE(testkit::compare_golden("hello \r\nworld\n\n", path).ok);

    testkit::update_goldens_flag() = false;
    EXPECT_TRUE(testkit::compare_golden("hello\nworld\n", path).ok);
    const auto mismatch = testkit::compare_golden("hello\nmoon\n", path);
    EXPECT_FALSE(mismatch.ok);
    EXPECT_NE(mismatch.detail.find("line 2"), std::string::npos) << mismatch.detail;
    const auto missing = testkit::compare_golden("x\n", path + ".does-not-exist");
    EXPECT_FALSE(missing.ok);
    EXPECT_NE(missing.detail.find("missing golden"), std::string::npos);

    testkit::update_goldens_flag() = was_update;
    std::remove(path.c_str());
}

}  // namespace
