#include "phys/ground_state_exact.hpp"
#include "testing/oracles.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <random>

namespace
{

using namespace bestagon::phys;

std::vector<SiDBSite> random_sites(unsigned n, std::mt19937& rng)
{
    std::vector<SiDBSite> sites;
    while (sites.size() < n)
    {
        const SiDBSite s{static_cast<int>(rng() % 20), static_cast<int>(rng() % 10),
                         static_cast<int>(rng() % 2)};
        if (std::find(sites.begin(), sites.end(), s) == sites.end())
        {
            sites.push_back(s);
        }
    }
    return sites;
}

TEST(ExactGroundState, SingleSite)
{
    SimulationParameters p;
    p.mu_minus = -0.32;
    const SiDBSystem sys{{{0, 0, 0}}, p};
    const auto gs = exact_ground_state(sys);
    EXPECT_TRUE(gs.complete);
    EXPECT_EQ(gs.config, (ChargeConfig{1}));
    EXPECT_NEAR(gs.grand_potential, -0.32, 1e-12);
}

TEST(ExactGroundState, BdlPairIsBistable)
{
    SimulationParameters p;
    p.mu_minus = -0.32;
    // adjacent columns (0.384 nm): V ~ 0.62 eV > |mu| forces single occupation
    const SiDBSystem sys{{{0, 0, 0}, {1, 0, 0}}, p};
    const auto gs = exact_ground_state(sys);
    // exactly one electron, two degenerate positions
    EXPECT_EQ(gs.config[0] + gs.config[1], 1);
    EXPECT_EQ(gs.degeneracy, 2U);
}

TEST(ExactGroundState, IsolatedWidePairIsDoublyOccupied)
{
    SimulationParameters p;
    p.mu_minus = -0.32;
    // at 0.768 nm, V ~ 0.287 eV < |mu|: an ISOLATED pair takes two electrons;
    // in-wire pairs stay singly occupied only thanks to neighbor repulsion
    const SiDBSystem sys{{{0, 0, 0}, {0, 1, 0}}, p};
    const auto gs = exact_ground_state(sys);
    EXPECT_EQ(gs.config[0] + gs.config[1], 2);
}

/// Property: the branch-and-bound agrees with 2^n brute force on random
/// systems.
TEST(ExactGroundState, AgreesWithBruteForce)
{
    std::mt19937 rng{31337};
    SimulationParameters p;
    p.mu_minus = -0.32;
    for (int iter = 0; iter < 30; ++iter)
    {
        const auto sites = random_sites(4 + rng() % 7, rng);
        const SiDBSystem sys{sites, p};
        const auto expected = bestagon::testkit::brute_force_ground_state(sys);
        const auto actual = exact_ground_state(sys);
        ASSERT_TRUE(std::isfinite(expected.grand_potential));
        EXPECT_NEAR(actual.grand_potential, expected.grand_potential, 1e-9) << "iter " << iter;
        EXPECT_TRUE(sys.physically_valid(actual.config));
    }
}

TEST(ExactGroundState, GroundStateIsAlwaysPhysicallyValid)
{
    std::mt19937 rng{777};
    SimulationParameters p;
    p.mu_minus = -0.28;
    for (int iter = 0; iter < 20; ++iter)
    {
        const auto sites = random_sites(6 + rng() % 6, rng);
        const SiDBSystem sys{sites, p};
        const auto gs = exact_ground_state(sys);
        EXPECT_TRUE(sys.physically_valid(gs.config));
    }
}

}  // namespace
