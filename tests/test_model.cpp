#include "phys/model.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

namespace
{

using namespace bestagon::phys;

TEST(Model, ScreenedCoulombValues)
{
    SimulationParameters p;  // eps_r = 5.6, lambda = 5 nm
    // V(1 nm) = 1.44 / 5.6 * exp(-0.2) eV
    EXPECT_NEAR(screened_coulomb(1.0, p), 1.43996448 / 5.6 * std::exp(-0.2), 1e-9);
    // screening strictly decreases the interaction
    EXPECT_LT(screened_coulomb(2.0, p), screened_coulomb(1.0, p) / 2.0);
}

TEST(Model, PotentialMatrixIsSymmetric)
{
    SimulationParameters p;
    const SiDBSystem sys{{{0, 0, 0}, {3, 1, 0}, {5, 4, 1}}, p};
    for (std::size_t i = 0; i < sys.size(); ++i)
    {
        EXPECT_DOUBLE_EQ(sys.potential(i, i), 0.0);
        for (std::size_t j = 0; j < sys.size(); ++j)
        {
            EXPECT_DOUBLE_EQ(sys.potential(i, j), sys.potential(j, i));
        }
    }
}

TEST(Model, IsolatedDbPrefersNegative)
{
    SimulationParameters p;
    p.mu_minus = -0.32;
    const SiDBSystem sys{{{0, 0, 0}}, p};
    // F(charged) = mu < 0 = F(neutral): the charged state wins and both
    // single-site configurations are population stable accordingly
    EXPECT_LT(sys.grand_potential({1}), sys.grand_potential({0}));
    EXPECT_TRUE(sys.population_stable({1}));
    EXPECT_FALSE(sys.population_stable({0}));
}

TEST(Model, ClosePairSharesOneElectron)
{
    SimulationParameters p;
    p.mu_minus = -0.32;
    // 1 column apart: V ~ 0.62 eV >> |mu|: double occupation is unstable
    const SiDBSystem sys{{{0, 0, 0}, {1, 0, 0}}, p};
    EXPECT_FALSE(sys.population_stable({1, 1}));
    EXPECT_TRUE(sys.population_stable({1, 0}));
    EXPECT_TRUE(sys.population_stable({0, 1}));
    EXPECT_LT(sys.grand_potential({1, 0}), sys.grand_potential({1, 1}));
}

TEST(Model, DistantPairHoldsTwoElectrons)
{
    SimulationParameters p;
    p.mu_minus = -0.32;
    // 40 columns apart (~15 nm): interaction is negligible
    const SiDBSystem sys{{{0, 0, 0}, {40, 0, 0}}, p};
    EXPECT_TRUE(sys.population_stable({1, 1}));
    EXPECT_LT(sys.grand_potential({1, 1}), sys.grand_potential({1, 0}));
}

TEST(Model, EnergyAndGrandPotentialRelation)
{
    SimulationParameters p;
    const SiDBSystem sys{{{0, 0, 0}, {10, 0, 0}, {20, 0, 0}}, p};
    const ChargeConfig cfg{1, 0, 1};
    EXPECT_NEAR(sys.grand_potential(cfg), sys.electrostatic_energy(cfg) + 2 * p.mu_minus, 1e-12);
}

TEST(Model, LocalPotentialSumsPairwiseTerms)
{
    SimulationParameters p;
    const SiDBSystem sys{{{0, 0, 0}, {5, 0, 0}, {10, 0, 0}}, p};
    const ChargeConfig cfg{0, 1, 1};
    EXPECT_NEAR(sys.local_potential(cfg, 0), sys.potential(0, 1) + sys.potential(0, 2), 1e-12);
    EXPECT_NEAR(sys.local_potential(cfg, 1), sys.potential(1, 2), 1e-12);
}

TEST(Model, ConfigurationStabilityDetectsBeneficialHop)
{
    SimulationParameters p;
    p.mu_minus = -0.32;
    // three sites in a line; both electrons crowded on the left pair
    const SiDBSystem sys{{{0, 0, 0}, {2, 0, 0}, {20, 0, 0}}, p};
    EXPECT_FALSE(sys.configuration_stable({1, 1, 0}));  // hop to the far site helps
    EXPECT_TRUE(sys.configuration_stable({1, 0, 1}));
}

TEST(Model, QuenchReachesValidConfiguration)
{
    SimulationParameters p;
    p.mu_minus = -0.32;
    const SiDBSystem sys{{{0, 0, 0}, {2, 0, 0}, {10, 0, 0}, {12, 0, 0}}, p};
    ChargeConfig cfg{1, 1, 1, 1};
    sys.quench(cfg);
    EXPECT_TRUE(sys.physically_valid(cfg));
    ChargeConfig cfg2{0, 0, 0, 0};
    sys.quench(cfg2);
    EXPECT_TRUE(sys.physically_valid(cfg2));
}

/// Two dots on one position would make V_ij = +inf, and every energy and
/// stability verdict on the system meaningless: the constructor rejects the
/// pair and names both indices, wherever in the list they stand.
TEST(Model, CoincidentSitesAreRejected)
{
    const SimulationParameters p;
    try
    {
        const SiDBSystem sys{{{0, 0, 0}, {0, 0, 0}, {10, 0, 0}}, p};
        ADD_FAILURE() << "coincident sites were accepted";
    }
    catch (const std::invalid_argument& e)
    {
        EXPECT_NE(std::string{e.what()}.find("sites 0 and 1"), std::string::npos) << e.what();
    }
    try
    {
        const SiDBSystem sys{{{4, 2, 1}, {10, 0, 0}, {7, 1, 0}, {10, 0, 0}}, p};
        ADD_FAILURE() << "coincident sites were accepted";
    }
    catch (const std::invalid_argument& e)
    {
        EXPECT_NE(std::string{e.what()}.find("sites 1 and 3"), std::string::npos) << e.what();
    }
    EXPECT_NO_THROW(SiDBSystem({{0, 0, 0}, {0, 0, 1}, {10, 0, 0}}, p));
}

}  // namespace
