/// \file test_charge_state.cpp
/// \brief Unit tests of the incremental charge-state kernel and the
///        gate-instance cache.

#include "phys/charge_state.hpp"
#include "phys/defect.hpp"
#include "phys/operational.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <random>
#include <stdexcept>
#include <vector>

namespace
{

using namespace bestagon::phys;
using bestagon::logic::TruthTable;

std::vector<SiDBSite> triangle_canvas()
{
    return {{0, 0, 0}, {4, 1, 0}, {8, 2, 1}};
}

TEST(ChargeState, FreshCacheIsBitIdenticalToNaiveLocalPotential)
{
    const SimulationParameters params{};
    const SiDBSystem system{triangle_canvas(), params};
    const ChargeConfig config{1, 0, 1};
    const ChargeState state{system, config};
    for (std::size_t i = 0; i < system.size(); ++i)
    {
        EXPECT_EQ(state.local_potential(i), system.local_potential(config, i)) << "site " << i;
    }
    EXPECT_EQ(state.num_charges(), 2U);
}

TEST(ChargeState, DeltaFlipMatchesFreshEvaluation)
{
    const SimulationParameters params{};
    const SiDBSystem system{triangle_canvas(), params};
    const ChargeConfig config{1, 0, 1};
    const ChargeState state{system, config};
    for (std::size_t i = 0; i < system.size(); ++i)
    {
        const double v = system.local_potential(config, i);
        const double expected = config[i] == 0 ? (params.mu_minus + v) : -(params.mu_minus + v);
        EXPECT_EQ(state.delta_flip(i), expected) << "site " << i;
    }
}

TEST(ChargeState, DeltaHopMatchesFreshEvaluation)
{
    const SimulationParameters params{};
    const SiDBSystem system{triangle_canvas(), params};
    const ChargeConfig config{1, 0, 1};
    const ChargeState state{system, config};
    const double expected =
        system.local_potential(config, 1) - system.local_potential(config, 0) - system.potential(0, 1);
    EXPECT_EQ(state.delta_hop(0, 1), expected);
}

TEST(ChargeState, CommitFlipAppliesDeltaAndUpdatesCache)
{
    const SimulationParameters params{};
    const SiDBSystem system{triangle_canvas(), params};
    ChargeState state{system, ChargeConfig{1, 0, 1}};
    const double f_before = system.grand_potential(state.config());
    const double delta = state.delta_flip(1);
    state.commit_flip(1);
    EXPECT_EQ(state.charge(1), 1U);
    EXPECT_EQ(state.num_charges(), 3U);
    const double f_after = system.grand_potential(state.config());
    EXPECT_NEAR(f_after - f_before, delta, 1e-12);
    for (std::size_t i = 0; i < system.size(); ++i)
    {
        EXPECT_NEAR(state.local_potential(i), system.local_potential(state.config(), i), 1e-12);
    }
}

TEST(ChargeState, CommitHopMovesChargeAndUpdatesCache)
{
    const SimulationParameters params{};
    const SiDBSystem system{triangle_canvas(), params};
    ChargeState state{system, ChargeConfig{1, 0, 0}};
    const double delta = state.delta_hop(0, 2);
    const double f_before = system.grand_potential(state.config());
    state.commit_hop(0, 2);
    EXPECT_EQ(state.charge(0), 0U);
    EXPECT_EQ(state.charge(2), 1U);
    EXPECT_EQ(state.num_charges(), 1U);
    EXPECT_NEAR(system.grand_potential(state.config()) - f_before, delta, 1e-12);
    for (std::size_t i = 0; i < system.size(); ++i)
    {
        EXPECT_NEAR(state.local_potential(i), system.local_potential(state.config(), i), 1e-12);
    }
}

TEST(ChargeState, RebuildRestoresBitExactAgreement)
{
    const SimulationParameters params{};
    const SiDBSystem system{triangle_canvas(), params};
    ChargeState state{system};
    // a few commits introduce (at most ulp-level) incremental drift
    state.commit_flip(0);
    state.commit_flip(2);
    state.commit_hop(0, 1);
    state.commit_flip(0);
    state.rebuild();
    for (std::size_t i = 0; i < system.size(); ++i)
    {
        EXPECT_EQ(state.local_potential(i), system.local_potential(state.config(), i)) << i;
    }
}

TEST(ChargeState, CachedEnergiesMatchNaivePairwiseSums)
{
    const SimulationParameters params{};
    const SiDBSystem system{triangle_canvas(), params};
    const ChargeConfig config{1, 1, 1};
    const ChargeState state{system, config};
    EXPECT_NEAR(state.electrostatic_energy(), system.electrostatic_energy(config), 1e-12);
    EXPECT_NEAR(state.grand_potential(), system.grand_potential(config), 1e-12);
}

TEST(ChargeState, QuenchProducesPhysicallyValidConfiguration)
{
    const SimulationParameters params{};
    const SiDBSystem system{triangle_canvas(), params};
    ChargeState state{system, ChargeConfig{1, 1, 1}};
    state.quench();
    EXPECT_TRUE(state.physically_valid());
    EXPECT_TRUE(system.physically_valid(state.config()));
}

TEST(ChargeState, StabilityChecksAgreeWithSystemChecks)
{
    const SimulationParameters params{};
    const SiDBSystem system{triangle_canvas(), params};
    for (std::uint8_t bits = 0; bits < 8; ++bits)
    {
        const ChargeConfig config{static_cast<std::uint8_t>(bits & 1),
                                  static_cast<std::uint8_t>((bits >> 1) & 1),
                                  static_cast<std::uint8_t>((bits >> 2) & 1)};
        const ChargeState state{system, config};
        EXPECT_EQ(state.population_stable(), system.population_stable(config)) << int(bits);
        EXPECT_EQ(state.configuration_stable(), system.configuration_stable(config)) << int(bits);
    }
}

TEST(ChargeState, SizeMismatchThrowsInsteadOfCorruptingTheCache)
{
    const SimulationParameters params{};
    const SiDBSystem system{triangle_canvas(), params};
    // adopting constructor: a config of the wrong length must be rejected in
    // every build mode, not only under NDEBUG-off asserts
    EXPECT_THROW((ChargeState{system, ChargeConfig{1, 0}}), std::invalid_argument);
    EXPECT_THROW((ChargeState{system, ChargeConfig{1, 0, 1, 0}}), std::invalid_argument);

    ChargeState state{system, ChargeConfig{1, 0, 1}};
    EXPECT_THROW(state.assign(ChargeConfig{1}), std::invalid_argument);
    EXPECT_THROW(state.assign(ChargeConfig{}), std::invalid_argument);
    // the failed assign must leave the kernel untouched
    EXPECT_EQ(state.config(), (ChargeConfig{1, 0, 1}));
    EXPECT_EQ(state.num_charges(), 2U);
}

TEST(ChargeState, ToleranceKnobsLiveInSimulationParameters)
{
    const SimulationParameters defaults{};
    EXPECT_DOUBLE_EQ(defaults.stability_tolerance, 1e-9);
    EXPECT_DOUBLE_EQ(defaults.energy_tolerance, 1e-6);
}

/// The kernel's row updates before they became branch-free row-pointer
/// loops, kept as the bit-exact reference: one v_j +-= V_ij per flip in
/// ascending j with the flipped site skipped, and one fused
/// v_t += V_to,t - V_from,t pass per hop.
struct ReferenceRowUpdates
{
    const SiDBSystem* system;
    ChargeConfig config;
    std::vector<double> v;

    explicit ReferenceRowUpdates(const SiDBSystem& sys)
        : system{&sys}, config(sys.size(), 0), v(sys.size(), 0.0)
    {
        for (std::size_t i = 0; i < sys.size(); ++i)
        {
            v[i] = sys.external_potential(i);
        }
    }

    void flip(std::size_t i)
    {
        const bool charging = config[i] == 0;
        for (std::size_t j = 0; j < v.size(); ++j)
        {
            if (j != i)
            {
                if (charging)
                {
                    v[j] += system->potential(i, j);
                }
                else
                {
                    v[j] -= system->potential(i, j);
                }
            }
        }
        config[i] = charging ? 1 : 0;
    }

    void hop(std::size_t from, std::size_t to)
    {
        for (std::size_t t = 0; t < v.size(); ++t)
        {
            v[t] += system->potential(to, t) - system->potential(from, t);
        }
        config[from] = 0;
        config[to] = 1;
    }
};

/// Random system of \p n sites; with \p background, three charged defects
/// of random charge in the rows below the sites add an external potential
/// row on top.
SiDBSystem random_system(std::size_t n, bool background, std::mt19937_64& rng)
{
    std::vector<SiDBSite> sites;
    while (sites.size() < n)
    {
        const SiDBSite s{static_cast<int>(rng() % 24), static_cast<int>(rng() % 12),
                         static_cast<int>(rng() % 2)};
        if (std::find(sites.begin(), sites.end(), s) == sites.end())
        {
            sites.push_back(s);
        }
    }
    const SimulationParameters params{};
    if (!background)
    {
        return SiDBSystem{sites, params};
    }
    std::uniform_real_distribution<double> charge{-1.0, 1.0};
    DefectSurface defects;
    for (int d = 0; d < 3; ++d)
    {
        // rows 14.. lie below every site (m < 12), so no site is blocked
        SurfaceDefect defect;
        defect.site = {static_cast<int>(rng() % 24), 14 + static_cast<int>(rng() % 6),
                       static_cast<int>(rng() % 2)};
        defect.charge = charge(rng);
        defects.add(defect);
    }
    return SiDBSystem{sites, params, defects};
}

TEST(ChargeState, RowUpdatesAreBitExactToThePerElementLoops)
{
    std::mt19937_64 rng{0x5eed'c0de};
    for (const std::size_t n : {1U, 2U, 17U, 40U})
    {
        for (const bool background : {false, true})
        {
            const auto system = random_system(n, background, rng);
            ChargeState state{system};
            ReferenceRowUpdates ref{system};
            const auto expect_bit_exact = [&](int step) {
                ASSERT_EQ(state.config(), ref.config) << "n=" << n << " step " << step;
                for (std::size_t i = 0; i < n; ++i)
                {
                    ASSERT_EQ(std::bit_cast<std::uint64_t>(state.local_potential(i)),
                              std::bit_cast<std::uint64_t>(ref.v[i]))
                        << "n=" << n << " background=" << background << " step " << step
                        << " site " << i;
                }
            };
            expect_bit_exact(-1);
            for (int step = 0; step < 400; ++step)
            {
                // every fourth move hits a boundary row (i = 0 or i = n-1)
                const std::size_t i = step % 4 == 0 ? (step % 8 == 0 ? 0 : n - 1) : rng() % n;
                switch (rng() % 3)
                {
                    case 0:  // flip
                        state.commit_flip(i);
                        ref.flip(i);
                        break;
                    case 1:  // flip and flip back: the same row added, then subtracted
                        state.commit_flip(i);
                        ref.flip(i);
                        expect_bit_exact(step);
                        state.commit_flip(i);
                        ref.flip(i);
                        break;
                    default:  // hop from a charged site to a neutral one, if any
                    {
                        std::vector<std::size_t> charged;
                        std::vector<std::size_t> neutral;
                        for (std::size_t j = 0; j < n; ++j)
                        {
                            (state.charge(j) != 0 ? charged : neutral).push_back(j);
                        }
                        if (charged.empty() || neutral.empty())
                        {
                            state.commit_flip(i);
                            ref.flip(i);
                            break;
                        }
                        const auto from = charged[rng() % charged.size()];
                        const auto to = neutral[rng() % neutral.size()];
                        state.commit_hop(from, to);
                        ref.hop(from, to);
                        break;
                    }
                }
                expect_bit_exact(step);
            }
        }
    }
}

/// The two-driver OR-like design used across the operational tests.
GateDesign two_input_design()
{
    GateDesign d;
    d.name = "or2";
    for (int k = 0; k < 3; ++k)
    {
        const int m = 1 + 4 * k;
        d.sites.push_back({15, m, 0});
        d.sites.push_back({15, m + 1, 0});
        d.sites.push_back({45, m, 0});
        d.sites.push_back({45, m + 1, 0});
    }
    d.input_pairs.push_back({{15, 1, 0}, {15, 2, 0}});
    d.input_pairs.push_back({{45, 1, 0}, {45, 2, 0}});
    d.output_pairs.push_back({{15, 9, 0}, {15, 10, 0}});
    d.drivers.push_back({{15, -3, 0}, {15, -2, 0}});
    d.drivers.push_back({{45, -3, 0}, {45, -2, 0}});
    d.output_perturbers.push_back({15, 13, 1});
    d.functions.push_back(TruthTable::from_binary("1110"));
    return d;
}

TEST(GateInstanceCache, InstantiateIsBitIdenticalToNaiveConstruction)
{
    const auto design = two_input_design();
    const SimulationParameters params{};
    const GateInstanceCache cache{design, params};
    for (std::uint64_t pattern = 0; pattern < 4; ++pattern)
    {
        const auto cached = cache.instantiate(pattern);
        const SiDBSystem naive{design.instance_sites(pattern), params};
        ASSERT_EQ(cached.size(), naive.size()) << "pattern " << pattern;
        EXPECT_EQ(cached.sites(), naive.sites()) << "pattern " << pattern;
        for (std::size_t i = 0; i < naive.size(); ++i)
        {
            for (std::size_t j = 0; j < naive.size(); ++j)
            {
                ASSERT_EQ(cached.potential(i, j), naive.potential(i, j))
                    << "pattern " << pattern << " entry (" << i << ", " << j << ")";
            }
        }
    }
}

TEST(GateInstanceCache, CachedPatternSimulationMatchesNaivePath)
{
    const auto design = two_input_design();
    SimulationParameters params;
    params.num_threads = 1;
    const GateInstanceCache cache{design, params};
    for (std::uint64_t pattern = 0; pattern < 4; ++pattern)
    {
        const auto cached = simulate_gate_pattern(cache, pattern);
        const auto direct = simulate_gate_pattern(design, pattern, params);
        EXPECT_EQ(cached.ground_state.config, direct.ground_state.config) << pattern;
        EXPECT_EQ(cached.ground_state.grand_potential, direct.ground_state.grand_potential)
            << pattern;
        EXPECT_EQ(cached.correct, direct.correct) << pattern;
        EXPECT_EQ(cached.sites, direct.sites) << pattern;
    }
}

TEST(GateInstanceCache, ResolvesOutputPairIndicesOnce)
{
    const auto design = two_input_design();
    const GateInstanceCache cache{design, SimulationParameters{}};
    ASSERT_TRUE(cache.output_pair_error(0).empty()) << cache.output_pair_error(0);
    // site 6 is the output zero site, 7 the one site (third column-15 pair)
    ChargeConfig config(cache.num_sites(), 0);
    const auto sites = design.instance_sites(0);
    for (std::size_t i = 0; i < sites.size(); ++i)
    {
        if (sites[i] == design.output_pairs[0].one_site)
        {
            config[i] = 1;
        }
    }
    EXPECT_EQ(cache.read_output(0, config), PairState::one);
}

TEST(GateInstanceCache, RecordsUnresolvableOutputPair)
{
    auto design = two_input_design();
    design.output_pairs[0].one_site = {59, 23, 1};  // not among the instance sites
    const GateInstanceCache cache{design, SimulationParameters{}};
    EXPECT_FALSE(cache.output_pair_error(0).empty());
    const ChargeConfig config(cache.num_sites(), 0);
    EXPECT_EQ(cache.read_output(0, config), PairState::undefined);
}

TEST(ReadPair, ReturnsUndefinedWithRecordedErrorInsteadOfAsserting)
{
    GateDesign design;
    design.sites = {{0, 0, 0}, {4, 0, 0}};
    design.output_pairs.push_back({{9, 9, 0}, {4, 0, 0}});  // zero site missing
    design.output_pairs.push_back({{0, 0, 0}, {4, 0, 0}});
    const GateInstanceCache cache{design, SimulationParameters{}};
    const ChargeConfig config{1, 0};
    EXPECT_EQ(cache.read_output(0, config), PairState::undefined);
    EXPECT_NE(cache.output_pair_error(0).find("not among the instance sites"), std::string::npos)
        << cache.output_pair_error(0);

    EXPECT_TRUE(cache.output_pair_error(1).empty());
    EXPECT_EQ(cache.read_output(1, config), PairState::zero);
}

}  // namespace
