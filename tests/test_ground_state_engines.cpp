/// \file test_ground_state_engines.cpp
/// \brief Tier-1 coverage of the ground-state engines: the population-bounded
///        exact engine (against 2^n brute force, and on dense canvases past
///        brute force's reach), the pinned ground states and work counters of
///        the Fig. 5 tiles, and the simulation stack's entry point
///        find_ground_state. Structure mirrors test_charge_state.cpp:
///        edge cases first (n = 0, n = 1, forced populations, cancellation),
///        then differential properties on random canvases.

#include "core/run_control.hpp"
#include "layout/bestagon_library.hpp"
#include "phys/defect.hpp"
#include "phys/ground_state.hpp"
#include "phys/ground_state_exact.hpp"
#include "phys/operational.hpp"
#include "testing/golden.hpp"
#include "testing/oracles.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <optional>
#include <random>
#include <stdexcept>
#include <string>

namespace
{

using namespace bestagon::phys;
using bestagon::core::Deadline;
using bestagon::core::RunBudget;
using bestagon::core::StopSource;
namespace layout = bestagon::layout;

/// A RunBudget whose token already requested a stop.
RunBudget tripped_budget()
{
    static StopSource source;  // outlives the budgets handed out
    source.request_stop();
    return RunBudget{source.token(), {}};
}

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

/// Dense random canvas in a box scaling with sqrt(n) — past ~36 sites
/// energy-only pruning stops converging in reasonable time while the
/// population window still collapses the search.
std::vector<SiDBSite> dense_canvas(std::size_t n, std::uint64_t salt)
{
    std::mt19937_64 rng{0xca11'ab1eULL + salt};
    const int cols = static_cast<int>(8 * std::sqrt(static_cast<double>(n)));
    const int rows = static_cast<int>(4 * std::sqrt(static_cast<double>(n)));
    std::vector<SiDBSite> sites;
    while (sites.size() < n)
    {
        const SiDBSite s{static_cast<int>(rng() % static_cast<unsigned>(cols)),
                         static_cast<int>(rng() % static_cast<unsigned>(rows)),
                         static_cast<int>(rng() % 2)};
        if (std::find(sites.begin(), sites.end(), s) == sites.end())
        {
            sites.push_back(s);
        }
    }
    return sites;
}

/// The production 2-input tile of \p type (NW + NE in, SE out) — the tile
/// check_operational validates in the Fig. 5 sign-off.
const GateDesign& library_tile(bestagon::logic::GateType type)
{
    const auto* gate = layout::BestagonLibrary::instance().lookup(
        type, layout::Port::nw, layout::Port::ne, layout::Port::se, std::nullopt);
    if (gate == nullptr)
    {
        throw std::logic_error{"the library offers no NW+NE -> SE tile of this type"};
    }
    return gate->design;
}

std::string config_string(const ChargeConfig& config)
{
    std::string s;
    for (const auto c : config)
    {
        s.push_back(c != 0 ? '1' : '0');
    }
    return s;
}

/// One pinned ground-state search of a library tile pattern: the work
/// counter together with the result it produced.
struct PinnedSearch
{
    std::uint64_t pattern;
    std::uint64_t nodes;
    const char* config;
    double grand_potential;
    double electrostatic;
};

/// Runs \p search on every input pattern of \p design and compares nodes,
/// configuration and energies (bitwise) with \p expected.
template <typename Search>
void expect_pinned_searches(const GateDesign& design, Search search,
                            const std::vector<PinnedSearch>& expected)
{
    const GateInstanceCache cache{design, SimulationParameters{}};
    ASSERT_EQ(std::uint64_t{1} << design.input_pairs.size(), expected.size());
    for (const auto& pin : expected)
    {
        const auto gs = search(cache.instantiate(pin.pattern));
        const std::string where = design.name + " pattern " + std::to_string(pin.pattern);
        EXPECT_TRUE(gs.complete) << where;
        EXPECT_EQ(gs.nodes, pin.nodes) << where;
        EXPECT_EQ(config_string(gs.config), pin.config) << where;
        EXPECT_EQ(gs.grand_potential, pin.grand_potential) << where;
        EXPECT_EQ(gs.electrostatic, pin.electrostatic) << where;
    }
}

// --- work counters on the production tiles ------------------------------------

// The node counts, configurations and energies below were recorded on the
// search before its inner loops were optimized (row-pointer commits and the
// charged-site viability stack). Any change to the search tree or to a
// floating-point operation on its path moves at least one of them.

TEST(WorkCounters, ExactEngineOnTheOrTile)
{
    expect_pinned_searches(
        library_tile(bestagon::logic::GateType::or2),
        [](const SiDBSystem& system) { return exact_ground_state(system); },
        {{0, 33710, "1010101010101010101111", -3.2340652338871649, 0.92593476611283509},
         {1, 36716, "0110101010101001011111", -3.2068553519813756, 0.95314464801862453},
         {2, 34649, "1010100110101001011111", -3.204288196130467, 0.95571180386953325},
         {3, 36684, "0110100110101001011111", -3.1770148096643394, 0.98298519033566067}});
}

TEST(WorkCounters, ExactEngineOnTheNorTile)
{
    expect_pinned_searches(
        library_tile(bestagon::logic::GateType::nor2),
        [](const SiDBSystem& system) { return exact_ground_state(system); },
        {{0, 354424, "1010101010101000011110101111", -3.6055584727030205, 1.5144415272969796},
         {1, 365736, "0110101010101000100110101111", -3.5777268270555949, 1.2222731729444047},
         {2, 361923, "1010100110101000100110101111", -3.5764362870538093, 1.2235637129461905},
         {3, 370295, "0110100110101000100110101111", -3.5488599108811005, 1.2511400891188991}});
}

/// The sign-off search work: the 27 Fig. 5 designs (the library plus the
/// crossing) checked at the Fig. 5 point with the default engine on one
/// thread, as bench/flow's `signoff` workload runs them, and the ground-state
/// search nodes of every pattern summed. The same searches pin every pattern's
/// ground state (config, grand potential to 17 digits, degeneracy, nodes) in
/// a golden. Every design's `simulation_validated` flag must equal its
/// check's verdict (the crossing's is false).
TEST(WorkCounters, SignoffTiles)
{
    const auto& library = bestagon::layout::BestagonLibrary::instance();
    std::vector<const bestagon::layout::GateImplementation*> designs;
    for (const auto& impl : library.all())
    {
        designs.push_back(&impl);
    }
    designs.push_back(&library.crossing());
    ASSERT_EQ(designs.size(), 27U);
    ASSERT_FALSE(library.crossing().simulation_validated);

    SimulationParameters params;
    params.num_threads = 1;
    std::uint64_t nodes = 0;
    std::string golden;
    for (std::size_t d = 0; d < designs.size(); ++d)
    {
        const auto& design = designs[d]->design;
        const auto result = check_operational(design, params);
        // the library's flag is this check's verdict
        EXPECT_EQ(designs[d]->simulation_validated, result.operational) << d << ' ' << design.name;
        for (const auto& pattern : result.details)
        {
            const auto& gs = pattern.ground_state;
            EXPECT_TRUE(pattern.evaluated) << design.name;
            nodes += gs.nodes;
            std::array<char, 160> line{};
            std::snprintf(line.data(), line.size(), "%02zu %s %llu %s %.17g %llu %llu\n", d,
                          design.name.c_str(), static_cast<unsigned long long>(pattern.pattern),
                          config_string(gs.config).c_str(), gs.grand_potential,
                          static_cast<unsigned long long>(gs.degeneracy),
                          static_cast<unsigned long long>(gs.nodes));
            golden += line.data();
        }
    }
    EXPECT_EQ(nodes, 18610084U);
    const auto verdict = bestagon::testkit::compare_golden(
        golden, std::string{BESTAGON_GOLDEN_DATA_DIR} + "/fig5_ground_states.txt.golden");
    EXPECT_TRUE(verdict.ok) << verdict.detail;
}

/// The OR tile's check with one charged defect (-1 e) 6.4 nm from its nearest
/// dot, left of the input wires: every search starts from the defect background W_i, so the
/// nodes, ground states (grand potential to 17 digits) and degeneracy below
/// differ from the pristine pins above. The defect's field costs pattern 0
/// its output, so the tile reads 3/4 correct here.
TEST(WorkCounters, ExactEngineOnTheOrTileBesideAChargedDefect)
{
    DefectSurface surface;
    SurfaceDefect defect;
    defect.site = {8, 10, 0};
    surface.add(defect);
    SimulationParameters params;
    params.num_threads = 1;
    const auto result =
        check_operational(library_tile(bestagon::logic::GateType::or2), params, surface);
    ASSERT_FALSE(result.blocked);
    EXPECT_FALSE(result.operational);
    EXPECT_EQ(result.patterns_correct, 3U);

    std::string searches;
    for (const auto& pattern : result.details)
    {
        const auto& gs = pattern.ground_state;
        EXPECT_TRUE(gs.complete);
        std::array<char, 128> line{};
        std::snprintf(line.data(), line.size(), "%llu %llu %s %.17g %llu\n",
                      static_cast<unsigned long long>(pattern.pattern),
                      static_cast<unsigned long long>(gs.nodes), config_string(gs.config).c_str(),
                      gs.grand_potential, static_cast<unsigned long long>(gs.degeneracy));
        searches += line.data();
    }
    EXPECT_EQ(searches, "0 31547 1010101010101001011111 -3.1886053656636899 1\n"
                        "1 33827 0110101010101001011111 -3.1584930867909535 1\n"
                        "2 32402 1010100110101001011111 -3.1587534414438916 1\n"
                        "3 34186 0110100110101001011111 -3.1285376315720219 1\n");
}

TEST(WorkCounters, LimitedBudgetCountsTheSameNodes)
{
    // the counter runs on every search, so polling a (never-firing) budget
    // neither adds nor removes nodes
    const SiDBSystem system{dense_canvas(24, 3), SimulationParameters{}};
    StopSource source;
    const RunBudget budget{source.token(), Deadline::in_ms(600'000)};
    const auto unlimited = exact_ground_state(system);
    const auto limited = exact_ground_state(system, budget);
    EXPECT_GT(unlimited.nodes, 4096U);
    EXPECT_EQ(unlimited.nodes, limited.nodes);
    EXPECT_EQ(unlimited.config, limited.config);
}

// --- exact engine -----------------------------------------------------------

TEST(ExactEngine, EmptySystem)
{
    const SiDBSystem sys{{}, SimulationParameters{}};
    const auto gs = exact_ground_state(sys);
    EXPECT_TRUE(gs.complete);
    EXPECT_FALSE(gs.cancelled);
    EXPECT_TRUE(gs.config.empty());
    EXPECT_EQ(gs.grand_potential, 0.0);
    EXPECT_EQ(gs.degeneracy, 1U);
}

TEST(ExactEngine, SingleSite)
{
    SimulationParameters p;
    p.mu_minus = -0.32;
    const SiDBSystem sys{{{0, 0, 0}}, p};
    const auto gs = exact_ground_state(sys);
    EXPECT_TRUE(gs.complete);
    EXPECT_EQ(gs.config, (ChargeConfig{1}));
    EXPECT_NEAR(gs.grand_potential, -0.32, 1e-12);
    EXPECT_EQ(gs.degeneracy, 1U);
}

/// The exactness contract: the same minimum and degeneracy count as 2^n
/// brute force, at both of the paper's operating points. A non-degenerate
/// ground state is the same configuration with a bit-identical energy.
TEST(ExactEngine, MatchesBruteForceOnRandomCanvases)
{
    std::mt19937 rng{424242};
    for (const double mu : {-0.32, -0.28})
    {
        SimulationParameters p;
        p.mu_minus = mu;
        for (int iter = 0; iter < 15; ++iter)
        {
            const auto sites = random_sites(4 + rng() % 9, rng);
            const SiDBSystem sys{sites, p};
            const auto reference = bestagon::testkit::brute_force_ground_state(sys);
            const auto exact = exact_ground_state(sys);
            ASSERT_TRUE(exact.complete);
            EXPECT_TRUE(sys.physically_valid(exact.config)) << "mu " << mu << " iter " << iter;
            EXPECT_NEAR(exact.grand_potential, reference.grand_potential, p.energy_tolerance)
                << "mu " << mu << " iter " << iter;
            EXPECT_EQ(exact.degeneracy, reference.degeneracy) << "mu " << mu << " iter " << iter;
            if (reference.degeneracy == 1)
            {
                EXPECT_EQ(exact.config, reference.config) << "mu " << mu << " iter " << iter;
                EXPECT_EQ(exact.grand_potential, reference.grand_potential)
                    << "mu " << mu << " iter " << iter;
            }
        }
    }
}

/// Window soundness: every population-stable configuration respects the
/// forced site statuses and the population bounds (checked by brute-force
/// enumeration on small canvases).
TEST(ExactEngine, PopulationWindowIsSoundOnSmallCanvases)
{
    std::mt19937 rng{55555};
    SimulationParameters p;
    p.mu_minus = -0.32;
    for (int iter = 0; iter < 20; ++iter)
    {
        const auto sites = random_sites(3 + rng() % 8, rng);
        const SiDBSystem sys{sites, p};
        const auto window = compute_population_window(sys);
        const std::size_t n = sys.size();
        ASSERT_EQ(window.status.size(), n);
        ASSERT_LE(window.min_charges, window.max_charges);
        for (std::uint64_t mask = 0; mask < (1ULL << n); ++mask)
        {
            ChargeConfig cfg(n, 0);
            std::size_t charges = 0;
            for (std::size_t i = 0; i < n; ++i)
            {
                cfg[i] = ((mask >> i) & 1ULL) != 0 ? 1 : 0;
                charges += cfg[i];
            }
            if (!sys.population_stable(cfg))
            {
                continue;
            }
            EXPECT_GE(charges, window.min_charges) << "iter " << iter << " mask " << mask;
            EXPECT_LE(charges, window.max_charges) << "iter " << iter << " mask " << mask;
            for (std::size_t i = 0; i < n; ++i)
            {
                if (window.status[i] == site_forced_negative)
                {
                    EXPECT_EQ(cfg[i], 1) << "iter " << iter << " mask " << mask << " site " << i;
                }
                else if (window.status[i] == site_forced_neutral)
                {
                    EXPECT_EQ(cfg[i], 0) << "iter " << iter << " mask " << mask << " site " << i;
                }
            }
        }
    }
}

/// Isolated far-apart sites are all forced negative: the window collapses to
/// a single population and the search space to a single configuration, so a
/// 45-site canvas (far past brute force's reach) is instant.
TEST(ExactEngine, AllSitesForcedNegative)
{
    std::vector<SiDBSite> sites;
    for (int k = 0; k < 45; ++k)
    {
        sites.push_back({40 * k, 0, 0});  // ~15 nm apart: negligible coupling
    }
    const SiDBSystem sys{sites, SimulationParameters{}};
    const auto window = compute_population_window(sys);
    EXPECT_EQ(window.min_charges, 45U);
    EXPECT_EQ(window.max_charges, 45U);
    for (const auto status : window.status)
    {
        EXPECT_EQ(status, site_forced_negative);
    }
    const auto gs = exact_ground_state(sys);
    EXPECT_TRUE(gs.complete);
    EXPECT_EQ(gs.config, ChargeConfig(45, 1));
    EXPECT_EQ(gs.degeneracy, 1U);
}

TEST(ExactEngine, CancelledMidSearch)
{
    const SiDBSystem sys{dense_canvas(40, 4), SimulationParameters{}};
    const auto gs = exact_ground_state(sys, tripped_budget());
    EXPECT_FALSE(gs.complete);
    EXPECT_TRUE(gs.cancelled);
    // the quenched seed keeps the partial result physically valid
    ASSERT_EQ(gs.config.size(), sys.size());
    EXPECT_TRUE(sys.physically_valid(gs.config));
}

// --- entry point ------------------------------------------------------------

/// find_ground_state, the entry point of the whole simulation stack, must
/// return exactly what the exact engine does.
TEST(EngineSelection, FindGroundStateMatchesDirectEngineCalls)
{
    std::mt19937 rng{7777};
    SimulationParameters p;
    p.mu_minus = -0.32;
    const SiDBSystem sys{random_sites(8, rng), p};

    const auto exact = find_ground_state(sys);
    const auto exact_direct = exact_ground_state(sys);
    EXPECT_EQ(exact.config, exact_direct.config);
    EXPECT_EQ(exact.grand_potential, exact_direct.grand_potential);
    EXPECT_EQ(exact.degeneracy, exact_direct.degeneracy);
    EXPECT_EQ(exact.nodes, exact_direct.nodes);
    EXPECT_TRUE(exact.complete);
}

}  // namespace
