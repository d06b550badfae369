#include "phys/simanneal.hpp"

#include "core/thread_pool.hpp"
#include "phys/charge_state.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <random>
#include <stdexcept>
#include <string>
#include <vector>

namespace bestagon::phys
{

namespace
{

/// One independent annealing run with its own RNG stream. Returns the
/// quenched (hence physically valid) configuration and its grand potential.
std::pair<ChargeConfig, double> anneal_instance(const SiDBSystem& system,
                                                const SimAnnealParameters& params,
                                                std::uint64_t seed, const core::RunBudget& run)
{
    const std::size_t n = system.size();
    std::mt19937_64 rng{seed};
    std::uniform_real_distribution<double> uni{0.0, 1.0};

    // random initial population
    ChargeConfig config(n, 0);
    for (auto& c : config)
    {
        c = (rng() & 1) != 0 ? 1 : 0;
    }
    // Kernel with an O(n^2) one-time rebuild; every proposed move is then an
    // O(1) cached delta and every accepted move an O(n) commit (the naive
    // path paid O(n) local-potential sums per *proposal*).
    ChargeState state{system, std::move(config)};
    double temperature = params.initial_temperature;

    for (unsigned step = 0; step < params.steps_per_instance; ++step)
    {
        // poll the budget sparsely; bailing out early only shortens the
        // schedule — the quench below still guarantees a valid configuration
        if (run.limited() && (step & 63U) == 0 && run.stopped())
        {
            break;
        }
        // move: flip a random site (75%) or hop a random electron (25%). An
        // invalid hop — neutral source, or an occupied/equal target — is a
        // REJECTED proposal: the schedule advances and nothing moves. (It
        // used to fall through to delta_flip(i), which silently re-weighted
        // the move mix toward flips whose index happened to be drawn in a
        // hop attempt, a state-dependent bias.)
        const bool do_hop = (rng() & 3U) == 0;  // 25% hops
        const std::size_t i = rng() % n;
        std::size_t hop_to = n;  // n = the proposal is a flip
        bool rejected = false;
        double delta = 0.0;
        if (do_hop)
        {
            if (state.charge(i) == 0)
            {
                rejected = true;  // no electron on the source site
            }
            else
            {
                const std::size_t j = rng() % n;
                if (state.charge(j) == 0 && j != i)
                {
                    hop_to = j;
                    delta = state.delta_hop(i, j);
                }
                else
                {
                    rejected = true;  // occupied or equal target
                }
            }
        }
        else
        {
            delta = state.delta_flip(i);
        }

        if (!rejected && (delta <= 0.0 || uni(rng) < std::exp(-delta / temperature)))
        {
            if (hop_to != n)
            {
                state.commit_hop(i, hop_to);
            }
            else
            {
                state.commit_flip(i);
            }
        }
        temperature *= params.cooling_rate;
    }

    // exact-resync before the descent: the quench decisions run on freshly
    // summed potentials, exactly as the pre-kernel SiDBSystem::quench did
    state.rebuild();
    state.quench();  // guarantees physical validity
    ChargeConfig quenched = state.config();
    const double f_final = system.grand_potential(quenched);
    return {std::move(quenched), f_final};
}

}  // namespace

GroundStateResult simulated_annealing(const SiDBSystem& system, const SimAnnealParameters& params,
                                      const core::RunBudget& run)
{
    if (!(params.initial_temperature > 0.0) || !std::isfinite(params.initial_temperature))
    {
        throw std::invalid_argument{"SimAnnealParameters: non-positive initial_temperature " +
                                    std::to_string(params.initial_temperature)};
    }
    const std::size_t n = system.size();
    GroundStateResult best;
    best.grand_potential = std::numeric_limits<double>::infinity();
    best.complete = false;
    best.degeneracy = 1;

    if (n == 0)
    {
        best.grand_potential = 0.0;
        return best;
    }

    // Every instance is seeded from (anneal_seed, instance) and runs on its
    // own stream, so the fan-out is embarrassingly parallel and the outcome
    // does not depend on the thread count. Slots are pre-filled with +inf so
    // instances skipped after a stop can never win the reduction below.
    std::vector<std::pair<ChargeConfig, double>> instances(
        params.num_instances, {ChargeConfig{}, std::numeric_limits<double>::infinity()});
    const SimulationParameters& physics = system.parameters();
    core::parallel_for(physics.num_threads, params.num_instances, run, [&](std::size_t i) {
        instances[i] =
            anneal_instance(system, params, core::derive_seed(physics.anneal_seed, i), run);
    });
    best.cancelled = run.stopped();

    // serial reduction in instance order (strict '<' keeps the lowest index
    // among ties, matching the legacy serial loop)
    std::size_t best_index = instances.size();
    for (std::size_t i = 0; i < instances.size(); ++i)
    {
        if (instances[i].second < best.grand_potential)
        {
            best.grand_potential = instances[i].second;
            best_index = i;
        }
    }

    if (best_index < instances.size())
    {
        // Degeneracy: the number of *distinct* configurations among the
        // instances that tie the best energy within energy_tolerance —
        // duplicates of one minimum count once, so this is a genuine lower
        // bound on the true degeneracy (it used to be hardcoded to 1).
        const double tol = physics.energy_tolerance;
        std::vector<const ChargeConfig*> tied;
        // bestagon-lint: no-poll-ok(post-run degeneracy count over the already-collected instance results; all engine work is done)
        for (const auto& [config, f] : instances)
        {
            if (f <= best.grand_potential + tol)
            {
                const bool seen = std::any_of(tied.begin(), tied.end(),
                                              [&](const ChargeConfig* c) { return *c == config; });
                if (!seen)
                {
                    tied.push_back(&config);
                }
            }
        }
        best.degeneracy = static_cast<std::uint64_t>(tied.size());
        best.config = std::move(instances[best_index].first);
    }

    // num_instances == 0 (or no instance recorded) leaves best.config empty;
    // guard the energy evaluation the same way exact_ground_state does.
    best.electrostatic = best.config.empty() ? 0.0 : system.electrostatic_energy(best.config);
    return best;
}

}  // namespace bestagon::phys
