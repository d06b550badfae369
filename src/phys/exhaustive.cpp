#include "phys/exhaustive.hpp"

#include "phys/charge_state.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>

namespace bestagon::phys
{

namespace
{

struct SearchState
{
    const SiDBSystem* system;
    double mu;
    std::size_t n;
    ChargeState kernel;               // shared incremental charge-state kernel:
                                      // prefix assignment + local-potential cache
    double partial_f;                 // F of assigned prefix
    double best_f;
    ChargeConfig best_config;
    std::uint64_t degeneracy;
    double tolerance;
    const core::RunBudget* run;
    std::uint64_t nodes;
    bool stopped;

    explicit SearchState(const SiDBSystem& sys) : kernel{sys} {}
};

void recurse(SearchState& s, std::size_t index)
{
    // sparse budget poll: unwinding early keeps the best-so-far (always a
    // physically valid configuration) intact
    if (s.stopped)
    {
        return;
    }
    if ((++s.nodes & 4095U) == 0 && s.run->limited() && s.run->stopped())
    {
        s.stopped = true;
        return;
    }
    if (index == s.n)
    {
        if (s.partial_f <= s.best_f + s.tolerance)
        {
            // leaf validity over the kernel's cached potentials: O(n^2)
            // instead of the naive evaluator's O(n^3)
            if (s.kernel.physically_valid())
            {
                if (s.partial_f < s.best_f - s.tolerance)
                {
                    s.best_f = s.partial_f;
                    s.best_config = s.kernel.config();
                    s.degeneracy = 1;
                }
                else
                {
                    ++s.degeneracy;
                }
            }
        }
        return;
    }

    // optimistic completion bound over unassigned sites (monotone: cached
    // v_i only counts assigned negative charges, and v_i can only grow)
    double bound = s.partial_f;
    for (std::size_t i = index; i < s.n; ++i)
    {
        bound += std::min(0.0, s.mu + s.kernel.local_potential(i));
    }
    if (bound > s.best_f + s.tolerance)
    {
        return;
    }

    // branch: negative first (mu < 0 favors charging)
    {
        // prune: an already-negative site that violates mu + v <= 0 against the
        // *partial* potential can never recover (v only grows)
        const double delta = s.mu + s.kernel.local_potential(index);
        s.kernel.commit_flip(index);  // neutral -> negative, O(n) row update
        s.partial_f += delta;
        // check partial population stability of assigned negative sites
        bool viable = true;
        for (std::size_t j = 0; j <= index; ++j)
        {
            if (s.kernel.charge(j) != 0 && s.mu + s.kernel.local_potential(j) > 1e-12)
            {
                viable = false;
                break;
            }
        }
        if (viable)
        {
            recurse(s, index + 1);
        }
        s.kernel.commit_flip(index);  // unwind: replays the exact subtractions
        s.partial_f -= delta;
    }

    // branch: neutral
    recurse(s, index + 1);
}

}  // namespace

GroundStateResult exhaustive_ground_state(const SiDBSystem& system, double degeneracy_tolerance,
                                          const core::RunBudget& run)
{
    const std::size_t n = system.size();
    SearchState s{system};
    s.system = &system;
    s.mu = system.parameters().mu_minus;
    s.n = n;
    s.partial_f = 0.0;
    s.best_f = std::numeric_limits<double>::infinity();
    s.degeneracy = 0;
    s.tolerance = degeneracy_tolerance;
    s.run = &run;
    s.nodes = 0;
    s.stopped = false;

    // seed with a quenched all-negative start for a good initial bound
    ChargeConfig seed(n, 1);
    system.quench(seed);
    if (system.physically_valid(seed))
    {
        // bound only; the recursion re-encounters this config and counts it
        s.best_f = system.grand_potential(seed);
        s.best_config = seed;
    }

    recurse(s, 0);

    GroundStateResult result;
    result.config = s.best_config;
    // fresh evaluation, not the accumulated partial sum: branch/unwind pairs
    // can leave ulp-level drift in the running best_f, and the kernel
    // doctrine is that reported energies come from a fresh evaluation
    result.grand_potential =
        s.best_config.empty() ? s.best_f : system.grand_potential(s.best_config);
    result.electrostatic = s.best_config.empty() ? 0.0 : system.electrostatic_energy(s.best_config);
    result.degeneracy = std::max<std::uint64_t>(1, s.degeneracy);
    result.complete = !s.stopped;
    result.cancelled = s.stopped;
    result.nodes = s.nodes;
    return result;
}

GroundStateResult exhaustive_ground_state(const SiDBSystem& system, const core::RunBudget& run)
{
    return exhaustive_ground_state(system, system.parameters().energy_tolerance, run);
}

}  // namespace bestagon::phys
