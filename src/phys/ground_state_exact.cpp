#include "phys/ground_state_exact.hpp"

#include "phys/charge_state.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

namespace bestagon::phys
{

PopulationWindow compute_population_window(const SiDBSystem& system)
{
    const std::size_t n = system.size();
    const double mu = system.parameters().mu_minus;
    const double tol = system.parameters().stability_tolerance;

    PopulationWindow w;
    w.status.assign(n, site_undecided);

    // Forced-site fixpoint: each pass brackets every undecided site's local
    // potential by the charges that are already certain and forces the sites
    // whose bracket leaves only one stable charge state. Each newly forced
    // site tightens the brackets of the others; monotone, so at most n
    // passes flip anything.
    bool changed = true;
    while (changed)
    {
        changed = false;
        for (std::size_t i = 0; i < n; ++i)
        {
            if (w.status[i] != site_undecided)
            {
                continue;
            }
            // both brackets start from the defect background W_i (0 on a
            // pristine surface): it shifts every reachable v_i uniformly
            double v_min = system.external_potential(i);  // forced-negative neighbours only
            double v_undecided = 0.0;
            for (std::size_t j = 0; j < n; ++j)
            {
                if (j == i)
                {
                    continue;
                }
                if (w.status[j] == site_forced_negative)
                {
                    v_min += system.potential(i, j);
                }
                else if (w.status[j] == site_undecided)
                {
                    v_undecided += system.potential(i, j);
                }
            }
            const double v_max = v_min + v_undecided;
            if (mu + v_max < -tol)
            {
                // below E_F even with every possible neighbour charged:
                // a neutral i would violate population stability everywhere
                w.status[i] = site_forced_negative;
                changed = true;
            }
            else if (mu + v_min > tol)
            {
                // above E_F even with only the certain neighbours charged
                w.status[i] = site_forced_neutral;
                changed = true;
            }
        }
    }

    std::vector<std::size_t> undecided;
    std::size_t base = 0;
    for (std::size_t i = 0; i < n; ++i)
    {
        if (w.status[i] == site_forced_negative)
        {
            ++base;
        }
        else if (w.status[i] == site_undecided)
        {
            undecided.push_back(i);
        }
    }
    const std::size_t u = undecided.size();
    // defensive default: every undecided population allowed
    w.min_charges = base;
    w.max_charges = base + u;
    if (u == 0)
    {
        return w;
    }

    // Per undecided site: its forced-negative contribution plus prefix sums
    // of its sorted interaction row over the other undecided sites, so the
    // weakest/strongest possible v_i at a given population is an O(1) read.
    std::vector<double> v_forced(u, 0.0);
    std::vector<std::vector<double>> small(u), large(u);
    for (std::size_t a = 0; a < u; ++a)
    {
        const std::size_t i = undecided[a];
        v_forced[a] = system.external_potential(i);  // defect background
        for (std::size_t j = 0; j < n; ++j)
        {
            if (w.status[j] == site_forced_negative)
            {
                v_forced[a] += system.potential(i, j);
            }
        }
        std::vector<double> row;
        row.reserve(u - 1);
        for (std::size_t b = 0; b < u; ++b)
        {
            if (b != a)
            {
                row.push_back(system.potential(i, undecided[b]));
            }
        }
        std::sort(row.begin(), row.end());
        // small[a][k] = sum of the k smallest entries, large[a][k] of the
        // k largest (k = 0 .. u-1)
        small[a].assign(u, 0.0);
        large[a].assign(u, 0.0);
        for (std::size_t k = 1; k < u; ++k)
        {
            small[a][k] = small[a][k - 1] + row[k - 1];
            large[a][k] = large[a][k - 1] + row[row.size() - k];
        }
    }

    // Feasibility of charging exactly K undecided sites: every charged site
    // needs mu + v_i <= tol even in the *best* case (its K-1 weakest
    // neighbours charged), so at least K sites must satisfy that; and a site
    // that has mu + v_i < -tol even in the *worst* case (its K strongest
    // neighbours charged) cannot stay neutral, so at most K sites may.
    bool any_feasible = false;
    std::size_t k_min = 0;
    std::size_t k_max = u;
    for (std::size_t K = 0; K <= u; ++K)
    {
        std::size_t can_charge = 0;
        std::size_t must_charge = 0;
        const std::size_t others = std::min(K, u - 1);
        for (std::size_t a = 0; a < u; ++a)
        {
            if (K >= 1 && mu + v_forced[a] + small[a][K - 1] <= tol)
            {
                ++can_charge;
            }
            if (mu + v_forced[a] + large[a][others] < -tol)
            {
                ++must_charge;
            }
        }
        if ((K == 0 || can_charge >= K) && must_charge <= K)
        {
            if (!any_feasible)
            {
                k_min = K;
                any_feasible = true;
            }
            k_max = K;
        }
    }
    if (any_feasible)
    {
        w.min_charges = base + k_min;
        w.max_charges = base + k_max;
    }
    return w;
}

namespace
{

// The branch-and-bound state, the precomputed population window its three
// gates read and the stack of sites charged on the current path, which its
// viability gate walks.
struct SearchState
{
    const SiDBSystem* system;
    double mu;
    std::size_t n;
    ChargeState kernel;
    double partial_f;
    double best_f;
    ChargeConfig best_config;
    std::uint64_t degeneracy;
    double tolerance;
    const PopulationWindow* window;
    std::vector<std::size_t> charged;  // charged sites of the path, ascending
    const core::RunBudget* run;
    std::uint64_t nodes;
    bool stopped;

    explicit SearchState(const SiDBSystem& sys) : kernel{sys} {}
};

void recurse(SearchState& s, std::size_t index)
{
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

    // population-reachability gate (integer-only, no float effect): even
    // charging every remaining site cannot reach the window's minimum, so
    // every leaf below is population unstable
    if (s.kernel.num_charges() + (s.n - index) < s.window->min_charges)
    {
        return;
    }

    // optimistic completion bound: every unassigned site can at best add
    // min(0, mu + v_i)
    double bound = s.partial_f;
    for (std::size_t i = index; i < s.n; ++i)
    {
        bound += std::min(0.0, s.mu + s.kernel.local_potential(i));
    }
    if (bound > s.best_f + s.tolerance)
    {
        return;
    }

    // branch: negative first, gated on the window — a forced-neutral site is
    // never charged, and the population never exceeds the window's maximum.
    if (s.window->status[index] != site_forced_neutral &&
        s.kernel.num_charges() < s.window->max_charges)
    {
        const double delta = s.mu + s.kernel.local_potential(index);
        s.kernel.commit_flip(index);
        s.partial_f += delta;
        s.charged.push_back(index);
        // viability: every charged site j <= index, read off the path's
        // stack in ascending order, must keep mu + v_j <= 1e-12 after this
        // charge; the neutral sites are never visited
        bool viable = true;
        for (const std::size_t j : s.charged)
        {
            if (s.mu + s.kernel.local_potential(j) > 1e-12)
            {
                viable = false;
                break;
            }
        }
        if (viable)
        {
            recurse(s, index + 1);
        }
        s.charged.pop_back();
        s.kernel.commit_flip(index);
        s.partial_f -= delta;
    }

    // branch: neutral, unless the site is charged in every stable config
    if (s.window->status[index] != site_forced_negative)
    {
        recurse(s, index + 1);
    }
}

GroundStateResult search_with_window(const SiDBSystem& system, double degeneracy_tolerance,
                                     const PopulationWindow& window, bool seed_from_quench,
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
    s.window = &window;
    s.charged.reserve(n);
    s.run = &run;
    s.nodes = 0;
    s.stopped = false;

    // seed with a quenched all-negative start (the quenched seed is
    // population stable, so the window gates never exclude it and the
    // recursion re-encounters it).
    // The testkit's wrong-window runs skip the seeding: it could silently
    // hand the search the very ground state the mutant window prunes.
    if (seed_from_quench)
    {
        ChargeConfig seed(n, 1);
        system.quench(seed);
        if (system.physically_valid(seed))
        {
            s.best_f = system.grand_potential(seed);
            s.best_config = seed;
        }
    }

    recurse(s, 0);

    GroundStateResult result;
    result.config = s.best_config;
    // fresh evaluation, not the accumulated partial sum — an identical
    // config therefore reports a bit-identical energy on every path
    result.grand_potential =
        s.best_config.empty() ? s.best_f : system.grand_potential(s.best_config);
    result.electrostatic = s.best_config.empty() ? 0.0 : system.electrostatic_energy(s.best_config);
    result.degeneracy = std::max<std::uint64_t>(1, s.degeneracy);
    result.complete = !s.stopped;
    result.cancelled = s.stopped;
    result.nodes = s.nodes;
    return result;
}

}  // namespace

GroundStateResult exact_ground_state(const SiDBSystem& system, double degeneracy_tolerance,
                                     const core::RunBudget& run)
{
    return search_with_window(system, degeneracy_tolerance, compute_population_window(system), true,
                              run);
}

GroundStateResult exact_ground_state(const SiDBSystem& system, const core::RunBudget& run)
{
    return exact_ground_state(system, system.parameters().energy_tolerance, run);
}

GroundStateResult testkit_exact_ground_state_with_window(const SiDBSystem& system,
                                                         double degeneracy_tolerance,
                                                         const PopulationWindow& window,
                                                         const core::RunBudget& run)
{
    return search_with_window(system, degeneracy_tolerance, window, false, run);
}

}  // namespace bestagon::phys
