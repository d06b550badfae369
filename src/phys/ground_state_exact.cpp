#include "phys/ground_state_exact.hpp"

#include <algorithm>
#include <limits>

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

/// Which testkit fault, if any, the search runs with.
enum class SearchFault : std::uint8_t
{
    none,
    /// the caller's (possibly wrong) window, no quenched seed
    wrong_window,
    /// the negative branch leaves the sites before the branching index
    /// without the row update, no quenched seed
    stale_prefix
};

// The branch-and-bound state, the precomputed population window its three
// gates read and the stack of sites charged on the current path, which its
// viability gate walks. The local potentials live in `potentials`, one array
// of n per depth: slot 0 holds the defect background W_i, and a negative
// branch at site k writes its child's potentials into slot k + 1 while a
// neutral branch hands its child the parent's array. A node's descendants
// only write slots above its own index, so every array on the current path
// stays intact and nothing is ever unwound.
struct SearchState
{
    const SiDBSystem* system;
    double mu;
    double stability_tolerance;
    std::size_t n;
    std::vector<double> potentials;  // (n + 1) * n
    ChargeConfig config;             // the path's charges; sites >= index are 0
    double best_f;
    ChargeConfig best_config;
    std::uint64_t degeneracy;
    double tolerance;
    const PopulationWindow* window;
    std::vector<std::size_t> charged;  // charged sites of the path, ascending
    const core::RunBudget* run;
    std::uint64_t nodes;
    bool stopped;
    bool stale_prefix;
};

/// Optimistic completion bound of a node at \p index: every unassigned site
/// can at best add min(0, mu + v_i) to \p partial_f.
double completion_bound(const SearchState& s, const double* v, std::size_t index, double partial_f)
{
    double bound = partial_f;
    for (std::size_t i = index; i < s.n; ++i)
    {
        bound += std::min(0.0, s.mu + v[i]);
    }
    return bound;
}

/// SiQAD physical validity of the path's configuration over its potentials
/// \p v: population stability, then no single electron hop lowers F.
bool physically_valid(const SearchState& s, const double* v)
{
    const double tol = s.stability_tolerance;
    for (std::size_t i = 0; i < s.n; ++i)
    {
        const double level = s.mu + v[i];
        if (s.config[i] != 0 ? level > tol : level < -tol)
        {
            return false;
        }
    }
    for (const std::size_t i : s.charged)
    {
        const double* row = s.system->potential_row(i);
        for (std::size_t j = 0; j < s.n; ++j)
        {
            if (s.config[j] == 0 && v[j] - v[i] - row[j] < -tol)
            {
                return false;
            }
        }
    }
    return true;
}

/// Visits the node at \p index whose local potentials are \p v, whose grand
/// potential over the assigned sites is \p partial_f and whose completion
/// bound its parent computed as \p bound.
void recurse(SearchState& s, std::size_t index, const double* v, double partial_f, double bound)
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
        if (partial_f <= s.best_f + s.tolerance && physically_valid(s, v))
        {
            if (partial_f < s.best_f - s.tolerance)
            {
                s.best_f = partial_f;
                s.best_config = s.config;
                s.degeneracy = 1;
            }
            else
            {
                ++s.degeneracy;
            }
        }
        return;
    }

    // population-reachability gate (integer-only, no float effect): even
    // charging every remaining site cannot reach the window's minimum, so
    // every leaf below is population unstable
    if (s.charged.size() + (s.n - index) < s.window->min_charges)
    {
        return;
    }
    if (bound > s.best_f + s.tolerance)
    {
        return;
    }

    const bool neutral = s.window->status[index] != site_forced_negative;
    // branch: negative first, gated on the window — a forced-neutral site is
    // never charged, and the population never exceeds the window's maximum.
    if (s.window->status[index] == site_forced_neutral ||
        s.charged.size() >= s.window->max_charges)
    {
        // branch: neutral, unless the site is charged in every stable config
        if (neutral)
        {
            recurse(s, index + 1, v, partial_f, completion_bound(s, v, index + 1, partial_f));
        }
        return;
    }

    // One pass writes the child's potentials v_j + V_{index,j} (the site
    // itself keeps v_index) and, over the sites after index in ascending
    // order, sums both children's completion bounds: the negative child's
    // over its own potentials, the neutral sibling's over the parent's.
    const double mu = s.mu;
    const std::size_t n = s.n;
    const double delta = mu + v[index];
    double* child = s.potentials.data() + (index + 1) * n;
    const double* row = s.system->potential_row(index);
    if (s.stale_prefix)
    {
        std::copy(v, v + index, child);
    }
    else
    {
        for (std::size_t j = 0; j < index; ++j)
        {
            child[j] = v[j] + row[j];
        }
    }
    child[index] = v[index];
    double child_bound = partial_f + delta;
    double sibling_bound = partial_f;
    for (std::size_t j = index + 1; j < n; ++j)
    {
        const double c = v[j] + row[j];
        child[j] = c;
        child_bound += std::min(0.0, mu + c);
        sibling_bound += std::min(0.0, mu + v[j]);
    }

    // viability: every charged site j <= index, read off the path's stack in
    // ascending order, must keep mu + v_j <= 1e-12 after this charge; the
    // neutral sites are never visited
    s.charged.push_back(index);
    bool viable = true;
    for (const std::size_t j : s.charged)
    {
        if (mu + child[j] > 1e-12)
        {
            viable = false;
            break;
        }
    }
    if (viable)
    {
        s.config[index] = 1;
        recurse(s, index + 1, child, partial_f + delta, child_bound);
        s.config[index] = 0;
    }
    s.charged.pop_back();

    if (neutral)
    {
        recurse(s, index + 1, v, partial_f, sibling_bound);
    }
}

GroundStateResult search_with_window(const SiDBSystem& system, double degeneracy_tolerance,
                                     const PopulationWindow& window, SearchFault fault,
                                     const core::RunBudget& run)
{
    const std::size_t n = system.size();
    SearchState s;
    s.system = &system;
    s.mu = system.parameters().mu_minus;
    s.stability_tolerance = system.parameters().stability_tolerance;
    s.n = n;
    s.potentials.assign((n + 1) * n, 0.0);
    for (std::size_t i = 0; i < n; ++i)
    {
        s.potentials[i] = system.external_potential(i);
    }
    s.config.assign(n, 0);
    s.best_f = std::numeric_limits<double>::infinity();
    s.degeneracy = 0;
    s.tolerance = degeneracy_tolerance;
    s.window = &window;
    s.charged.reserve(n);
    s.run = &run;
    s.nodes = 0;
    s.stopped = false;
    s.stale_prefix = fault == SearchFault::stale_prefix;

    // seed with a quenched all-negative start (the quenched seed is
    // population stable, so the window gates never exclude it and the
    // recursion re-encounters it).
    // The testkit's fault runs skip the seeding: it could silently hand the
    // search the very ground state the fault makes it miss.
    if (fault == SearchFault::none)
    {
        ChargeConfig seed(n, 1);
        system.quench(seed);
        if (system.physically_valid(seed))
        {
            s.best_f = system.grand_potential(seed);
            s.best_config = seed;
        }
    }

    const double* root = s.potentials.data();
    recurse(s, 0, root, 0.0, completion_bound(s, root, 0, 0.0));

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
    return search_with_window(system, degeneracy_tolerance, compute_population_window(system),
                              SearchFault::none, run);
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
    return search_with_window(system, degeneracy_tolerance, window, SearchFault::wrong_window,
                              run);
}

GroundStateResult testkit_exact_ground_state_stale_potentials(const SiDBSystem& system,
                                                              double degeneracy_tolerance,
                                                              const core::RunBudget& run)
{
    return search_with_window(system, degeneracy_tolerance, compute_population_window(system),
                              SearchFault::stale_prefix, run);
}

}  // namespace bestagon::phys
