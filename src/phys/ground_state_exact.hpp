/// \file ground_state_exact.hpp
/// \brief Population-bounded exact ground-state search (arXiv 2308.04487,
///        "The Need for Speed") — the complete ground-state engine.
///
/// The search is a depth-first branch-and-bound over the sites in index
/// order, negative branch first. It is seeded with the quenched all-negative
/// configuration, prunes on energy with an optimistic completion bound (every
/// unassigned site contributes min(0, mu + v_i)), abandons a charge whose
/// charged sites on the current path are no longer viable, and checks
/// physical validity at every leaf. An energy bound alone is weak on dense
/// canvases where many unassigned sites still *look* chargeable, so past
/// ~30 sites whole exponential subtrees survive it. The engine therefore adds
/// *physically informed* pruning derived purely from population stability,
/// computed once up front:
///
///  - **Forced charge states.** With every pair potential V_ij >= 0, the
///    local potential of a site is bracketed by the charges that are already
///    certain: v_min_i counts only forced-negative sites, v_max_i adds every
///    still-undecided site. If mu + v_max_i < -tol the site is negative in
///    *every* population-stable configuration (forced_neg); if
///    mu + v_min_i > tol it is neutral in every one (forced_neut). Each
///    newly forced site tightens the brackets of the others, so the
///    classification runs to a fixpoint.
///  - **Population window.** For the sites still undecided, prefix sums of
///    the sorted interaction rows bound how many of them can / must be
///    charged simultaneously; infeasible total populations are excluded,
///    yielding a window [min_charges, max_charges] on the number of
///    electrons of any population-stable configuration.
///
/// Three gates read the window, and each only ever removes population-
/// UNSTABLE subtrees: the negative branch is skipped on forced_neut sites and
/// when max_charges is reached, the neutral branch is skipped on forced_neg
/// sites, and a subtree is abandoned when even charging every remaining site
/// cannot reach min_charges. Configurations in pruned subtrees always fail
/// the leaf validity check, so the search stays complete: the ground state,
/// its energy and the degeneracy count are exact. The viability gate walks a
/// stack of the sites charged on the current path, and every reported energy
/// is a fresh `SiDBSystem::grand_potential` evaluation of the configuration.

#pragma once

#include "core/run_control.hpp"
#include "phys/model.hpp"

#include <cstdint>
#include <vector>

namespace bestagon::phys
{

/// Per-site population-stability classification plus global population
/// bounds, precomputed once per system (see file comment).
struct PopulationWindow
{
    /// Per-site status: 0 = undecided, 1 = forced negative (DB- in every
    /// population-stable configuration), 2 = forced neutral.
    std::vector<std::uint8_t> status;

    /// Inclusive bounds on the total electron count of any population-stable
    /// configuration (forced-negative sites included).
    std::size_t min_charges{0};
    std::size_t max_charges{0};
};

/// Per-site status values of PopulationWindow::status.
inline constexpr std::uint8_t site_undecided = 0;
inline constexpr std::uint8_t site_forced_negative = 1;
inline constexpr std::uint8_t site_forced_neutral = 2;

/// Computes the forced-site fixpoint and the population window — O(n^2 log n)
/// once per system, independent of the search.
[[nodiscard]] PopulationWindow compute_population_window(const SiDBSystem& system);

/// Population-bounded exact ground-state search: the global minimum of the
/// grand potential over all physically valid configurations, and the number
/// of valid configurations within \p degeneracy_tolerance of it. The
/// `ground_state_differential` testkit oracle checks it against 2^n brute
/// force on small canvases; the population window lets it complete dense
/// canvases of 40+ sites.
///
/// A limited \p run budget is polled sparsely; on stop the best
/// configuration found so far is returned with complete = false and
/// cancelled = true. An unlimited budget leaves the search bit-identical.
[[nodiscard]] GroundStateResult exact_ground_state(const SiDBSystem& system,
                                                   double degeneracy_tolerance,
                                                   const core::RunBudget& run = {});

/// Overload reading the degeneracy window from the system's parameters
/// (SimulationParameters::energy_tolerance).
[[nodiscard]] GroundStateResult exact_ground_state(const SiDBSystem& system,
                                                   const core::RunBudget& run = {});

/// **Testkit-only fault hook**: runs the search under an externally supplied
/// (possibly WRONG) population window instead of the computed one, and
/// without the quenched-seed bound (the seed could silently hand the search
/// the very configuration the mutant window prunes). The
/// `shrink_exact_population_window` mutant narrows the window so the search
/// prunes valid configurations; the differential oracle proves the fault is
/// detected. Production code must never call this.
[[nodiscard]] GroundStateResult
testkit_exact_ground_state_with_window(const SiDBSystem& system, double degeneracy_tolerance,
                                       const PopulationWindow& window,
                                       const core::RunBudget& run = {});

}  // namespace bestagon::phys
