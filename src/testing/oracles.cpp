#include "testing/oracles.hpp"

#include "core/thread_pool.hpp"
#include "layout/design_rules.hpp"
#include "layout/equivalence_checking.hpp"
#include "layout/scalable_physical_design.hpp"
#include "logic/exact_synthesis.hpp"
#include "logic/rewriting.hpp"
#include "logic/tech_mapping.hpp"
#include "phys/charge_state.hpp"
#include "phys/defect.hpp"
#include "phys/defect_sweep.hpp"
#include "phys/ground_state_exact.hpp"
#include "sat/proof.hpp"
#include "sat/proof_check.hpp"
#include "sat/solver.hpp"
#include "testing/random.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <random>
#include <sstream>
#include <stdexcept>

namespace bestagon::testkit
{

namespace
{

/// True if \p assignment (bit v-1 = DIMACS variable v) satisfies the clause.
bool clause_satisfied(const std::vector<int>& clause, std::uint64_t assignment)
{
    for (const int lit : clause)
    {
        const auto var = static_cast<unsigned>(std::abs(lit)) - 1;
        const bool value = ((assignment >> var) & 1ULL) != 0;
        if (value == (lit > 0))
        {
            return true;
        }
    }
    return false;
}

bool formula_satisfied(const sat::Cnf& cnf, std::uint64_t assignment)
{
    for (const auto& clause : cnf.clauses)
    {
        if (!clause_satisfied(clause, assignment))
        {
            return false;
        }
    }
    return true;
}

/// Exhaustive existence check over all 2^num_vars assignments.
bool bruteforce_satisfiable(const sat::Cnf& cnf)
{
    const std::uint64_t count = 1ULL << static_cast<unsigned>(cnf.num_vars);
    for (std::uint64_t a = 0; a < count; ++a)
    {
        if (formula_satisfied(cnf, a))
        {
            return true;
        }
    }
    return false;
}

OracleVerdict fail(std::string detail)
{
    return OracleVerdict{false, std::move(detail)};
}

/// True if any node of \p network is a constant. Mapped networks can contain
/// constants when structural hashing folds a degenerate specification (e.g.
/// xor of a signal with a buffered copy of itself); the gate library has no
/// constant tile, so such networks lie outside both P&R engines' domain.
bool has_constant_nodes(const logic::LogicNetwork& network)
{
    for (const auto id : network.topological_order())
    {
        const auto type = network.type_of(id);
        if (type == logic::GateType::const0 || type == logic::GateType::const1)
        {
            return true;
        }
    }
    return false;
}

}  // namespace

OracleVerdict sat_differential(const sat::Cnf& cnf, unsigned max_bruteforce_vars, SatFault fault,
                               SatOracleStats* stats)
{
    SatOracleStats local;
    SatOracleStats& s = stats != nullptr ? *stats : local;

    sat::Solver solver;
    sat::MemoryProofTracer tracer;
    solver.set_proof_tracer(&tracer);
    const bool trivially_unsat = !sat::load_into_solver(solver, cnf);
    const auto real_result = trivially_unsat ? sat::Result::unsatisfiable : solver.solve();
    if (real_result == sat::Result::unknown)
    {
        return fail("CDCL solver returned unknown without a budget being set");
    }

    if (real_result == sat::Result::unsatisfiable)
    {
        // every UNSAT answer is certified: the proof the solver emitted must
        // pass the independent backward DRAT checker against the root formula
        s.unsat = true;
        sat::DratProof proof = tracer.proof();
        if (fault == SatFault::drop_proof_lemmas)
        {
            proof.steps.clear();
            proof.steps.push_back({false, {}});  // keep only the final empty clause
        }
        const auto check = sat::check_drat_proof(sat::to_cnf(solver.root_clauses()), proof);
        if (!check.valid)
        {
            return fail("UNSAT answer failed DRAT certification: " + check.error);
        }
        s.proof_checked = true;
    }

    auto result = real_result;
    if (fault == SatFault::flip_reported_result)
    {
        result = result == sat::Result::satisfiable ? sat::Result::unsatisfiable
                                                    : sat::Result::satisfiable;
    }

    if (result == sat::Result::satisfiable)
    {
        // model-check: the reported assignment must satisfy every clause
        // (after an UNSAT->SAT flip there is no model — the all-false
        // "claimed" model stands in, and necessarily fails the check)
        std::uint64_t assignment = 0;
        if (real_result == sat::Result::satisfiable)
        {
            for (int v = 0; v < cnf.num_vars; ++v)
            {
                if (v < solver.num_vars() && solver.model_value(static_cast<sat::Var>(v)))
                {
                    assignment |= 1ULL << static_cast<unsigned>(v);
                }
            }
        }
        if (fault == SatFault::corrupt_model)
        {
            assignment ^= 1ULL;
        }
        for (std::size_t c = 0; c < cnf.clauses.size(); ++c)
        {
            if (!clause_satisfied(cnf.clauses[c], assignment))
            {
                std::ostringstream out;
                out << "SAT model violates clause " << c << " of " << cnf.clauses.size() << " ("
                    << cnf.num_vars << " vars)";
                return fail(out.str());
            }
        }
        return {};
    }

    // UNSAT: refutable only by the exhaustive sweep (skip oversized instances)
    if (static_cast<unsigned>(cnf.num_vars) > max_bruteforce_vars)
    {
        return {};
    }
    if (bruteforce_satisfiable(cnf))
    {
        std::ostringstream out;
        out << "solver reported UNSAT but a satisfying assignment exists (" << cnf.num_vars
            << " vars, " << cnf.clauses.size() << " clauses)";
        return fail(out.str());
    }
    return {};
}


namespace
{

/// Naive population + configuration stability: every local potential is a
/// fresh sum, independent of both the kernel and SiDBSystem's kernel-backed
/// checks.
bool naive_physically_valid(const phys::SiDBSystem& system, const phys::ChargeConfig& config)
{
    const std::size_t n = system.size();
    const double mu = system.parameters().mu_minus;
    const double tol = system.parameters().stability_tolerance;
    std::vector<double> v(n);
    for (std::size_t i = 0; i < n; ++i)
    {
        v[i] = system.local_potential(config, i);
        const double level = mu + v[i];
        if ((config[i] != 0 && level > tol) || (config[i] == 0 && level < -tol))
        {
            return false;
        }
    }
    for (std::size_t i = 0; i < n; ++i)
    {
        if (config[i] == 0)
        {
            continue;
        }
        for (std::size_t j = 0; j < n; ++j)
        {
            if (config[j] == 0 && j != i && v[j] - v[i] - system.potential(i, j) < -tol)
            {
                return false;
            }
        }
    }
    return true;
}

/// The exact engine's contract against the brute-force reference: a complete
/// search, a physically valid configuration at the minimum and the true
/// degeneracy count. The configuration is the reference's (then the energy
/// is bit-identical: both are fresh evaluations) unless the canvas is
/// degenerate and the search settled on another configuration in the window.
OracleVerdict check_exact_ground_state(const phys::SiDBSystem& system,
                                       const phys::GroundStateResult& reference,
                                       const phys::GroundStateResult& exact)
{
    std::ostringstream out;
    if (!exact.complete)
    {
        return fail("exact engine did not report a complete search");
    }
    if (exact.config == reference.config)
    {
        if (exact.grand_potential != reference.grand_potential)
        {
            out << "exact engine energy " << exact.grand_potential
                << " eV is not bit-identical to the brute-force minimum "
                << reference.grand_potential << " eV";
            return fail(out.str());
        }
    }
    else if (exact.degeneracy < 2 || exact.config.size() != system.size() ||
             !naive_physically_valid(system, exact.config) ||
             exact.grand_potential < reference.grand_potential ||
             exact.grand_potential - reference.grand_potential >
                 system.parameters().energy_tolerance)
    {
        out << "exact engine found a different ground-state configuration than brute force ("
            << system.size() << " dots, " << exact.grand_potential << " eV vs "
            << reference.grand_potential << " eV)";
        return fail(out.str());
    }
    if (exact.degeneracy != reference.degeneracy)
    {
        out << "exact engine degeneracy " << exact.degeneracy << " != brute-force degeneracy "
            << reference.degeneracy;
        return fail(out.str());
    }
    return {};
}

/// simanneal's contract against the brute-force reference: validity,
/// self-consistent energy, never beating the minimum, accuracy within
/// tolerance, and the degeneracy lower bound.
OracleVerdict check_annealed_ground_state(const phys::SiDBSystem& system,
                                          const phys::GroundStateResult& reference,
                                          const phys::GroundStateResult& annealed,
                                          double tolerance_ev)
{
    if (annealed.config.size() != system.size())
    {
        return fail("simanneal returned a configuration of the wrong size");
    }
    if (!system.physically_valid(annealed.config))
    {
        return fail("simanneal configuration is not physically valid (population or "
                    "configuration stability violated)");
    }
    std::ostringstream out;
    const double recomputed = system.grand_potential(annealed.config);
    if (std::abs(recomputed - annealed.grand_potential) > 1e-9)
    {
        out << "simanneal misreports its own energy: config evaluates to " << recomputed
            << " eV but " << annealed.grand_potential << " eV was reported";
        return fail(out.str());
    }
    if (annealed.grand_potential < reference.grand_potential - 1e-9)
    {
        out << "simanneal energy " << annealed.grand_potential
            << " eV beats the brute-force minimum " << reference.grand_potential << " eV";
        return fail(out.str());
    }
    if (annealed.grand_potential > reference.grand_potential + tolerance_ev)
    {
        out << "simanneal missed the ground state: " << annealed.grand_potential << " eV vs "
            << reference.grand_potential << " eV brute force (" << system.size() << " dots)";
        return fail(out.str());
    }
    // distinct-configuration degeneracy is a lower bound on the true count,
    // but only when the annealer actually sits on the minimum (otherwise
    // its tolerance window is shifted upward and may cover configurations
    // the true count excludes)
    if (annealed.grand_potential <= reference.grand_potential + 1e-9 &&
        annealed.degeneracy > reference.degeneracy)
    {
        out << "simanneal reports degeneracy " << annealed.degeneracy
            << " above the true count " << reference.degeneracy;
        return fail(out.str());
    }
    return {};
}

}  // namespace

phys::GroundStateResult brute_force_ground_state(const phys::SiDBSystem& system)
{
    const std::size_t n = system.size();
    if (n > max_brute_force_sites)
    {
        throw std::invalid_argument{"brute_force_ground_state enumerates at most " +
                                    std::to_string(max_brute_force_sites) + " sites, got " +
                                    std::to_string(n)};
    }
    const std::uint64_t count = std::uint64_t{1} << n;
    std::vector<double> energies(count, std::numeric_limits<double>::infinity());
    phys::GroundStateResult best;
    best.grand_potential = std::numeric_limits<double>::infinity();
    phys::ChargeConfig config(n, 0);
    for (std::uint64_t bits = 0; bits < count; ++bits)
    {
        for (std::size_t s = 0; s < n; ++s)
        {
            config[s] = static_cast<std::uint8_t>((bits >> s) & 1ULL);
        }
        if (!naive_physically_valid(system, config))
        {
            continue;
        }
        energies[bits] = system.grand_potential(config);
        if (energies[bits] < best.grand_potential)
        {
            best.grand_potential = energies[bits];
            best.config = config;
        }
    }
    best.degeneracy = 0;
    for (const double f : energies)
    {
        if (f - best.grand_potential <= system.parameters().energy_tolerance)
        {
            ++best.degeneracy;
        }
    }
    best.electrostatic = best.config.empty() ? 0.0 : system.electrostatic_energy(best.config);
    best.complete = true;
    return best;
}

OracleVerdict ground_state_differential(const std::vector<phys::SiDBSite>& canvas,
                                        const phys::SimulationParameters& sim_params,
                                        const phys::SimAnnealParameters& anneal_params,
                                        double tolerance_ev, GroundStateFault fault)
{
    const phys::SiDBSystem system{canvas, sim_params};
    auto reference = brute_force_ground_state(system);
    if (fault == GroundStateFault::shift_exact_energy)
    {
        reference.grand_potential += 0.010;
    }

    // --- exact engine: claims the exact minimum and degeneracy -------------
    phys::GroundStateResult exact;
    if (fault == GroundStateFault::shrink_exact_population_window)
    {
        // unsound-window mutant: force one charged ground-state site neutral
        // (or, for an all-neutral ground state, force site 0 negative) so the
        // search prunes the true minimum
        auto window = phys::compute_population_window(system);
        if (canvas.empty())
        {
            return fail("shrink_exact_population_window needs a non-empty canvas");
        }
        std::size_t site = 0;
        std::uint8_t forced = phys::site_forced_negative;
        for (std::size_t i = 0; i < reference.config.size(); ++i)
        {
            if (reference.config[i] != 0)
            {
                site = i;
                forced = phys::site_forced_neutral;
                break;
            }
        }
        window.status[site] = forced;
        exact = phys::testkit_exact_ground_state_with_window(
            system, system.parameters().energy_tolerance, window);
    }
    else if (fault == GroundStateFault::stale_exact_potentials)
    {
        exact = phys::testkit_exact_ground_state_stale_potentials(
            system, system.parameters().energy_tolerance);
    }
    else
    {
        exact = phys::exact_ground_state(system);
    }
    if (auto verdict = check_exact_ground_state(system, reference, exact); !verdict)
    {
        return verdict;
    }

    // --- heuristic engine --------------------------------------------------
    auto simanneal = phys::simulated_annealing(system, anneal_params);
    if (fault == GroundStateFault::corrupt_anneal_config)
    {
        if (simanneal.config.empty())
        {
            return fail("corrupt_anneal_config needs a non-empty canvas");
        }
        simanneal.config[0] ^= 1U;
    }
    return check_annealed_ground_state(system, reference, simanneal, tolerance_ev);
}

namespace
{

/// Pre-refactor naive quench: greedy descent evaluating a fresh O(n)
/// local-potential sum at every decision — the exact SiDBSystem::quench
/// code before the charge-state kernel refactor. Kept as the reference the
/// kernel-backed engines are differenced against.
void naive_quench(const phys::SiDBSystem& system, phys::ChargeConfig& config)
{
    const std::size_t n = system.size();
    const double mu = system.parameters().mu_minus;
    const double tol = system.parameters().stability_tolerance;
    bool changed = true;
    while (changed)
    {
        changed = false;
        for (std::size_t i = 0; i < n; ++i)
        {
            const double v = system.local_potential(config, i);
            const double delta = config[i] == 0 ? (mu + v) : -(mu + v);
            if (delta < -tol)
            {
                config[i] ^= 1;
                changed = true;
            }
        }
        for (std::size_t i = 0; i < n; ++i)
        {
            if (config[i] == 0)
            {
                continue;
            }
            for (std::size_t j = 0; j < n; ++j)
            {
                if (config[j] != 0 || j == i)
                {
                    continue;
                }
                const double delta = system.local_potential(config, j) -
                                     system.local_potential(config, i) - system.potential(i, j);
                if (delta < -tol)
                {
                    config[i] = 0;
                    config[j] = 1;
                    changed = true;
                    break;
                }
            }
        }
    }
}

/// Pre-refactor naive annealing instance: identical RNG stream and move
/// logic to phys::simulated_annealing, but every proposal pays fresh O(n)
/// local-potential sums and the trailing quench is the naive one.
std::pair<phys::ChargeConfig, double> naive_anneal_instance(const phys::SiDBSystem& system,
                                                            const phys::SimAnnealParameters& params,
                                                            std::uint64_t seed)
{
    const std::size_t n = system.size();
    std::mt19937_64 rng{seed};
    std::uniform_real_distribution<double> uni{0.0, 1.0};

    phys::ChargeConfig config(n, 0);
    for (auto& c : config)
    {
        c = (rng() & 1) != 0 ? 1 : 0;
    }
    double temperature = params.initial_temperature;
    for (unsigned step = 0; step < params.steps_per_instance; ++step)
    {
        // mirrors the production proposal loop exactly: an invalid hop is a
        // rejected proposal (no fall-through to a flip, no acceptance draw)
        const bool do_hop = (rng() & 3U) == 0;
        const std::size_t i = rng() % n;
        std::size_t hop_to = n;
        bool rejected = false;
        double delta = 0.0;
        if (do_hop)
        {
            if (config[i] == 0)
            {
                rejected = true;
            }
            else
            {
                const std::size_t j = rng() % n;
                if (config[j] == 0 && j != i)
                {
                    hop_to = j;
                    delta = system.local_potential(config, j) - system.local_potential(config, i) -
                            system.potential(i, j);
                }
                else
                {
                    rejected = true;
                }
            }
        }
        else
        {
            const double v = system.local_potential(config, i);
            delta = config[i] == 0 ? (system.parameters().mu_minus + v)
                                   : -(system.parameters().mu_minus + v);
        }
        if (!rejected && (delta <= 0.0 || uni(rng) < std::exp(-delta / temperature)))
        {
            if (hop_to != n)
            {
                config[i] = 0;
                config[hop_to] = 1;
            }
            else
            {
                config[i] ^= 1;
            }
        }
        temperature *= params.cooling_rate;
    }
    naive_quench(system, config);
    return {std::move(config), system.grand_potential(config)};
}

}  // namespace

OracleVerdict charge_state_differential(const std::vector<phys::SiDBSite>& canvas,
                                        const phys::SimulationParameters& sim_params,
                                        const phys::SimAnnealParameters& anneal_params,
                                        std::uint64_t seed, unsigned num_moves, double tolerance,
                                        ChargeStateFault fault)
{
    if (canvas.size() < 2)
    {
        return fail("charge-state oracle needs at least two sites");
    }
    const phys::SiDBSystem system{canvas, sim_params};
    const std::size_t n = system.size();
    Rng rng{seed};
    std::ostringstream out;

    // --- 1. cache fidelity under a random committed move sequence ----------
    phys::ChargeConfig mirror(n, 0);
    for (auto& c : mirror)
    {
        c = rng.chance(0.5) ? 1 : 0;
    }
    phys::ChargeState kernel{system, mirror};
    const unsigned fault_move = num_moves / 2;
    for (unsigned move = 0; move < num_moves; ++move)
    {
        // pick a move: mostly flips, hops when an electron and a hole exist
        const std::size_t i = static_cast<std::size_t>(rng.below(n));
        std::size_t hop_to = n;
        if (rng.chance(0.25) && mirror[i] != 0)
        {
            const std::size_t j = static_cast<std::size_t>(rng.below(n));
            if (mirror[j] == 0 && j != i)
            {
                hop_to = j;
            }
        }
        if (fault == ChargeStateFault::skip_cache_update && move == fault_move)
        {
            // the mutant: the configuration changes but the cache does not
            phys::ChargeConfig skipped = mirror;
            skipped[i] ^= 1U;
            kernel.testkit_adopt_config_skip_cache_update(skipped);
            mirror = std::move(skipped);
        }
        else if (hop_to != n)
        {
            const double expect = system.local_potential(mirror, hop_to) -
                                  system.local_potential(mirror, i) - system.potential(i, hop_to);
            if (std::abs(kernel.delta_hop(i, hop_to) - expect) > tolerance)
            {
                out << "delta_hop(" << i << ", " << hop_to << ") = " << kernel.delta_hop(i, hop_to)
                    << " diverges from the fresh evaluation " << expect << " at move " << move;
                return fail(out.str());
            }
            kernel.commit_hop(i, hop_to);
            mirror[i] = 0;
            mirror[hop_to] = 1;
        }
        else
        {
            const double v = system.local_potential(mirror, i);
            const double expect = mirror[i] == 0 ? (sim_params.mu_minus + v)
                                                 : -(sim_params.mu_minus + v);
            if (std::abs(kernel.delta_flip(i) - expect) > tolerance)
            {
                out << "delta_flip(" << i << ") = " << kernel.delta_flip(i)
                    << " diverges from the fresh evaluation " << expect << " at move " << move;
                return fail(out.str());
            }
            kernel.commit_flip(i);
            mirror[i] ^= 1U;
        }

        if (kernel.config() != mirror)
        {
            out << "kernel configuration diverged from the mirrored moves at move " << move;
            return fail(out.str());
        }
        for (std::size_t s = 0; s < n; ++s)
        {
            const double fresh = system.local_potential(mirror, s);
            if (std::abs(kernel.local_potential(s) - fresh) > tolerance)
            {
                out << "cached v_" << s << " = " << kernel.local_potential(s)
                    << " drifted beyond " << tolerance << " from the fresh sum " << fresh
                    << " after move " << move << " (" << num_moves << " total)";
                return fail(out.str());
            }
        }
        const double fresh_f = system.grand_potential(mirror);
        if (std::abs(kernel.grand_potential() - fresh_f) > tolerance * static_cast<double>(n))
        {
            out << "cached grand potential " << kernel.grand_potential()
                << " diverges from the naive pairwise sum " << fresh_f << " after move " << move;
            return fail(out.str());
        }
    }

    // the exact-resync hook must restore bit-exact agreement
    kernel.rebuild();
    for (std::size_t s = 0; s < n; ++s)
    {
        if (kernel.local_potential(s) != system.local_potential(mirror, s))
        {
            out << "rebuild() left v_" << s << " = " << kernel.local_potential(s)
                << " not bit-identical to the fresh sum " << system.local_potential(mirror, s);
            return fail(out.str());
        }
    }

    // --- 2a. kernel-backed quench vs. the naive reference -------------------
    phys::ChargeConfig quench_start(n, 0);
    for (auto& c : quench_start)
    {
        c = rng.chance(0.5) ? 1 : 0;
    }
    phys::ChargeConfig naive_quenched = quench_start;
    naive_quench(system, naive_quenched);
    phys::ChargeConfig kernel_quenched = quench_start;
    system.quench(kernel_quenched);
    if (kernel_quenched != naive_quenched)
    {
        return fail("kernel-backed quench took a different descent trajectory than the "
                    "pre-refactor naive quench");
    }

    // --- 2b. kernel-backed anneal vs. the naive reference --------------------
    const auto production = phys::simulated_annealing(system, anneal_params);
    phys::GroundStateResult reference;
    reference.grand_potential = std::numeric_limits<double>::infinity();
    for (unsigned inst = 0; inst < anneal_params.num_instances; ++inst)
    {
        auto [config, f] = naive_anneal_instance(
            system, anneal_params, core::derive_seed(sim_params.anneal_seed, inst));
        if (f < reference.grand_potential)
        {
            reference.grand_potential = f;
            reference.config = std::move(config);
        }
    }
    if (std::abs(production.grand_potential - reference.grand_potential) > tolerance)
    {
        out << "kernel-backed simulated annealing found " << production.grand_potential
            << " eV but the pre-refactor naive path found " << reference.grand_potential
            << " eV (" << n << " dots) — a move decision diverged";
        return fail(out.str());
    }
    if (production.config != reference.config)
    {
        return fail("kernel-backed simulated annealing returned a different configuration than "
                    "the pre-refactor naive path at equal energy");
    }

    // --- 2c. kernel-backed exact engine vs. naive brute-force enumeration ----
    if (n <= 14)
    {
        return check_exact_ground_state(system, brute_force_ground_state(system),
                                        phys::exact_ground_state(system));
    }
    return {};
}

OracleVerdict defect_differential(const phys::GateDesign& design,
                                  const phys::SimulationParameters& sim_params, std::uint64_t seed,
                                  double tolerance, DefectFault fault)
{
    if (design.sites.empty() || design.num_inputs() == 0)
    {
        return fail("defect oracle needs a design with sites and at least one input");
    }
    std::ostringstream out;

    // --- 1. defect-free bit-identity ----------------------------------------
    // the reference is the pristine instance of each pattern, built and
    // searched here without any surface
    const phys::DefectSurface no_defects;
    const auto via_empty = phys::check_operational(design, sim_params, no_defects);
    if (via_empty.blocked || via_empty.details.size() != via_empty.patterns_total)
    {
        return fail("an empty defect surface changed the check_operational verdict");
    }
    for (std::uint64_t p = 0; p < via_empty.patterns_total; ++p)
    {
        const phys::SiDBSystem pristine{design.instance_sites(p), sim_params};
        const auto reference = phys::find_ground_state(pristine);
        if (via_empty.details[p].ground_state.config != reference.config ||
            via_empty.details[p].ground_state.grand_potential != reference.grand_potential)
        {
            out << "pattern " << p << " ground state is not bit-identical between the pristine "
                << "instance and an empty defect surface";
            return fail(out.str());
        }
    }

    const auto canvas = design.instance_sites(0);
    const phys::SiDBSystem empty_system{canvas, sim_params, no_defects};
    if (empty_system.has_external_potentials())
    {
        return fail("an empty defect surface allocated an external-potential row");
    }

    // --- 2. external potentials vs. fresh first-principles sums --------------
    // a seeded all-charged surface around the design; defects that would
    // block a canvas site are dropped (the system constructor rejects them,
    // by design — their Coulomb term would be singular)
    const auto region = phys::sweep_region(design, 5.0);
    phys::DefectSampleParams sample_params;
    sample_params.density_per_nm2 = 0.05;
    sample_params.charged_fraction = 1.0;
    phys::DefectSurface surface;
    const auto raw = phys::sample_defect_surface(region, sample_params, seed);
    for (const auto& d : raw.defects())
    {
        phys::DefectSurface one;
        one.add(d);
        if (!one.blocks_any(canvas))
        {
            surface.add(d);
        }
    }
    if (!surface.has_charged())
    {
        // degenerate draw on a tiny region: pin one charged defect at the
        // region corner (the sweep margin keeps it off every canvas site)
        phys::SurfaceDefect corner;
        corner.site = phys::SiDBSite{region.n_min, region.m_min, 0};
        surface.add(corner);
    }

    const phys::SiDBSystem system{canvas, sim_params, surface};
    const std::size_t n = system.size();
    std::vector<double> fresh_w(n, 0.0);
    for (std::size_t i = 0; i < n; ++i)
    {
        for (const auto& d : surface.defects())
        {
            if (d.kind != phys::DefectKind::charged)
            {
                continue;
            }
            const double dx = canvas[i].x() - d.site.x();
            const double dy = canvas[i].y() - d.site.y();
            fresh_w[i] += -d.charge *
                          phys::screened_coulomb(std::sqrt(dx * dx + dy * dy), sim_params);
        }
        if (std::abs(system.external_potential(i) - fresh_w[i]) > tolerance)
        {
            out << "system W_" << i << " = " << system.external_potential(i)
                << " diverges from the fresh per-defect Coulomb sum " << fresh_w[i];
            return fail(out.str());
        }
    }

    // kernel cache on a seeded random configuration; with the fault injected
    // the rebuild drops W and the v_i comparison below must flag it
    Rng rng{seed};
    phys::ChargeConfig config(n, 0);
    for (auto& c : config)
    {
        c = rng.chance(0.5) ? 1 : 0;
    }
    phys::ChargeState kernel{system, config};
    if (fault == DefectFault::ignore_defect_potentials)
    {
        kernel.testkit_rebuild_ignore_external();
    }
    double fresh_pairs = 0.0;
    double fresh_external = 0.0;
    for (std::size_t i = 0; i < n; ++i)
    {
        double v = fresh_w[i];
        for (std::size_t j = 0; j < n; ++j)
        {
            if (j != i && config[j] != 0)
            {
                v += system.potential(i, j);
            }
        }
        if (std::abs(kernel.local_potential(i) - v) > tolerance)
        {
            out << "cached v_" << i << " = " << kernel.local_potential(i)
                << " diverges from the fresh sum W_i + sum_j V_ij n_j = " << v
                << " on the charged defect surface (" << surface.size() << " defects)";
            return fail(out.str());
        }
        if (config[i] != 0)
        {
            fresh_external += fresh_w[i];
            for (std::size_t j = i + 1; j < n; ++j)
            {
                if (config[j] != 0)
                {
                    fresh_pairs += system.potential(i, j);
                }
            }
        }
    }
    if (std::abs(kernel.electrostatic_energy() - (fresh_pairs + fresh_external)) >
        tolerance * static_cast<double>(n))
    {
        out << "cached electrostatic energy " << kernel.electrostatic_energy()
            << " diverges from the naive pair sum + defect term "
            << fresh_pairs + fresh_external;
        return fail(out.str());
    }
    if (std::abs(kernel.grand_potential() - system.grand_potential(config)) >
        tolerance * static_cast<double>(n))
    {
        out << "cached grand potential " << kernel.grand_potential()
            << " diverges from the fresh evaluation " << system.grand_potential(config);
        return fail(out.str());
    }

    // the exact engine sees W through the kernel, brute force through fresh
    // sums — on the defect system they must still agree
    if (n <= max_brute_force_sites)
    {
        if (auto verdict = check_exact_ground_state(system, brute_force_ground_state(system),
                                                    phys::exact_ground_state(system));
            !verdict)
        {
            out << verdict.detail << " on the defect system";
            return fail(out.str());
        }
    }

    // --- 3. yield-sweep invariants -------------------------------------------
    phys::DefectSweepParams sweep;
    sweep.densities_per_nm2 = {0.005, 0.01, 0.02};
    sweep.samples = 6;
    sweep.seed = seed;
    sweep.num_threads = 1;
    const auto serial = phys::defect_yield_sweep(design, sim_params, sweep);
    if (serial.cancelled)
    {
        return fail("unbudgeted yield sweep reported cancellation");
    }
    for (std::size_t k = 0; k < serial.points.size(); ++k)
    {
        const auto& point = serial.points[k];
        if (point.samples_evaluated != sweep.samples)
        {
            out << "density point " << k << " evaluated " << point.samples_evaluated << " of "
                << sweep.samples << " samples without a budget";
            return fail(out.str());
        }
        if (point.operational + point.blocked > point.samples_evaluated)
        {
            out << "density point " << k << " counts more outcomes than samples";
            return fail(out.str());
        }
        if (k > 0 && point.operational > serial.points[k - 1].operational)
        {
            out << "survival curve is not monotone: " << serial.points[k - 1].operational
                << " operational at density " << serial.points[k - 1].density_per_nm2 << " but "
                << point.operational << " at the higher density " << point.density_per_nm2;
            return fail(out.str());
        }
    }
    sweep.num_threads = 3;
    const auto threaded = phys::defect_yield_sweep(design, sim_params, sweep);
    if (threaded.points.size() != serial.points.size())
    {
        return fail("thread count changed the number of sweep points");
    }
    for (std::size_t k = 0; k < serial.points.size(); ++k)
    {
        if (threaded.points[k].operational != serial.points[k].operational ||
            threaded.points[k].blocked != serial.points[k].blocked ||
            threaded.points[k].samples_evaluated != serial.points[k].samples_evaluated)
        {
            out << "yield sweep is not thread-count invariant at density point " << k << " ("
                << serial.points[k].operational << "/" << serial.points[k].samples_evaluated
                << " serial vs " << threaded.points[k].operational << "/"
                << threaded.points[k].samples_evaluated << " on 3 threads)";
            return fail(out.str());
        }
    }

    if (fault == DefectFault::ignore_defect_potentials)
    {
        return fail("ignore_defect_potentials fault was injected but every check passed — the "
                    "oracle lost its mutation coverage");
    }
    return {};
}

OracleVerdict physical_design_differential(const logic::LogicNetwork& spec,
                                           const layout::ExactPDOptions& exact_options,
                                           PdOracleStats* stats, PdFault fault)
{
    const auto mapped = logic::map_to_bestagon(spec);
    std::string why;
    if (!mapped.is_bestagon_compliant(&why))
    {
        return fail("mapped network is not Bestagon-compliant: " + why);
    }
    if (spec.num_pis() <= 16 && !logic::functionally_equivalent(spec, mapped))
    {
        return fail("technology mapping changed the function of the specification");
    }
    const auto miter_spec = fault == PdFault::invert_spec_output ? with_inverted_po(mapped) : mapped;

    PdOracleStats local;
    PdOracleStats& s = stats != nullptr ? *stats : local;

    if (has_constant_nodes(mapped))
    {
        // degenerate (constant-function) specification: no P&R engine can
        // place it, so there is nothing to cross-check
        s.constant_function = true;
        return {};
    }

    // the march may decline densely reconvergent networks (production falls
    // back to the exact engine then) — that skips its checks, stats record it
    const auto scalable = layout::scalable_physical_design(mapped);
    if (scalable.has_value())
    {
        s.scalable_ran = true;
        s.scalable_area = scalable->area();
        // extraction needs the network the engine actually placed (occupants
        // carry its node ids); the miter then compares against the — possibly
        // fault-corrupted — specification
        if (layout::check_equivalence(miter_spec, scalable->extract_network(mapped)) !=
            layout::EquivalenceResult::equivalent)
        {
            return fail("scalable layout is NOT equivalent to the specification (SAT miter)");
        }
    }

    // the exact engine certifies every refuted size with a checked DRAT
    // proof; a proof failure means the solver's UNSAT verdict is untrusted
    auto certified_options = exact_options;
    certified_options.certify_unsat = true;
    layout::ExactPDStats pd_stats;
    const auto exact = layout::exact_physical_design(mapped, certified_options, &pd_stats);
    s.proofs_checked = pd_stats.proofs_checked;
    s.proof_failures = pd_stats.proof_failures;
    if (s.proof_failures > 0)
    {
        std::ostringstream out;
        out << s.proof_failures << " of " << (s.proofs_checked + s.proof_failures)
            << " exact-engine UNSAT verdicts failed DRAT certification";
        return fail(out.str());
    }
    const auto refuted = std::count_if(
        pd_stats.size_verdicts.begin(), pd_stats.size_verdicts.end(),
        [](const layout::SizeVerdict& v) { return v.result == sat::Result::unsatisfiable; });
    if (s.proofs_checked < static_cast<unsigned>(refuted))
    {
        std::ostringstream out;
        out << "exact engine refuted " << refuted << " size(s) but certified only "
            << s.proofs_checked;
        return fail(out.str());
    }
    if (exact.has_value())
    {
        s.exact_ran = true;
        s.exact_area = exact->area();
        // design rules first: extraction assumes a well-formed layout
        if (const auto drc = layout::check_design_rules(*exact); !drc.clean())
        {
            return fail("exact layout violates the design rules: " +
                        drc.violations.front().message);
        }
        if (layout::check_equivalence(miter_spec, exact->extract_network(mapped)) !=
            layout::EquivalenceResult::equivalent)
        {
            return fail("exact layout is NOT equivalent to the specification (SAT miter)");
        }
        // minimality cross-check: the scalable layout proves its own area
        // feasible, so the area-ascending exact search may never exceed it
        // (valid only when the scalable result lies inside the exact bounds)
        if (s.scalable_ran && scalable->width() <= exact_options.max_width &&
            scalable->height() <= exact_options.max_height && s.exact_area > s.scalable_area)
        {
            std::ostringstream out;
            out << "exact area " << s.exact_area << " exceeds scalable area " << s.scalable_area
                << " — ascending-area enumeration is broken";
            return fail(out.str());
        }
    }
    return {};
}

OracleVerdict frontend_differential(const logic::LogicNetwork& input, std::uint64_t seed,
                                    unsigned num_patterns, FrontendFault fault)
{
    logic::NpnDatabase database;
    const auto rewritten = logic::rewrite(input, database);
    auto mapped = logic::map_to_bestagon(rewritten);
    std::string why;
    if (!mapped.is_bestagon_compliant(&why))
    {
        return fail("mapped network is not Bestagon-compliant: " + why);
    }
    if (fault == FrontendFault::invert_mapped_output)
    {
        mapped = with_inverted_po(mapped);
    }
    if (input.num_pos() != rewritten.num_pos() || input.num_pos() != mapped.num_pos())
    {
        return fail("rewriting or mapping changed the number of primary outputs");
    }

    Rng rng{seed};
    const std::uint64_t mask =
        input.num_pis() >= 64 ? ~0ULL : (1ULL << input.num_pis()) - 1ULL;
    const bool exhaustive = input.num_pis() <= 6;  // all patterns fit the budget
    const std::uint64_t count = exhaustive ? (1ULL << input.num_pis()) : num_patterns;
    for (std::uint64_t i = 0; i < count; ++i)
    {
        const std::uint64_t pattern = exhaustive ? i : (rng.next() & mask);
        const auto expected = input.simulate_pattern(pattern);
        const auto after_rewrite = rewritten.simulate_pattern(pattern);
        const auto after_mapping = mapped.simulate_pattern(pattern);
        for (std::size_t o = 0; o < expected.size(); ++o)
        {
            if (after_rewrite[o] != expected[o] || after_mapping[o] != expected[o])
            {
                std::ostringstream out;
                out << "front end diverges on pattern 0x" << std::hex << pattern << std::dec
                    << " output " << o << ": input=" << expected[o]
                    << " rewritten=" << after_rewrite[o] << " mapped=" << after_mapping[o];
                return fail(out.str());
            }
        }
    }
    return {};
}

OracleVerdict run_control_differential(const logic::LogicNetwork& spec,
                                       const core::FlowOptions& options,
                                       std::int64_t timing_slack_ms, RunControlOracleStats* stats,
                                       RunControlFault fault)
{
    const auto start = std::chrono::steady_clock::now();
    core::FlowResult result;
    try
    {
        result = core::run_design_flow(spec, options);
    }
    catch (const std::exception& e)
    {
        return fail(std::string{"flow threw under run control: "} + e.what());
    }
    catch (...)
    {
        return fail("flow threw a non-std exception under run control");
    }
    const auto wall_ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                             std::chrono::steady_clock::now() - start)
                             .count();

    if (fault == RunControlFault::drop_diagnostics)
    {
        result.diagnostics.stages.clear();
    }
    else if (fault == RunControlFault::forge_success)
    {
        result.equivalence = layout::EquivalenceResult::equivalent;
        result.layout.reset();
    }

    const auto* cut = result.diagnostics.first_cut();
    if (stats != nullptr)
    {
        stats->wall_ms = wall_ms;
        stats->interrupted = result.diagnostics.interrupted();
        stats->produced_layout = result.layout.has_value();
        stats->produced_sidb = result.sidb.has_value();
        stats->first_cut = cut != nullptr ? cut->stage : std::string{};
        stats->engine_used = result.engine_used;
    }

    // a controlled run must return within a small multiple of its deadline;
    // the slack absorbs the (token-only) scalable fallback and CI noise
    if (options.deadline_ms >= 0 && wall_ms > 2 * options.deadline_ms + timing_slack_ms)
    {
        std::ostringstream out;
        out << "flow ignored its deadline: " << wall_ms << " ms elapsed against a "
            << options.deadline_ms << " ms deadline (+" << timing_slack_ms << " ms slack)";
        return fail(out.str());
    }

    // diagnostics are never empty: to_xag reports even on immediate cuts
    if (result.diagnostics.stages.empty())
    {
        return fail("flow recorded no stage diagnostics at all");
    }
    for (const auto& stage : result.diagnostics.stages)
    {
        if (stage.wall_us < 0)
        {
            return fail("stage '" + stage.stage + "' reports negative wall-clock time");
        }
    }

    // artifacts <-> stage-status consistency
    const auto* pd = result.diagnostics.find("physical_design");
    if (result.layout.has_value())
    {
        if (pd == nullptr)
        {
            return fail("a layout exists but no physical_design stage was recorded");
        }
        if (pd->status != core::StageStatus::completed && pd->status != core::StageStatus::degraded)
        {
            return fail(std::string{"a layout exists but physical_design reports '"} +
                        core::to_string(pd->status) + "'");
        }
        if (pd->status == core::StageStatus::degraded && result.engine_used != "scalable")
        {
            return fail("physical_design degraded but engine_used is '" + result.engine_used +
                        "' instead of 'scalable'");
        }
    }
    else if (pd != nullptr &&
             (pd->status == core::StageStatus::degraded || pd->status == core::StageStatus::completed))
    {
        return fail(std::string{"physical_design reports '"} + core::to_string(pd->status) +
                    "' without a layout");
    }
    if ((result.supertiles.has_value() || result.sidb.has_value()) && !result.layout.has_value())
    {
        return fail("derived artifacts exist without a gate-level layout");
    }
    if (result.equivalence == layout::EquivalenceResult::equivalent)
    {
        if (!result.layout.has_value())
        {
            return fail("equivalent verdict without a layout");
        }
        const auto* eq = result.diagnostics.find("equivalence");
        if (eq == nullptr || eq->status != core::StageStatus::completed)
        {
            return fail("equivalent verdict but the equivalence stage did not complete");
        }
    }

    // a cut run must name the stage that was cut
    if (result.diagnostics.interrupted() && cut == nullptr)
    {
        return fail("diagnostics report an interruption but first_cut() names no stage");
    }
    if (options.stop.stop_requested() && !result.diagnostics.all_completed() && cut == nullptr &&
        result.diagnostics.find("gate_validation") == nullptr)
    {
        return fail("stop was requested and the run is incomplete, yet no stage reports a cut");
    }

    // step (7b) bookkeeping: unevaluated tiles only under a cut/skipped stage
    bool any_unevaluated = false;
    for (const auto& v : result.gate_validation)
    {
        any_unevaluated = any_unevaluated || !v.evaluated;
    }
    if (any_unevaluated)
    {
        const auto* val = result.diagnostics.find("gate_validation");
        if (val == nullptr || val->status == core::StageStatus::completed)
        {
            return fail("unevaluated tiles exist but gate_validation claims completion");
        }
    }

    return {};
}

logic::LogicNetwork with_inverted_po(const logic::LogicNetwork& network, unsigned po_index)
{
    logic::LogicNetwork copy;
    std::vector<logic::LogicNetwork::NodeId> remap(network.size(),
                                                   logic::LogicNetwork::invalid_node);
    unsigned pos_seen = 0;
    for (const auto id : network.topological_order())
    {
        const auto& n = network.node(id);
        switch (n.type)
        {
            case logic::GateType::none: break;
            case logic::GateType::const0: remap[id] = copy.create_const(false); break;
            case logic::GateType::const1: remap[id] = copy.create_const(true); break;
            case logic::GateType::pi: remap[id] = copy.create_pi(n.name); break;
            case logic::GateType::po:
            {
                auto driver = remap[n.fanin[0]];
                if (pos_seen++ == po_index)
                {
                    driver = copy.create_not(driver);
                }
                remap[id] = copy.create_po(driver, n.name);
                break;
            }
            default:
            {
                std::vector<logic::LogicNetwork::NodeId> fanins;
                for (unsigned i = 0; i < logic::gate_arity(n.type); ++i)
                {
                    fanins.push_back(remap[n.fanin[i]]);
                }
                remap[id] = copy.create_gate(n.type, fanins);
                break;
            }
        }
    }
    return copy;
}

}  // namespace bestagon::testkit
