/// \file simanneal.hpp
/// \brief Simulated-annealing ground-state finder — the reproduction of
///        SiQAD's *SimAnneal* engine [30] used throughout the paper's
///        gate validations (Figs. 1c and 5).

#pragma once

#include "core/run_control.hpp"
#include "phys/model.hpp"

namespace bestagon::phys
{

/// Annealing schedule and effort parameters.
struct SimAnnealParameters
{
    unsigned num_instances{16};      ///< independent annealing runs
    unsigned steps_per_instance{4000};
    double initial_temperature{0.5};  ///< in eV (kT units of the acceptance rule)
    double cooling_rate{0.997};       ///< geometric cooling factor per step
};

/// Runs simulated annealing on the grand potential F with single-flip and
/// electron-hop moves, followed by a greedy quench of each instance. The
/// seed and the worker threads across the independent instances come from
/// the system's parameters (anneal_seed, num_threads): every instance draws
/// from its own RNG stream seeded by core::derive_seed(anneal_seed,
/// instance), so the result is bit-identical for any thread count. An
/// invalid hop proposal (neutral source, occupied or equal target) counts as
/// a rejected move — it does NOT fall through to a flip, which would bias
/// the move mix. Returns the best physically valid configuration found
/// (complete = false); `degeneracy` is the number of *distinct* tying
/// configurations across the instances — a lower bound on the true
/// degeneracy, never an exact count. With num_instances == 0 the result is
/// well-defined and empty: no config, grand_potential = +inf,
/// electrostatic = 0.
///
/// A limited \p run budget is polled between instances and every 64 steps
/// within an instance; on stop, running instances are quenched (so every
/// contributed configuration stays physically valid), remaining instances
/// are skipped, and the result carries cancelled = true. With an unlimited
/// budget the result is bit-identical to the unbudgeted call.
[[nodiscard]] GroundStateResult simulated_annealing(const SiDBSystem& system,
                                                    const SimAnnealParameters& params = {},
                                                    const core::RunBudget& run = {});

}  // namespace bestagon::phys
