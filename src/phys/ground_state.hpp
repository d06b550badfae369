/// \file ground_state.hpp
/// \brief The one entry point of the ground-state search.
///
/// `find_ground_state(system)` runs the population-bounded exact engine
/// (ground_state_exact.hpp) — the search behind the whole simulation stack:
/// check_operational, the operational-domain and defect yield sweeps, the
/// gate designer and flow validation.

#pragma once

#include "core/run_control.hpp"
#include "phys/model.hpp"

namespace bestagon::phys
{

/// Runs the exact engine on \p system under \p run; the engine is
/// parameter-free beyond the degeneracy window (params.energy_tolerance).
[[nodiscard]] GroundStateResult find_ground_state(const SiDBSystem& system,
                                                  const core::RunBudget& run = {});

}  // namespace bestagon::phys
