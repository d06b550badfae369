/// \file ground_state.hpp
/// \brief The one entry point of the ground-state engines.
///
/// `find_ground_state(system)` runs the engine the system's parameters
/// select (`SimulationParameters::engine`, Engine::exact by default), so the
/// whole simulation stack — check_operational, the operational-domain and
/// defect yield sweeps, the gate designer, flow validation — switches
/// engines through that single knob. The stochastic engine derives its seed
/// and thread count from the same parameters (anneal_seed, num_threads).

#pragma once

#include "core/run_control.hpp"
#include "phys/model.hpp"

namespace bestagon::phys
{

/// Runs the engine \p system.parameters().engine selects. simanneal takes
/// its seed from params.anneal_seed and its thread count from
/// params.num_threads; the exact engine is parameter-free beyond the
/// degeneracy window (params.energy_tolerance).
[[nodiscard]] GroundStateResult find_ground_state(const SiDBSystem& system,
                                                  const core::RunBudget& run = {});

}  // namespace bestagon::phys
