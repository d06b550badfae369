/// \file ground_state.hpp
/// \brief The common engine-selection surface of the ground-state engines.
///
/// Both engines share one entry point: `find_ground_state(system, engine)`.
/// Engine::automatic (the default everywhere) defers to
/// `SimulationParameters::engine`, so the whole simulation stack —
/// check_operational, the operational-domain sweep, the gate designer,
/// flow validation — switches engines through a single parameter knob.
/// The stochastic engine derives its seed and thread count from the system's
/// parameters (anneal_seed, num_threads).

#pragma once

#include "core/run_control.hpp"
#include "phys/model.hpp"

namespace bestagon::phys
{

/// Resolves Engine::automatic against \p params.engine. A params.engine that
/// is itself `automatic` (a caller never set it) falls back to the stack
/// default, Engine::exact; any other value passes through unchanged.
[[nodiscard]] Engine resolve_engine(Engine engine, const SimulationParameters& params);

/// True for the heuristic, seed-dependent engine (simanneal) — the one a
/// validation loop may retry with a rotated seed. Resolve `automatic` first.
[[nodiscard]] bool stochastic_engine(Engine engine);

/// Runs the selected ground-state engine on \p system. simanneal takes its
/// seed from params.anneal_seed and its thread count from
/// params.num_threads; the exact engine is parameter-free beyond the
/// degeneracy window (params.energy_tolerance).
[[nodiscard]] GroundStateResult find_ground_state(const SiDBSystem& system,
                                                  Engine engine = Engine::automatic,
                                                  const core::RunBudget& run = {});

}  // namespace bestagon::phys
