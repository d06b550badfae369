#include "phys/ground_state.hpp"

#include "phys/ground_state_exact.hpp"
#include "phys/simanneal.hpp"

namespace bestagon::phys
{

Engine resolve_engine(Engine engine, const SimulationParameters& params)
{
    if (engine != Engine::automatic)
    {
        return engine;
    }
    return params.engine == Engine::automatic ? Engine::exact : params.engine;
}

bool stochastic_engine(Engine engine)
{
    return engine == Engine::simanneal;
}

GroundStateResult find_ground_state(const SiDBSystem& system, Engine engine,
                                    const core::RunBudget& run)
{
    const SimulationParameters& params = system.parameters();
    switch (resolve_engine(engine, params))
    {
        case Engine::simanneal:
        {
            SimAnnealParameters annealing;
            annealing.num_threads = params.num_threads;  // 1 stays fully serial
            annealing.seed = params.anneal_seed;
            return simulated_annealing(system, annealing, run);
        }
        case Engine::automatic:  // resolve_engine never returns automatic
        case Engine::exact:
        default:
        {
            return exact_ground_state(system, run);
        }
    }
}

}  // namespace bestagon::phys
