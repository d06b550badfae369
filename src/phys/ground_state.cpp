#include "phys/ground_state.hpp"

#include "phys/ground_state_exact.hpp"
#include "phys/simanneal.hpp"

namespace bestagon::phys
{

GroundStateResult find_ground_state(const SiDBSystem& system, const core::RunBudget& run)
{
    const SimulationParameters& params = system.parameters();
    if (params.engine == Engine::simanneal)
    {
        SimAnnealParameters annealing;
        annealing.num_threads = params.num_threads;  // 1 stays fully serial
        annealing.seed = params.anneal_seed;
        return simulated_annealing(system, annealing, run);
    }
    return exact_ground_state(system, run);
}

}  // namespace bestagon::phys
