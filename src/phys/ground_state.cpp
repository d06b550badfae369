#include "phys/ground_state.hpp"

#include "phys/ground_state_exact.hpp"
#include "phys/simanneal.hpp"

namespace bestagon::phys
{

GroundStateResult find_ground_state(const SiDBSystem& system, const core::RunBudget& run)
{
    if (system.parameters().engine == Engine::simanneal)
    {
        return simulated_annealing(system, {}, run);
    }
    return exact_ground_state(system, run);
}

}  // namespace bestagon::phys
