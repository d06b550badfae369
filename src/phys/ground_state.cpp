#include "phys/ground_state.hpp"

#include "phys/ground_state_exact.hpp"

namespace bestagon::phys
{

GroundStateResult find_ground_state(const SiDBSystem& system, const core::RunBudget& run)
{
    return exact_ground_state(system, run);
}

}  // namespace bestagon::phys
