/// \file physical_simulation.cpp
/// \brief Shows the physical simulation substrate directly: a BDL wire is
///        driven by near/far input perturbers (the paper's refined input
///        methodology) and the ground-state charge configurations are
///        printed for both logic states — the textual analogue of Fig. 1c.

#include "io/render.hpp"
#include "layout/bestagon_library.hpp"
#include "phys/operational.hpp"

#include <cstdio>

using namespace bestagon;

int main()
{
    const auto& lib = layout::BestagonLibrary::instance();
    const auto* wire = lib.lookup(logic::GateType::buf, layout::Port::nw, std::nullopt,
                                  layout::Port::sw, std::nullopt);

    phys::SimulationParameters params;
    params.mu_minus = -0.28;  // the Fig. 1c parameter point

    std::printf("BDL wire, %zu SiDBs, mu=-0.28 eV, eps_r=%.1f, lambda_TF=%.1f nm\n\n",
                wire->design.sites.size(), params.epsilon_r, params.lambda_tf);

    bool all_correct = true;
    for (std::uint64_t pattern = 0; pattern < 2; ++pattern)
    {
        const auto exact = phys::simulate_gate_pattern(wire->design, pattern, params);
        all_correct = all_correct && exact.correct;
        std::printf("input %llu (perturber %s):\n", static_cast<unsigned long long>(pattern),
                    pattern == 1 ? "near" : "far");
        std::printf("  exact ground state: F = %.5f eV (degeneracy %llu)\n",
                    exact.ground_state.grand_potential,
                    static_cast<unsigned long long>(exact.ground_state.degeneracy));
        std::printf("  output reads %s\n\n", exact.output_states[0] == phys::PairState::one ? "1"
                                             : exact.output_states[0] == phys::PairState::zero
                                                 ? "0"
                                                 : "undefined");
        std::printf("%s\n", io::render_charges(exact.sites, exact.ground_state.config).c_str());
    }
    std::printf("%s\n", all_correct ? "both input states read out correctly"
                                    : "MISREAD: the wire did not transmit both input states");
    return all_correct ? 0 : 1;
}
