/// \file fig1_or_gate.cpp
/// \brief Reproduces Fig. 1c: ground-state simulation of the Y-shaped BDL OR
///        gate (eps_r = 5.6, lambda_TF = 5 nm). The paper demonstrates the
///        OR gate of Huff et al. at mu = -0.28 eV; our automatically designed
///        Bestagon OR tile is calibrated at the library's Fig. 5 parameter
///        point (mu = -0.32 eV). Both points are simulated and reported.

#include "io/render.hpp"
#include "layout/bestagon_library.hpp"
#include "phys/operational.hpp"

#include <cstdio>

using namespace bestagon;

namespace
{

bool run_point(const phys::GateDesign& design, double mu, bool print_config)
{
    phys::SimulationParameters params;
    params.mu_minus = mu;
    params.epsilon_r = 5.6;
    params.lambda_tf = 5.0;

    std::printf("mu = %.2f eV:\n", mu);
    std::printf("  %-8s %-8s %-10s %-14s %-12s %s\n", "input A", "input B", "output", "F [eV]",
                "degeneracy", "verdict");
    bool all_ok = true;
    for (std::uint64_t pattern = 0; pattern < 4; ++pattern)
    {
        const auto r = phys::simulate_gate_pattern(design, pattern, params);
        const char* out = r.output_states[0] == phys::PairState::one    ? "1"
                          : r.output_states[0] == phys::PairState::zero ? "0"
                                                                        : "undefined";
        std::printf("  %-8d %-8d %-10s %-14.5f %-12llu %s\n", static_cast<int>(pattern & 1),
                    static_cast<int>((pattern >> 1) & 1), out, r.ground_state.grand_potential,
                    static_cast<unsigned long long>(r.ground_state.degeneracy),
                    r.correct ? "as expected (OR)" : "mismatch");
        all_ok = all_ok && r.correct;
    }
    std::printf("  => operational: %s\n\n", all_ok ? "YES" : "no");

    if (print_config && all_ok)
    {
        const auto detail = phys::simulate_gate_pattern(design, 1, params);
        std::printf("charge configuration for A=1, B=0 (DB- = negatively charged, cf. Fig. 1c):\n%s\n",
                    io::render_charges(detail.sites, detail.ground_state.config).c_str());
    }
    return all_ok;
}

}  // namespace

int main()
{
    const auto& lib = layout::BestagonLibrary::instance();
    const auto* or_gate = lib.lookup(logic::GateType::or2, layout::Port::nw, layout::Port::ne,
                                     layout::Port::se, std::nullopt);
    if (or_gate == nullptr)
    {
        std::printf("OR gate missing from the library\n");
        return 1;
    }

    std::printf("Fig. 1c: BDL OR gate, exact ground states (eps_r=5.6, lambda_TF=5 nm)\n\n");

    const bool at_028 = run_point(or_gate->design, -0.28, false);
    const bool at_032 = run_point(or_gate->design, -0.32, true);

    std::printf("summary: operational at mu=-0.28: %s; at mu=-0.32 (library calibration): %s\n",
                at_028 ? "yes" : "no", at_032 ? "yes" : "no");
    std::printf("The paper validates Huff et al.'s hand-built OR at -0.28 eV and the Bestagon\n"
                "library at -0.32 eV (Fig. 5); our automatically designed tile reproduces the\n"
                "latter calibration point (see DESIGN.md on the gate-designer substitution).\n");
    return at_032 ? 0 : 1;
}
