/// \file fig5_gate_sims.cpp
/// \brief Reproduces Fig. 5: ground-state simulation of the Bestagon tiles
///        at mu = -0.32 eV, eps_r = 5.6, lambda_TF = 5 nm. For every library
///        design, every input pattern is simulated with the exact
///        ground-state engine and the truth table is compared against the
///        intended function. (The paper signs off with SimAnneal; at its
///        default parameters it reaches the exact ground state on all 80
///        patterns, pinned by the WorkCounters.SignoffTiles test.)

#include "layout/bestagon_library.hpp"
#include "phys/operational.hpp"

#include <cstdio>

using namespace bestagon;

int main()
{
    phys::SimulationParameters params;  // defaults = the Fig. 5 parameter point
    const auto& lib = layout::BestagonLibrary::instance();

    std::printf("Fig. 5: Bestagon tile simulations at mu=-0.32 eV, eps_r=5.6, lambda_TF=5 nm\n\n");
    std::printf("%-12s %-10s %-18s %-10s %s\n", "tile", "ports", "patterns correct", "operational",
                "designer-validated");

    unsigned operational = 0;
    unsigned total = 0;
    const auto report = [&](const layout::GateImplementation& g) {
        const auto r = phys::check_operational(g.design, params);
        std::string ports;
        for (const auto p : {g.in_a, g.in_b})
        {
            if (p.has_value())
            {
                ports += layout::port_name(*p);
                ports += " ";
            }
        }
        ports += "->";
        for (const auto p : {g.out_a, g.out_b})
        {
            if (p.has_value())
            {
                ports += " ";
                ports += layout::port_name(*p);
            }
        }
        std::printf("%-12s %-10s %8llu / %-8llu %-10s %s\n", g.design.name.c_str(), ports.c_str(),
                    static_cast<unsigned long long>(r.patterns_correct),
                    static_cast<unsigned long long>(r.patterns_total),
                    r.operational ? "YES" : "no", g.simulation_validated ? "yes" : "-");
        ++total;
        if (r.operational)
        {
            ++operational;
        }
    };

    for (const auto& g : lib.all())
    {
        report(g);
    }
    report(lib.crossing());

    std::printf("\n%u / %u tiles fully operational under the calibrated model.\n", operational,
                total);
    std::printf("Wires, fan-in gates OR/AND and the I/O tiles replicate the paper's validated\n"
                "set; designs marked '-' are our own canvas candidates whose operational\n"
                "status is reported honestly above (see DESIGN.md on the RL-agent substitution).\n");
    return 0;
}
