/// \file design_gates.cpp
/// \brief Offline gate-design runner — the tool that produced the canvas
///        coordinates frozen in src/layout/bestagon_library.cpp.
///
/// Usage: design_gates <gate> [seed] [iterations] [restarts] [threads]
///   gate in {or, and, nor, nand, xor, xnor, inv, inv_diag, fanout, ha}
///   restarts: independent search restarts (default 1; restart 0 reproduces
///             the single-restart trajectory bit-for-bit)
///   threads:  0 = hardware concurrency (default), 1 = serial
///
/// Ctrl-C stops the search cooperatively at the next poll point; a second
/// Ctrl-C hard-exits.
///
/// For each gate it takes the standard-tile skeleton (port pairs, wires,
/// drivers, output perturbers, target function) from the library's skeleton
/// builders in layout/bestagon_library.hpp, then runs the stochastic
/// canvas search (the stand-in for the paper's RL agent [28]) until the
/// design passes the exact operational check at the library calibration
/// point (mu = -0.32 eV, eps_r = 5.6, lambda_TF = 5 nm). Successful canvases
/// are printed in a form that can be pasted into the library source.
///
/// Gates whose non-inverting version is already in the library (nor, nand,
/// xnor) keep that canvas in the skeleton and search only for the
/// polarization-flipping dots near the output chain — the mechanism the
/// designer discovered for the straight inverter.

#include "core/run_control.hpp"
#include "layout/bestagon_library.hpp"
#include "phys/gate_designer.hpp"

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

using namespace bestagon;
using phys::GateDesign;
using phys::SiDBSite;

namespace
{

std::vector<SiDBSite> grid(int n0, int n1, int m0, int m1)
{
    std::vector<SiDBSite> cells;
    for (int n = n0; n <= n1; ++n)
    {
        for (int m = m0; m <= m1; ++m)
        {
            cells.push_back({n, m, 0});
            cells.push_back({n, m, 1});
        }
    }
    return cells;
}

}  // namespace

int main(int argc, char** argv)
{
    if (argc < 2)
    {
        std::printf("usage: design_gates <or|and|nor|nand|xor|xnor|inv|inv_diag|fanout|ha> "
                    "[seed] [iterations] [restarts] [threads]\n");
        return 2;
    }
    const std::string gate = argv[1];
    const unsigned seed = argc > 2 ? static_cast<unsigned>(std::atoi(argv[2])) : 1;
    const unsigned iterations = argc > 3 ? static_cast<unsigned>(std::atoi(argv[3])) : 20000;
    const unsigned restarts = argc > 4 ? static_cast<unsigned>(std::atoi(argv[4])) : 1;
    const unsigned threads = argc > 5 ? static_cast<unsigned>(std::atoi(argv[5])) : 0;

    phys::SimulationParameters params;  // library calibration point
    params.num_threads = threads;
    GateDesign d;
    d.name = gate;
    std::vector<SiDBSite> candidates;
    phys::DesignerOptions options;
    options.seed = 0xbe57a60 + seed;
    options.max_iterations = iterations;
    options.min_canvas_dots = 1;
    options.max_canvas_dots = 6;
    options.num_restarts = restarts;
    options.run.token = core::install_sigint_stop();

    if (gate == "or" || gate == "and" || gate == "xor")
    {
        d = layout::two_input_skeleton(gate, gate == "or" ? "1110" : gate == "and" ? "1000" : "0110");
        candidates = grid(20, 40, 9, 14);
        options.max_canvas_dots = gate == "xor" ? 8 : 6;
    }
    else if (gate == "nor" || gate == "nand" || gate == "xnor")
    {
        // keep the validated non-inverting canvas; search for the
        // polarization-flipping dots near the output chain
        d = layout::two_input_skeleton(gate, gate == "nor" ? "0001" : gate == "nand" ? "0111" : "1001");
        if (gate == "nor")
        {
            d.sites.push_back({34, 9, 0});  // the OR canvas
        }
        else if (gate == "nand")
        {
            d.sites.push_back({29, 10, 0});  // the AND canvas
        }
        else
        {
            options.max_canvas_dots = 8;
        }
        candidates = grid(28, 44, 13, 20);
        options.min_canvas_dots = 2;
    }
    else if (gate == "inv")
    {
        d = layout::inverter_skeleton();
        candidates = grid(6, 28, 7, 16);
        options.min_canvas_dots = 2;
        options.max_canvas_dots = 7;
    }
    else if (gate == "inv_diag")
    {
        d = layout::diagonal_inverter_skeleton();
        candidates = grid(12, 40, 7, 16);
        options.min_canvas_dots = 2;
        options.max_canvas_dots = 8;
    }
    else if (gate == "fanout")
    {
        d = layout::fanout_skeleton();
        candidates = grid(20, 40, 8, 14);
    }
    else if (gate == "ha")
    {
        layout::add_input_nw(d);
        layout::add_input_ne(d);
        layout::add_output_sw(d);
        layout::add_output_se(d);
        d.functions.push_back(logic::TruthTable::from_binary("0110"));  // sum -> SW
        d.functions.push_back(logic::TruthTable::from_binary("1000"));  // carry -> SE
        candidates = grid(20, 40, 9, 14);
        options.min_canvas_dots = 2;
        options.max_canvas_dots = 8;
    }
    else
    {
        std::printf("unknown gate '%s'\n", gate.c_str());
        return 2;
    }

    std::printf("designing '%s' (seed %u, %u iterations, %u restart(s), %zu candidates)...\n",
                gate.c_str(), seed, iterations, restarts, candidates.size());
    const auto result = phys::design_gate(d, candidates, options, params);
    if (!result.has_value())
    {
        if (core::sigint_received())
        {
            std::printf("GATE %s seed=%u INTERRUPTED (no design found before the stop)\n",
                        gate.c_str(), seed);
            return 130;
        }
        std::printf("GATE %s seed=%u FAILED after %u iterations x %u restarts\n", gate.c_str(),
                    seed, iterations, restarts);
        return 1;
    }
    std::printf("GATE %s seed=%u OK after %u iterations (restart %u); canvas:", gate.c_str(),
                seed, result->iterations_used, result->restart_used);
    for (const auto& s : result->canvas)
    {
        std::printf(" {%d, %d, %d},", s.n, s.m, s.l);
    }
    std::printf("\n");
    return 0;
}
