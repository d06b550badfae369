/// \file fig6_par_check.cpp
/// \brief Reproduces Fig. 6: the synthesized par_check layout on hexagonal
///        Bestagon tiles — rendered tile view, formal verification verdict,
///        and the dot-accurate SiDB statistics. Also writes fig6_par_check.svg
///        and fig6_par_check.sqd into the artifact directory (first CLI
///        argument, BESTAGON_ARTIFACT_DIR, or ./artifacts).

#include "core/design_flow.hpp"
#include "io/artifacts.hpp"
#include "io/benchmarks.hpp"
#include "io/render.hpp"
#include "io/sqd_writer.hpp"
#include "io/svg_writer.hpp"

#include <cstdio>
#include <fstream>

using namespace bestagon;

int main(int argc, char** argv)
{
    const std::string out_dir = io::artifact_dir(argc > 1 ? argv[1] : "");
    const auto* bm = io::find_benchmark("par_check");
    const auto result = core::run_design_flow(bm->build());
    if (!result.success())
    {
        std::printf("par_check flow failed\n");
        return 1;
    }

    std::printf("Fig. 6: synthesized par_check layout (information flows top to bottom,\n"
                "row-based Columnar clocking: tile (x, y) is driven by clock zone y mod 4)\n\n");
    std::printf("%s\n", io::render_layout(*result.layout).c_str());

    std::printf("gate tiles:        %zu\n", result.layout->num_gate_tiles());
    std::printf("wire segments:     %zu\n", result.layout->num_wire_segments());
    std::printf("crossing tiles:    %zu\n", result.layout->num_crossing_tiles());
    std::printf("SiDBs:             %zu\n", result.sidb->num_sidbs());
    std::printf("logical area:      %.2f nm^2 (paper: %.2f nm^2 at 4x7)\n",
                layout::logical_area_nm2(*result.layout), bm->paper.area_nm2);
    std::printf("formal verification: %s\n",
                result.equivalence == layout::EquivalenceResult::equivalent
                    ? "layout == specification (SAT, UNSAT miter)"
                    : "FAILED");
    std::printf("design rules:      %s\n", result.drc.clean() ? "clean" : "violations!");

    std::ofstream svg{io::artifact_path("fig6_par_check.svg", out_dir)};
    io::write_svg(svg, *result.layout);
    std::ofstream sqd{io::artifact_path("fig6_par_check.sqd", out_dir)};
    io::write_sqd(sqd, *result.sidb, "par_check");
    std::printf("\nwrote %s/fig6_par_check.svg (tile view) and fig6_par_check.sqd (SiQAD file)\n",
                out_dir.c_str());
    return 0;
}
