/// \file gate_designer_demo.cpp
/// \brief Demonstrates the automatic gate designer (the stand-in for the
///        paper's RL agent [28]): starting from a bare two-input skeleton
///        with empty canvas, it searches canvas SiDB placements until the
///        tile implements OR, validated by exact ground-state checks.

#include "io/artifacts.hpp"
#include "io/sqd_writer.hpp"
#include "layout/bestagon_library.hpp"
#include "phys/gate_designer.hpp"

#include <cstdio>
#include <fstream>

using namespace bestagon;
using phys::SiDBSite;

int main(int argc, char** argv)
{
    const std::string out_dir = io::artifact_dir(argc > 1 ? argv[1] : "");
    // skeleton: the OR tile from the library with its canvas dots removed
    // (wires, port pairs, drivers and perturbers stay)
    const auto& lib = layout::BestagonLibrary::instance();
    const auto* reference = lib.lookup(logic::GateType::or2, layout::Port::nw, layout::Port::ne,
                                       layout::Port::se, std::nullopt);
    phys::GateDesign skeleton = reference->design;
    skeleton.sites.resize(skeleton.sites.size() - 1);  // drop the designed canvas dot

    // candidate canvas positions in the tile center
    std::vector<SiDBSite> candidates;
    for (int n = 24; n <= 38; ++n)
    {
        for (int m = 9; m <= 13; ++m)
        {
            candidates.push_back({n, m, 0});
            candidates.push_back({n, m, 1});
        }
    }

    phys::SimulationParameters params;  // mu = -0.32 eV (Fig. 5 parameters)
    phys::DesignerOptions options;
    options.min_canvas_dots = 1;
    options.max_canvas_dots = 4;
    options.max_iterations = 5000;

    std::printf("searching canvas placements for an OR tile (%zu candidates)...\n",
                candidates.size());
    const auto result = phys::design_gate(skeleton, candidates, options, params);
    if (!result.has_value())
    {
        std::printf("no design found within %u iterations — rerun with a larger budget\n",
                    options.max_iterations);
        return 1;
    }

    std::printf("found an operational OR design after %u iterations; canvas dots:\n",
                result->iterations_used);
    for (const auto& s : result->canvas)
    {
        std::printf("  (%d, %d, %d)\n", s.n, s.m, s.l);
    }

    const auto check = phys::check_operational(result->design, params, phys::Engine::exact);
    std::printf("operational check: %llu / %llu patterns correct\n",
                static_cast<unsigned long long>(check.patterns_correct),
                static_cast<unsigned long long>(check.patterns_total));

    std::ofstream sqd{io::artifact_path("designed_or.sqd", out_dir)};
    io::write_sqd(sqd, result->design);
    std::printf("wrote %s/designed_or.sqd for inspection in SiQAD\n", out_dir.c_str());
    return check.operational ? 0 : 1;
}
