/// \file fig4_supertile.cpp
/// \brief Reproduces Fig. 4: clock electrodes cannot match single-tile
///        dimensions at the 7 nm node (40 nm minimum metal pitch [54]), so
///        multiple standard tiles are grouped into super-tiles driven by one
///        electrode. Reports the feasible expansion factors and applies the
///        expansion to a real layout.

#include "core/design_flow.hpp"
#include "io/benchmarks.hpp"
#include "layout/supertile.hpp"

#include <cstdio>

using namespace bestagon;

int main()
{
    const layout::ElectrodeTechnology tech{};
    std::printf("Fig. 4: super-tiles under the minimum metal pitch constraint\n\n");
    std::printf("tile:            %.2f nm x %.2f nm (60 columns x 24 dimer rows)\n",
                tech.tile_width_nm, tech.tile_height_nm);
    std::printf("min metal pitch: %.1f nm (7 nm node [54])\n\n", tech.min_metal_pitch_nm);

    std::printf("%-18s %-18s %-10s\n", "expansion factor", "electrode pitch", "feasible");
    for (unsigned k = 1; k <= 5; ++k)
    {
        const double pitch = k * tech.tile_height_nm;
        std::printf("%-18u %10.2f nm     %s\n", k, pitch,
                    pitch >= tech.min_metal_pitch_nm ? "yes" : "NO (pitch violation)");
    }
    std::printf("\nminimum feasible expansion: %u tile rows per electrode\n\n",
                layout::minimum_expansion_factor(tech));

    // apply to the par_check layout (the paper's running example)
    const auto result = core::run_design_flow(io::find_benchmark("par_check")->build());
    if (!result.success())
    {
        std::printf("par_check flow failed\n");
        return 1;
    }
    const auto& st = *result.supertiles;
    std::printf("par_check layout: %u x %u tiles -> %u super-tile bands of %u rows\n",
                result.layout->width(), result.layout->height(), st.num_bands(),
                st.expansion_factor);
    std::printf("electrode pitch: %.2f nm (>= %.1f nm: %s)\n", st.electrode_pitch_nm(tech),
                tech.min_metal_pitch_nm, st.satisfies_pitch(tech) ? "ok" : "VIOLATION");
    std::printf("expanded clocking remains feed-forward: %s\n",
                st.clocking_valid() ? "yes" : "NO");
    std::printf("tiles per super-tile band: up to %u (width %u x %u rows)\n",
                result.layout->width() * st.expansion_factor, result.layout->width(),
                st.expansion_factor);
    return 0;
}
