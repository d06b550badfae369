#include "layout/apply_gate_library.hpp"

#include "phys/lattice.hpp"

#include <algorithm>
#include <stdexcept>

namespace bestagon::layout
{

phys::SiDBSite tile_origin(HexCoord c)
{
    const int col = c.x * tile_columns + ((c.y & 1) != 0 ? tile_columns / 2 : 0);
    const int row = c.y * tile_rows;
    return {col, row, 0};
}

double logical_area_nm2(const GateLevelLayout& layout)
{
    const double tile_w = tile_columns * phys::lattice_pitch_x;
    const double tile_h = tile_rows * phys::lattice_pitch_y;
    return layout.width() * tile_w * layout.height() * tile_h;
}

SiDBLayout apply_gate_library(const GateLevelLayout& layout, ApplyStats* stats)
{
    const auto& library = BestagonLibrary::instance();
    SiDBLayout result;

    const auto emit = [&](const GateImplementation& impl, HexCoord t) {
        const auto origin = tile_origin(t);
        for (const auto& s : impl.design.sites)
        {
            result.sites.push_back(s.translated(origin.n, origin.m));
        }
        if (stats != nullptr)
        {
            ++stats->tiles_mapped;
            if (!impl.simulation_validated)
            {
                ++stats->unvalidated_tiles;
            }
            auto& used = stats->implementations_used;
            if (std::find(used.begin(), used.end(), &impl) == used.end())
            {
                used.push_back(&impl);
            }
        }
    };

    for (const auto& t : layout.all_tiles())
    {
        const auto& occs = layout.occupants(t);
        if (occs.empty())
        {
            continue;
        }
        if (occs.size() == 2)
        {
            // two wires in one tile: crossing (NW->SE + NE->SW) uses the
            // dedicated crossing tile; parallel wires map independently
            const bool crossed =
                (occs[0].in_a == Port::nw && occs[0].out_a == Port::se) ||
                (occs[0].in_a == Port::ne && occs[0].out_a == Port::sw);
            if (crossed)
            {
                emit(library.crossing(), t);
                if (stats != nullptr)
                {
                    ++stats->crossings_mapped;
                }
                continue;
            }
        }
        for (const auto& occ : occs)
        {
            if (occ.type == logic::GateType::pi && !occ.out_a && !occ.out_b)
            {
                continue;  // a PI nothing reads has no wire to drive: no dots
            }
            const auto* impl = library.lookup(occ.type, occ.in_a, occ.in_b, occ.out_a, occ.out_b);
            if (impl == nullptr)
            {
                throw std::runtime_error{std::string{"apply_gate_library: no implementation for "} +
                                         logic::gate_type_name(occ.type) + " at tile (" +
                                         std::to_string(t.x) + "," + std::to_string(t.y) + ")"};
            }
            emit(*impl, t);
        }
    }
    return result;
}

}  // namespace bestagon::layout
