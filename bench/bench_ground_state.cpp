/// \file bench_ground_state.cpp
/// \brief Ground-state engine benchmarks (results: BENCH_ground_state.json).
///
/// Two questions, mirroring DESIGN.md section 10:
///  1. GroundStateExact/sites:n — single exact ground-state call on dense
///     synthetic canvases, with its search nodes (`nodes`, deterministic).
///     The population window keeps the search tractable up to sites:40.
///  2. CheckOperationalDefaultExact — the production check_operational on
///     the Bestagon 2-input OR tile. The `operational` counter records the
///     verdict.

#include "layout/bestagon_library.hpp"
#include "phys/ground_state.hpp"
#include "phys/ground_state_exact.hpp"
#include "phys/operational.hpp"

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <optional>
#include <random>
#include <vector>

namespace
{

using namespace bestagon::phys;
namespace layout = bestagon::layout;
namespace logic = bestagon::logic;

/// Dense random canvas in a box scaling with sqrt(n), as in the engine
/// tests — the fixed salt keeps every run on the same canvas per size.
std::vector<SiDBSite> synthetic_canvas(std::size_t n)
{
    std::mt19937_64 rng{0xca11'ab1eULL + 4};
    const int cols = static_cast<int>(8 * std::sqrt(static_cast<double>(n)));
    const int rows = static_cast<int>(4 * std::sqrt(static_cast<double>(n)));
    std::vector<SiDBSite> sites;
    while (sites.size() < n)
    {
        const SiDBSite s{static_cast<int>(rng() % static_cast<unsigned>(cols)),
                         static_cast<int>(rng() % static_cast<unsigned>(rows)),
                         static_cast<int>(rng() % 2)};
        if (std::find(sites.begin(), sites.end(), s) == sites.end())
        {
            sites.push_back(s);
        }
    }
    return sites;
}

const GateDesign& bestagon_or_design()
{
    static const GateDesign design = [] {
        const auto& lib = layout::BestagonLibrary::instance();
        const auto* gate = lib.lookup(logic::GateType::or2, layout::Port::nw, layout::Port::ne,
                                      layout::Port::se, std::nullopt);
        return gate->design;
    }();
    return design;
}

void BM_GroundStateExact(benchmark::State& state)
{
    const SiDBSystem system{synthetic_canvas(static_cast<std::size_t>(state.range(0))),
                            SimulationParameters{}};
    std::uint64_t degeneracy = 0;
    std::uint64_t nodes = 0;
    for (auto _ : state)
    {
        const auto gs = exact_ground_state(system);
        degeneracy = gs.degeneracy;
        nodes = gs.nodes;
        benchmark::DoNotOptimize(gs);
    }
    state.counters["degeneracy"] = static_cast<double>(degeneracy);
    state.counters["nodes"] = static_cast<double>(nodes);
}

void BM_CheckOperationalDefaultExact(benchmark::State& state)
{
    const auto& design = bestagon_or_design();
    SimulationParameters params;
    params.num_threads = 1;
    bool ok = false;
    for (auto _ : state)
    {
        const auto result = check_operational(design, params);
        ok = result.operational;
        benchmark::DoNotOptimize(result);
    }
    state.counters["operational"] = ok ? 1.0 : 0.0;
}

}  // namespace

BENCHMARK(BM_GroundStateExact)->Arg(12)->Arg(20)->Arg(28)->Arg(40)->ArgName("sites")
    ->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_CheckOperationalDefaultExact)->Unit(benchmark::kMillisecond);
