/// \file bench_charge_kernel.cpp
/// \brief Microbenchmarks of a pattern's system setup and check.
///
/// Two families:
///
///  1. Instantiate on the Bestagon 2-input OR tile: GateInstanceCache
///     building one pattern's SiDBSystem (O(n^2) screened-Coulomb terms, exp
///     per entry).
///
///  2. CheckOperationalEndToEnd: the production check_operational on the
///     same OR tile with the exact engine — the full 4-pattern
///     verification as used by the gate designer's scoring loop.
///
/// Results are recorded in BENCH_charge_kernel.json at the repository root.
/// CI runs this binary in smoke mode (--benchmark_min_time=0.05) to keep
/// every path exercised.

#include "layout/bestagon_library.hpp"
#include "phys/operational.hpp"

#include <benchmark/benchmark.h>

#include <cstdint>
#include <optional>

namespace
{

using namespace bestagon;
using namespace bestagon::phys;

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

void BM_Instantiate(benchmark::State& state)
{
    const auto& design = bestagon_or_design();
    const GateInstanceCache cache{design, SimulationParameters{}};
    std::uint64_t pattern = 0;
    for (auto _ : state)
    {
        const auto system = cache.instantiate(pattern & 3U);
        benchmark::DoNotOptimize(system.potential(0, 1));
        ++pattern;
    }
}

void BM_CheckOperationalEndToEnd(benchmark::State& state)
{
    const auto& design = bestagon_or_design();
    SimulationParameters params;
    params.num_threads = 1;  // isolate single-thread cost from the fan-out
    bool ok = false;
    for (auto _ : state)
    {
        const auto result = check_operational(design, params);
        ok = result.operational;
        benchmark::DoNotOptimize(result);
    }
    state.counters["operational"] = ok ? 1.0 : 0.0;
    state.counters["sites"] = static_cast<double>(design.instance_sites(0).size());
}

}  // namespace

BENCHMARK(BM_Instantiate)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_CheckOperationalEndToEnd)->Unit(benchmark::kMillisecond);
