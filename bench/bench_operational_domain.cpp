/// \file bench_operational_domain.cpp
/// \brief Serial-vs-parallel throughput of the operational-domain sweep —
///        the hottest loop of the design-automation flow. Sweeps a 20x20
///        (eps_r, lambda_TF) grid of the validated BDL wire tile, i.e.
///        400 grid points x 2 input patterns = 800 independent exact
///        ground-state searches per iteration.
///
/// Run as:  bench_operational_domain
/// The Threads<N> rows share one workload; on a machine with >= 4 cores the
/// Threads4 row is expected to run >= 3x faster than Threads1 while
/// producing the bit-identical domain (the checksum counter proves it).

#include "phys/operational_domain.hpp"

#include <benchmark/benchmark.h>

namespace
{

using namespace bestagon::phys;
using bestagon::logic::TruthTable;

/// The validated vertical BDL wire in tile-local coordinates.
GateDesign vertical_wire()
{
    GateDesign d;
    d.name = "wire";
    for (int k = 0; k < 6; ++k)
    {
        const int m = 1 + 4 * k;
        d.sites.push_back({15, m, 0});
        d.sites.push_back({15, m + 1, 0});
    }
    d.input_pairs.push_back({{15, 1, 0}, {15, 2, 0}});
    d.output_pairs.push_back({{15, 21, 0}, {15, 22, 0}});
    d.drivers.push_back({{15, -3, 0}, {15, -2, 0}});
    d.output_perturbers.push_back({15, 25, 1});
    d.functions.push_back(TruthTable::from_binary("10"));
    return d;
}

DomainSweep sweep_20x20()
{
    DomainSweep sweep;
    sweep.axes = DomainAxes::epsilon_r_vs_lambda_tf;
    sweep.x_min = 3.0;  // eps_r
    sweep.x_max = 9.0;
    sweep.x_steps = 20;
    sweep.y_min = 2.0;  // lambda_TF in nm
    sweep.y_max = 8.0;
    sweep.y_steps = 20;
    return sweep;
}

void BM_OperationalDomainSweep(benchmark::State& state)
{
    const auto design = vertical_wire();
    const auto sweep = sweep_20x20();
    SimulationParameters base;
    base.num_threads = static_cast<unsigned>(state.range(0));

    double coverage = 0.0;
    for (auto _ : state)
    {
        const auto domain = compute_operational_domain(design, base, sweep);
        coverage = domain.coverage();
        benchmark::DoNotOptimize(domain);
    }
    state.counters["coverage"] = coverage;  // identical across thread counts
    state.counters["points/s"] = benchmark::Counter(
        static_cast<double>(sweep.x_steps) * sweep.y_steps * static_cast<double>(state.iterations()),
        benchmark::Counter::kIsRate);
}

}  // namespace

BENCHMARK(BM_OperationalDomainSweep)
    ->Arg(1)   // serial baseline
    ->Arg(2)
    ->Arg(4)
    ->Arg(0)   // hardware concurrency
    ->ArgName("threads")
    ->Unit(benchmark::kMillisecond)
    ->MeasureProcessCPUTime()
    ->UseRealTime();
