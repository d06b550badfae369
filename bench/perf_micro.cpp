/// \file perf_micro.cpp
/// \brief google-benchmark micro-benchmarks of the computational substrates:
///        CDCL solving, exact ground states, NPN canonization, cut
///        enumeration, cut rewriting and exact physical design.

#include "io/benchmarks.hpp"
#include "layout/bestagon_library.hpp"
#include "layout/exact_physical_design.hpp"
#include "logic/cuts.hpp"
#include "logic/npn.hpp"
#include "logic/rewriting.hpp"
#include "logic/tech_mapping.hpp"
#include "phys/ground_state_exact.hpp"
#include "sat/solver.hpp"

#include <benchmark/benchmark.h>

#include <random>

using namespace bestagon;

namespace
{

void BM_SatRandom3Sat(benchmark::State& state)
{
    const int n = static_cast<int>(state.range(0));
    const int m = static_cast<int>(n * 42 / 10);  // near the phase transition
    for (auto _ : state)
    {
        state.PauseTiming();
        std::mt19937 rng{12345};
        sat::Solver solver;
        for (int i = 0; i < n; ++i)
        {
            solver.new_var();
        }
        for (int i = 0; i < m; ++i)
        {
            std::vector<sat::Lit> clause;
            for (int j = 0; j < 3; ++j)
            {
                const auto v = static_cast<sat::Var>(rng() % n);
                clause.push_back(sat::Lit{v, (rng() & 1U) != 0});
            }
            solver.add_clause(clause);
        }
        state.ResumeTiming();
        benchmark::DoNotOptimize(solver.solve());
    }
}
BENCHMARK(BM_SatRandom3Sat)->Arg(40)->Arg(80)->Arg(120);

void BM_NpnCanonization(benchmark::State& state)
{
    std::mt19937 rng{7};
    logic::TruthTable f{4};
    for (std::uint64_t t = 0; t < 16; ++t)
    {
        f.set_bit(t, (rng() & 1U) != 0);
    }
    for (auto _ : state)
    {
        benchmark::DoNotOptimize(logic::canonize_npn(f));
    }
}
BENCHMARK(BM_NpnCanonization);

void BM_ExactGroundState(benchmark::State& state)
{
    const auto& lib = layout::BestagonLibrary::instance();
    const auto* wire = lib.lookup(logic::GateType::buf, layout::Port::nw, std::nullopt,
                                  layout::Port::sw, std::nullopt);
    const auto sites = wire->design.instance_sites(1);
    phys::SimulationParameters params;
    const phys::SiDBSystem system{sites, params};
    for (auto _ : state)
    {
        benchmark::DoNotOptimize(phys::exact_ground_state(system));
    }
}
BENCHMARK(BM_ExactGroundState);

void BM_RewriteBenchmark(benchmark::State& state)
{
    const auto net = logic::to_xag(io::find_benchmark("xor5_majority")->build());
    logic::RewriteStats stats;
    for (auto _ : state)
    {
        logic::NpnDatabase db;
        benchmark::DoNotOptimize(logic::rewrite(net, db, &stats));
    }
    // deterministic work, the same in every iteration
    state.counters["replacements"] = static_cast<double>(stats.replacements);
    state.counters["gates_after"] = static_cast<double>(stats.gates_after);
}
BENCHMARK(BM_RewriteBenchmark);

void BM_CutEnumeration(benchmark::State& state)
{
    const auto net = logic::strash(logic::to_xag(io::find_benchmark("xor5_majority")->build()));
    std::size_t cuts = 0;
    for (auto _ : state)
    {
        const logic::CutEnumeration enumeration{net};
        cuts = 0;
        for (const auto id : net.topological_order())
        {
            cuts += enumeration.cuts_of(id).size();
        }
        benchmark::DoNotOptimize(cuts);
    }
    // deterministic work, the same in every iteration
    state.counters["cuts"] = static_cast<double>(cuts);
}
BENCHMARK(BM_CutEnumeration);

void BM_ExactPhysicalDesign(benchmark::State& state)
{
    logic::NpnDatabase db;
    const auto mapped =
        logic::map_to_bestagon(logic::rewrite(logic::to_xag(io::find_benchmark("mux21")->build()), db));
    for (auto _ : state)
    {
        benchmark::DoNotOptimize(layout::exact_physical_design(mapped));
    }
}
BENCHMARK(BM_ExactPhysicalDesign);

}  // namespace
