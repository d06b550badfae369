/// \file bench_sat.cpp
/// \brief SAT engine benchmarks (results: BENCH_sat.json).
///
/// Three workloads, mirroring DESIGN.md section 11:
///  1. SatRandom3SatArena/vars:n — one full solve of a seeded random 3-SAT
///     instance near the phase transition.
///  2. SatPigeonholeArena — PHP(8,7), the resolution-hard UNSAT workload
///     that stresses learnt-clause reduction and garbage collection.
///  3. ExactPhysicalDesignInternal — the full exact P&R flow on the mapped
///     mux21 benchmark at its default options: the production-shaped
///     instance mix (many small incremental solves on one persistent
///     solver).

#include "io/benchmarks.hpp"
#include "layout/exact_physical_design.hpp"
#include "logic/rewriting.hpp"
#include "logic/tech_mapping.hpp"
#include "sat/solver.hpp"

#include <benchmark/benchmark.h>

#include <cstdint>
#include <random>
#include <vector>

namespace
{

using namespace bestagon;

/// Seeded uniform 3-SAT at ratio 4.2 (clause literals may repeat variables,
/// matching the historical BM_SatRandom3Sat generator so numbers stay
/// comparable across PRs).
std::vector<std::vector<sat::Lit>> random_3sat(int num_vars)
{
    const int num_clauses = num_vars * 42 / 10;
    std::mt19937 rng{12345};
    std::vector<std::vector<sat::Lit>> clauses;
    clauses.reserve(static_cast<std::size_t>(num_clauses));
    for (int i = 0; i < num_clauses; ++i)
    {
        std::vector<sat::Lit> clause;
        for (int j = 0; j < 3; ++j)
        {
            const auto v = static_cast<sat::Var>(rng() % static_cast<unsigned>(num_vars));
            clause.push_back(sat::Lit{v, (rng() & 1U) != 0});
        }
        clauses.push_back(std::move(clause));
    }
    return clauses;
}

/// PHP(pigeons, holes): UNSAT and exponentially hard for resolution.
std::vector<std::vector<sat::Lit>> php(int pigeons, int holes)
{
    const auto var = [&](int p, int h) { return sat::Var{p * holes + h}; };
    std::vector<std::vector<sat::Lit>> clauses;
    for (int p = 0; p < pigeons; ++p)
    {
        std::vector<sat::Lit> somewhere;
        for (int h = 0; h < holes; ++h)
        {
            somewhere.push_back(sat::pos(var(p, h)));
        }
        clauses.push_back(std::move(somewhere));
    }
    for (int h = 0; h < holes; ++h)
    {
        for (int p = 0; p < pigeons; ++p)
        {
            for (int q = p + 1; q < pigeons; ++q)
            {
                clauses.push_back({sat::neg(var(p, h)), sat::neg(var(q, h))});
            }
        }
    }
    return clauses;
}

void load(sat::Solver& solver, int num_vars, const std::vector<std::vector<sat::Lit>>& clauses)
{
    for (int i = 0; i < num_vars; ++i)
    {
        solver.new_var();
    }
    for (const auto& clause : clauses)
    {
        solver.add_clause(clause);
    }
}

void solve_arena(benchmark::State& state, int num_vars,
                 const std::vector<std::vector<sat::Lit>>& clauses)
{
    std::uint64_t conflicts = 0;
    for (auto _ : state)
    {
        state.PauseTiming();
        sat::Solver solver;
        load(solver, num_vars, clauses);
        state.ResumeTiming();
        benchmark::DoNotOptimize(solver.solve());
        conflicts = solver.stats().conflicts;
    }
    state.counters["conflicts"] = static_cast<double>(conflicts);
}

void BM_SatRandom3SatArena(benchmark::State& state)
{
    const int n = static_cast<int>(state.range(0));
    solve_arena(state, n, random_3sat(n));
}
BENCHMARK(BM_SatRandom3SatArena)->Arg(40)->Arg(80)->Arg(120)->ArgName("vars");

void BM_SatPigeonholeArena(benchmark::State& state)
{
    solve_arena(state, 8 * 7, php(8, 7));
}
BENCHMARK(BM_SatPigeonholeArena)->Unit(benchmark::kMillisecond);

const logic::LogicNetwork& mapped_mux21()
{
    static const logic::LogicNetwork net = [] {
        logic::NpnDatabase db;
        return logic::map_to_bestagon(
            logic::rewrite(logic::to_xag(io::find_benchmark("mux21")->build()), db));
    }();
    return net;
}

void BM_ExactPhysicalDesignInternal(benchmark::State& state)
{
    const auto& net = mapped_mux21();
    bool placed = false;
    layout::ExactPDStats stats;
    for (auto _ : state)
    {
        stats = {};
        const auto result = layout::exact_physical_design(net, {}, &stats);
        placed = result.has_value();
        benchmark::DoNotOptimize(result);
    }
    state.counters["placed"] = placed ? 1.0 : 0.0;
    state.counters["conflicts"] = static_cast<double>(stats.total_conflicts);
}
BENCHMARK(BM_ExactPhysicalDesignInternal)->Unit(benchmark::kMillisecond);

}  // namespace
