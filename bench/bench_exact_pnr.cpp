/// \file bench_exact_pnr.cpp
/// \brief Exact P&R wall time and SAT work (results: BENCH_exact_pnr.json).
///
/// Every row also reports `conflicts`, the deterministic SAT work of one
/// iteration:
///
///  1. BM_ExactPnrLadder/<name> — one exact_physical_design call on a single
///     mapped benchmark: the aspect-ratio ladder, one fresh encoding and
///     solver per size. Mapping runs outside the timed region.
///  2. BM_Table1ExactPnr — the whole Table-1 suite's exact P&R in one
///     iteration (the paper-scale wall-clock number the ROADMAP tracks);
///     every produced layout is consumed so the work cannot be optimized
///     away.

#include "io/benchmarks.hpp"
#include "layout/exact_physical_design.hpp"
#include "logic/rewriting.hpp"
#include "logic/tech_mapping.hpp"

#include <benchmark/benchmark.h>

#include <cstdint>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

namespace
{

using namespace bestagon;

const logic::LogicNetwork& mapped(const std::string& name)
{
    static std::map<std::string, logic::LogicNetwork> cache;
    const auto it = cache.find(name);
    if (it != cache.end())
    {
        return it->second;
    }
    const auto* bm = io::find_benchmark(name);
    if (bm == nullptr)
    {
        throw std::runtime_error{"unknown benchmark: " + name};
    }
    logic::NpnDatabase db;
    return cache
        .emplace(name, logic::map_to_bestagon(logic::rewrite(logic::to_xag(bm->build()), db)))
        .first->second;
}

void BM_ExactPnrLadder(benchmark::State& state, const std::string& name)
{
    const auto& net = mapped(name);
    // NOTE: deliberately no DoNotOptimize here — the engine is an opaque
    // external call (cannot be elided), and routing a later-branched-on value
    // through DoNotOptimize trips a GCC multi-alternative-asm-constraint bug
    // in google benchmark's "+m,r" operand (the store feeding the asm is
    // dropped, so the post-loop read sees stack garbage).
    unsigned long failures = 0;
    layout::ExactPDStats stats;
    for (auto _ : state)
    {
        stats = {};
        const auto result = layout::exact_physical_design(net, {}, &stats);
        if (!result.has_value())
        {
            ++failures;
        }
    }
    if (failures != 0)
    {
        state.SkipWithError("exact engine failed to place the benchmark");
    }
    state.counters["conflicts"] = static_cast<double>(stats.total_conflicts);
}

BENCHMARK_CAPTURE(BM_ExactPnrLadder, mux21, std::string{"mux21"})->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_ExactPnrLadder, par_check, std::string{"par_check"})
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_ExactPnrLadder, c17, std::string{"c17"})->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_ExactPnrLadder, newtag, std::string{"newtag"})->Unit(benchmark::kMillisecond);

/// The Table-1-scale number: exact P&R over every benchmark of the paper's
/// Table 1 back to back, sharing nothing across networks.
void BM_Table1ExactPnr(benchmark::State& state)
{
    // map everything up front so the timed region is pure P&R
    std::vector<const logic::LogicNetwork*> nets;
    for (const auto& bm : io::table1_benchmarks())
    {
        nets.push_back(&mapped(bm.name));
    }
    std::uint64_t conflicts = 0;
    for (auto _ : state)
    {
        unsigned placed = 0;
        conflicts = 0;
        for (const auto* net : nets)
        {
            layout::ExactPDStats stats;
            const auto result = layout::exact_physical_design(*net, {}, &stats);
            placed += result.has_value() ? 1 : 0;
            conflicts += stats.total_conflicts;
        }
        if (placed != nets.size())
        {
            state.SkipWithError("a Table-1 benchmark failed to place");
        }
    }
    state.counters["conflicts"] = static_cast<double>(conflicts);
}
BENCHMARK(BM_Table1ExactPnr)->Unit(benchmark::kMillisecond);

}  // namespace
