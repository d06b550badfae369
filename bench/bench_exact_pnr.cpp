/// \file bench_exact_pnr.cpp
/// \brief Exact P&R wall time and SAT work (results: BENCH_exact_pnr.json).
///
/// Every row also reports `conflicts`, the deterministic SAT work of one
/// iteration, and `peak_heap_kb`, the most heap one iteration held at once
/// beyond what was live when it started (operator new bytes, all threads).
/// cpu_time is the CPU time of the whole process, so it counts the rungs the
/// ladder solves on its helper thread:
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

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <map>
#include <new>
#include <stdexcept>
#include <string>
#include <vector>

namespace heap
{

/// Live and peak operator-new bytes of the process.
std::atomic<std::int64_t> live{0};
std::atomic<std::int64_t> peak{0};

/// Starts a new peak at the bytes live now; returns them.
std::int64_t restart_peak()
{
    const auto now = live.load();
    peak.store(now);
    return now;
}

}  // namespace heap

// counting global allocation: every block carries its size in a 16-byte
// header, so delete knows what it frees
void* operator new(std::size_t size)
{
    auto* block = static_cast<std::size_t*>(std::malloc(size + 16));
    if (block == nullptr)
    {
        throw std::bad_alloc{};
    }
    block[0] = size;
    const auto now = heap::live.fetch_add(static_cast<std::int64_t>(size)) + static_cast<std::int64_t>(size);
    auto seen = heap::peak.load();
    while (now > seen && !heap::peak.compare_exchange_weak(seen, now))
    {
    }
    return block + 2;
}

void operator delete(void* p) noexcept
{
    if (p == nullptr)
    {
        return;
    }
    auto* block = static_cast<std::size_t*>(p) - 2;
    heap::live.fetch_sub(static_cast<std::int64_t>(block[0]));
    std::free(block);
}

void operator delete(void* p, std::size_t /*size*/) noexcept
{
    operator delete(p);
}

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
    std::int64_t peak_heap = 0;
    for (auto _ : state)
    {
        stats = {};
        const auto base = heap::restart_peak();
        const auto result = layout::exact_physical_design(net, {}, &stats);
        peak_heap = std::max(peak_heap, heap::peak.load() - base);
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
    state.counters["peak_heap_kb"] = static_cast<double>(peak_heap) / 1024.0;
}

BENCHMARK_CAPTURE(BM_ExactPnrLadder, mux21, std::string{"mux21"})
    ->Unit(benchmark::kMillisecond)
    ->MeasureProcessCPUTime();
BENCHMARK_CAPTURE(BM_ExactPnrLadder, par_check, std::string{"par_check"})
    ->Unit(benchmark::kMillisecond)
    ->MeasureProcessCPUTime();
BENCHMARK_CAPTURE(BM_ExactPnrLadder, c17, std::string{"c17"})
    ->Unit(benchmark::kMillisecond)
    ->MeasureProcessCPUTime();
BENCHMARK_CAPTURE(BM_ExactPnrLadder, xor5_r1, std::string{"xor5_r1"})
    ->Unit(benchmark::kMillisecond)
    ->MeasureProcessCPUTime();
BENCHMARK_CAPTURE(BM_ExactPnrLadder, newtag, std::string{"newtag"})
    ->Unit(benchmark::kMillisecond)
    ->MeasureProcessCPUTime();
BENCHMARK_CAPTURE(BM_ExactPnrLadder, majority_5_r1, std::string{"majority_5_r1"})
    ->Unit(benchmark::kMillisecond)
    ->MeasureProcessCPUTime();
BENCHMARK_CAPTURE(BM_ExactPnrLadder, t_5, std::string{"t_5"})
    ->Unit(benchmark::kMillisecond)
    ->MeasureProcessCPUTime();

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
    std::int64_t peak_heap = 0;
    for (auto _ : state)
    {
        unsigned placed = 0;
        conflicts = 0;
        const auto base = heap::restart_peak();
        for (const auto* net : nets)
        {
            layout::ExactPDStats stats;
            const auto result = layout::exact_physical_design(*net, {}, &stats);
            placed += result.has_value() ? 1 : 0;
            conflicts += stats.total_conflicts;
        }
        peak_heap = std::max(peak_heap, heap::peak.load() - base);
        if (placed != nets.size())
        {
            state.SkipWithError("a Table-1 benchmark failed to place");
        }
    }
    state.counters["conflicts"] = static_cast<double>(conflicts);
    state.counters["peak_heap_kb"] = static_cast<double>(peak_heap) / 1024.0;
}
BENCHMARK(BM_Table1ExactPnr)->Unit(benchmark::kMillisecond)->MeasureProcessCPUTime();

}  // namespace
