/// \file bench_charge_kernel.cpp
/// \brief Naive-vs-incremental microbenchmarks of the charge-state kernel.
///
/// Three families:
///
///  1. AnnealInstance over synthetic n-site canvases (n in {20, 40, 80}):
///     one full annealing instance at the production schedule (4000 moves at
///     T0 = 0.5, cooling 0.997, 25% hops, then a greedy quench). The naive
///     rows replicate the pre-kernel code path — a fresh O(n) local-potential
///     sum per *proposed* move and the O(n^3)-per-sweep descent quench. The
///     kernel rows run the same RNG stream on ChargeState: O(1) cached deltas
///     per proposal, O(n) commits on acceptance only, O(n^2) quench sweeps.
///
///  2. Instantiate on the Bestagon 2-input OR tile: GateInstanceCache
///     building one pattern's SiDBSystem (O(n^2) screened-Coulomb terms, exp
///     per entry).
///
///  3. CheckOperationalEndToEnd: the production check_operational on the
///     same OR tile with the exact engine — the full 4-pattern
///     verification as used by the gate designer's scoring loop.
///
/// Results are recorded in BENCH_charge_kernel.json at the repository root.
/// CI runs this binary in smoke mode (--benchmark_min_time=0.05) to keep
/// every path exercised.

#include "layout/bestagon_library.hpp"
#include "phys/charge_state.hpp"
#include "phys/operational.hpp"

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>
#include <optional>
#include <random>
#include <vector>

namespace
{

using namespace bestagon;
using namespace bestagon::phys;

/// Deterministic pseudo-random canvas of \p n unique sites, spread over a
/// box that grows with n so the charge density stays gate-like.
std::vector<SiDBSite> synthetic_canvas(std::size_t n)
{
    std::mt19937_64 rng{0xca11'ab1e + n};
    const auto span_cols = static_cast<std::int32_t>(8 * std::sqrt(static_cast<double>(n))) + 4;
    const auto span_rows = static_cast<std::int32_t>(4 * std::sqrt(static_cast<double>(n))) + 2;
    std::vector<SiDBSite> sites;
    while (sites.size() < n)
    {
        const SiDBSite s{static_cast<std::int32_t>(rng() % static_cast<std::uint64_t>(span_cols)),
                         static_cast<std::int32_t>(rng() % static_cast<std::uint64_t>(span_rows)),
                         static_cast<std::int32_t>(rng() & 1)};
        if (std::find(sites.begin(), sites.end(), s) == sites.end())
        {
            sites.push_back(s);
        }
    }
    return sites;
}

// production schedule (SimAnnealParameters defaults)
constexpr unsigned anneal_steps = 4000;
constexpr double initial_temperature = 0.5;
constexpr double cooling_rate = 0.997;
constexpr double quench_tolerance = 1e-9;

/// Pre-kernel greedy descent: every flip test is an O(n) fresh sum and every
/// hop test two of them, so one sweep costs O(n^3).
void naive_quench(const SiDBSystem& system, ChargeConfig& config)
{
    const std::size_t n = system.size();
    const double mu = system.parameters().mu_minus;
    bool changed = true;
    while (changed)
    {
        changed = false;
        for (std::size_t i = 0; i < n; ++i)
        {
            const double v = system.local_potential(config, i);
            const double delta = config[i] == 0 ? (mu + v) : -(mu + v);
            if (delta < -quench_tolerance)
            {
                config[i] ^= 1;
                changed = true;
            }
        }
        for (std::size_t i = 0; i < n; ++i)
        {
            if (config[i] == 0)
            {
                continue;
            }
            for (std::size_t j = 0; j < n; ++j)
            {
                if (config[j] != 0 || j == i)
                {
                    continue;
                }
                const double delta =
                    system.local_potential(config, j) - system.local_potential(config, i) -
                    system.potential(i, j);
                if (delta < -quench_tolerance)
                {
                    config[i] = 0;
                    config[j] = 1;
                    changed = true;
                    break;
                }
            }
        }
    }
}

/// The pre-kernel anneal_instance: fresh local-potential sums per proposal
/// followed by the O(n^3)-per-sweep quench.
double naive_anneal_instance(const SiDBSystem& system, std::uint64_t seed)
{
    const std::size_t n = system.size();
    std::mt19937_64 rng{seed};
    std::uniform_real_distribution<double> uni{0.0, 1.0};
    ChargeConfig config(n, 0);
    for (auto& c : config)
    {
        c = (rng() & 1) != 0 ? 1 : 0;
    }
    double temperature = initial_temperature;
    for (unsigned step = 0; step < anneal_steps; ++step)
    {
        // mirrors the production proposal loop: an invalid hop is rejected
        const bool do_hop = (rng() & 3U) == 0;
        const std::size_t i = rng() % n;
        std::size_t hop_to = n;
        bool rejected = false;
        double delta = 0.0;
        if (do_hop)
        {
            if (config[i] == 0)
            {
                rejected = true;
            }
            else
            {
                const std::size_t j = rng() % n;
                if (config[j] == 0 && j != i)
                {
                    hop_to = j;
                    delta = system.local_potential(config, j) - system.local_potential(config, i) -
                            system.potential(i, j);
                }
                else
                {
                    rejected = true;
                }
            }
        }
        else
        {
            const double v = system.local_potential(config, i);
            delta = config[i] == 0 ? (system.parameters().mu_minus + v)
                                   : -(system.parameters().mu_minus + v);
        }
        if (!rejected && (delta <= 0.0 || uni(rng) < std::exp(-delta / temperature)))
        {
            if (hop_to != n)
            {
                config[i] = 0;
                config[hop_to] = 1;
            }
            else
            {
                config[i] ^= 1;
            }
        }
        temperature *= cooling_rate;
    }
    naive_quench(system, config);
    return system.grand_potential(config);
}

/// The production anneal_instance on the incremental kernel: the identical
/// RNG stream and accept decisions, O(1) cached deltas and O(n^2) quench.
double kernel_anneal_instance(const SiDBSystem& system, std::uint64_t seed)
{
    const std::size_t n = system.size();
    std::mt19937_64 rng{seed};
    std::uniform_real_distribution<double> uni{0.0, 1.0};
    ChargeConfig config(n, 0);
    for (auto& c : config)
    {
        c = (rng() & 1) != 0 ? 1 : 0;
    }
    ChargeState state{system, std::move(config)};
    double temperature = initial_temperature;
    for (unsigned step = 0; step < anneal_steps; ++step)
    {
        // mirrors the production proposal loop: an invalid hop is rejected
        const bool do_hop = (rng() & 3U) == 0;
        const std::size_t i = rng() % n;
        std::size_t hop_to = n;
        bool rejected = false;
        double delta = 0.0;
        if (do_hop)
        {
            if (state.charge(i) == 0)
            {
                rejected = true;
            }
            else
            {
                const std::size_t j = rng() % n;
                if (state.charge(j) == 0 && j != i)
                {
                    hop_to = j;
                    delta = state.delta_hop(i, j);
                }
                else
                {
                    rejected = true;
                }
            }
        }
        else
        {
            delta = state.delta_flip(i);
        }
        if (!rejected && (delta <= 0.0 || uni(rng) < std::exp(-delta / temperature)))
        {
            if (hop_to != n)
            {
                state.commit_hop(i, hop_to);
            }
            else
            {
                state.commit_flip(i);
            }
        }
        temperature *= cooling_rate;
    }
    state.rebuild();
    state.quench();
    return system.grand_potential(state.config());
}

void BM_AnnealInstanceNaive(benchmark::State& state)
{
    const auto n = static_cast<std::size_t>(state.range(0));
    const SiDBSystem system{synthetic_canvas(n), SimulationParameters{}};
    std::uint64_t seed = 0x5eed;
    for (auto _ : state)
    {
        benchmark::DoNotOptimize(naive_anneal_instance(system, seed++));
    }
    state.counters["moves/s"] = benchmark::Counter(
        static_cast<double>(anneal_steps) * static_cast<double>(state.iterations()),
        benchmark::Counter::kIsRate);
}

void BM_AnnealInstanceKernel(benchmark::State& state)
{
    const auto n = static_cast<std::size_t>(state.range(0));
    const SiDBSystem system{synthetic_canvas(n), SimulationParameters{}};
    std::uint64_t seed = 0x5eed;
    for (auto _ : state)
    {
        benchmark::DoNotOptimize(kernel_anneal_instance(system, seed++));
    }
    state.counters["moves/s"] = benchmark::Counter(
        static_cast<double>(anneal_steps) * static_cast<double>(state.iterations()),
        benchmark::Counter::kIsRate);
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

BENCHMARK(BM_AnnealInstanceNaive)->Arg(20)->Arg(40)->Arg(80)->ArgName("sites")
    ->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_AnnealInstanceKernel)->Arg(20)->Arg(40)->Arg(80)->ArgName("sites")
    ->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_Instantiate)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_CheckOperationalEndToEnd)->Unit(benchmark::kMillisecond);
