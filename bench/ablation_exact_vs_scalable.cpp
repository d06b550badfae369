/// \file ablation_exact_vs_scalable.cpp
/// \brief Ablation B: exact SAT-based physical design [46] vs. the scalable
///        constructive heuristic [49] — area and runtime on the benchmark
///        suite. This is the classic quality/runtime trade-off the paper's
///        flow inherits from the QCA literature.

#include "io/benchmarks.hpp"
#include "layout/exact_physical_design.hpp"
#include "layout/scalable_physical_design.hpp"
#include "logic/rewriting.hpp"
#include "logic/tech_mapping.hpp"

#include <chrono>
#include <cstdio>

using namespace bestagon;

namespace
{

long long ms_since(std::chrono::steady_clock::time_point start)
{
    return std::chrono::duration_cast<std::chrono::milliseconds>(std::chrono::steady_clock::now() -
                                                                 start)
        .count();
}

}  // namespace

int main()
{
    std::printf("Ablation B: exact vs. scalable placement & routing\n\n");
    std::printf("%-15s %12s %10s %14s %10s %8s\n", "name", "exact WxH", "exact ms",
                "scalable WxH", "scal ms", "overhead");

    for (const auto& bm : io::table1_benchmarks())
    {
        logic::NpnDatabase db;
        const auto mapped = logic::map_to_bestagon(logic::rewrite(logic::to_xag(bm.build()), db));

        layout::ExactPDOptions opt;
        opt.time_budget_ms = 120000;
        auto t0 = std::chrono::steady_clock::now();
        const auto exact = layout::exact_physical_design(mapped, opt);
        const auto exact_ms = ms_since(t0);

        t0 = std::chrono::steady_clock::now();
        const auto scalable = layout::scalable_physical_design(mapped);
        const auto scalable_ms = ms_since(t0);

        char exact_dims[32] = "-";
        char scal_dims[32] = "-";
        char overhead[32] = "-";
        if (exact)
        {
            std::snprintf(exact_dims, sizeof(exact_dims), "%ux%u=%u", exact->width(),
                          exact->height(), exact->area());
        }
        if (scalable)
        {
            std::snprintf(scal_dims, sizeof(scal_dims), "%ux%u=%u", scalable->width(),
                          scalable->height(), scalable->area());
        }
        if (exact && scalable)
        {
            std::snprintf(overhead, sizeof(overhead), "%.2fx",
                          static_cast<double>(scalable->area()) / exact->area());
        }
        std::printf("%-15s %12s %9lld %14s %9lld %8s\n", bm.name.c_str(), exact_dims,
                    static_cast<long long>(exact_ms), scal_dims,
                    static_cast<long long>(scalable_ms), overhead);
    }

    std::printf("\nThe exact engine is area-minimal (first satisfiable aspect ratio in\n"
                "ascending area order); the constructive marcher trades area for guaranteed\n"
                "linear-time behavior and may bail out on densely reconvergent networks\n"
                "(reported as '-'), in which case the flow falls back to the exact engine.\n");
    return 0;
}
