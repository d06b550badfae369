/// \file test_sat_backend.cpp
/// \brief Tests for the SatBackend solve contract: SolveLimits bound one
///        solve() call on both backends, and the preprocessing backend's
///        budget discipline.

#include "sat/backend.hpp"
#include "sat/solver.hpp"

#include <gtest/gtest.h>

#include <array>
#include <chrono>
#include <vector>

namespace
{

using namespace bestagon;
using sat::Lit;
using sat::neg;
using sat::pos;
using sat::Var;

[[nodiscard]] std::int64_t now_ms()
{
    using namespace std::chrono;
    return duration_cast<milliseconds>(steady_clock::now().time_since_epoch()).count();
}

/// Pigeonhole principle PHP(pigeons, holes): UNSAT when pigeons > holes and
/// exponentially hard for resolution — the standard budget-latch workload.
void add_php(sat::SatBackend& solver, int pigeons, int holes)
{
    const auto var = [&](int p, int h) { return Var{p * holes + h}; };
    while (solver.num_vars() < pigeons * holes)
    {
        solver.new_var();
    }
    for (int p = 0; p < pigeons; ++p)
    {
        std::vector<Lit> somewhere;
        for (int h = 0; h < holes; ++h)
        {
            somewhere.push_back(pos(var(p, h)));
        }
        solver.add_clause(std::move(somewhere));
    }
    for (int h = 0; h < holes; ++h)
    {
        for (int p = 0; p < pigeons; ++p)
        {
            for (int q = p + 1; q < pigeons; ++q)
            {
                solver.add_clause(neg(var(p, h)), neg(var(q, h)));
            }
        }
    }
}

TEST(SatBackend, PreprocessingBackendHonorsTinyTimeBudget)
{
    // the PHP(12,11) latch workload through the delegation path: the
    // preprocessor and the inner solve share one absolute deadline, and the
    // per-decision countdown must keep polling the clock across restarts —
    // a 10 ms budget must not turn into seconds
    sat::PreprocessingBackend backend{};
    add_php(backend, 12, 11);

    const auto start = now_ms();
    const auto result = backend.solve({}, {.run = core::RunBudget{}.clipped_ms(10)});
    const auto wall = now_ms() - start;
    EXPECT_EQ(result, sat::Result::unknown);
    EXPECT_LT(wall, 2000) << "time budget latch failed through the preprocessing backend";
}

TEST(SatBackend, SolveLimitsApplyToOneCallOnly)
{
    // a zero conflict budget cuts the first solve; the next solve() carries
    // no limits and must run to the (same) verdict on both backends
    sat::Solver solver;
    sat::PreprocessingBackend preprocessing{};
    for (sat::SatBackend* backend : std::array<sat::SatBackend*, 2>{&solver, &preprocessing})
    {
        add_php(*backend, 8, 7);
        EXPECT_EQ(backend->solve({}, {.conflicts = 0}), sat::Result::unknown);
        EXPECT_EQ(backend->solve(), sat::Result::unsatisfiable);
    }
}

}  // namespace
