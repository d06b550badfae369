#include "sat/solver.hpp"

#include <gtest/gtest.h>

#include <random>

namespace
{

using namespace bestagon::sat;

TEST(SatSolver, EmptyFormulaIsSatisfiable)
{
    Solver s;
    EXPECT_EQ(s.solve(), Result::satisfiable);
}

TEST(SatSolver, UnitClauseForcesValue)
{
    Solver s;
    const Var x = s.new_var();
    ASSERT_TRUE(s.add_clause(pos(x)));
    ASSERT_EQ(s.solve(), Result::satisfiable);
    EXPECT_TRUE(s.model_value(x));
}

TEST(SatSolver, ContradictoryUnitsAreUnsat)
{
    Solver s;
    const Var x = s.new_var();
    ASSERT_TRUE(s.add_clause(pos(x)));
    EXPECT_FALSE(s.add_clause(neg(x)));
    EXPECT_EQ(s.solve(), Result::unsatisfiable);
}

TEST(SatSolver, SimplePropagationChain)
{
    Solver s;
    const Var a = s.new_var(), b = s.new_var(), c = s.new_var();
    s.add_clause(pos(a));
    s.add_clause(neg(a), pos(b));
    s.add_clause(neg(b), pos(c));
    ASSERT_EQ(s.solve(), Result::satisfiable);
    EXPECT_TRUE(s.model_value(a));
    EXPECT_TRUE(s.model_value(b));
    EXPECT_TRUE(s.model_value(c));
}

TEST(SatSolver, TautologicalClauseIgnored)
{
    Solver s;
    const Var x = s.new_var();
    ASSERT_TRUE(s.add_clause(std::vector<Lit>{pos(x), neg(x)}));
    EXPECT_EQ(s.solve(), Result::satisfiable);
}

TEST(SatSolver, DuplicateLiteralsDeduplicated)
{
    Solver s;
    const Var x = s.new_var(), y = s.new_var();
    ASSERT_TRUE(s.add_clause(std::vector<Lit>{pos(x), pos(x), pos(y)}));
    s.add_clause(neg(x));
    ASSERT_EQ(s.solve(), Result::satisfiable);
    EXPECT_TRUE(s.model_value(y));
}

/// Pigeonhole principle PHP(pigeons, holes): UNSAT when pigeons > holes and
/// exponentially hard for resolution — the standard budget workload.
void add_php(Solver& s, int pigeons, int holes)
{
    const auto var = [&](int p, int h) { return Var{p * holes + h}; };
    while (s.num_vars() < pigeons * holes)
    {
        s.new_var();
    }
    for (int p = 0; p < pigeons; ++p)
    {
        std::vector<Lit> somewhere;
        for (int h = 0; h < holes; ++h)
        {
            somewhere.push_back(pos(var(p, h)));
        }
        s.add_clause(std::move(somewhere));
    }
    for (int h = 0; h < holes; ++h)
    {
        for (int p = 0; p < pigeons; ++p)
        {
            for (int q = p + 1; q < pigeons; ++q)
            {
                s.add_clause(neg(var(p, h)), neg(var(q, h)));
            }
        }
    }
}

TEST(SatSolver, PigeonholePrinciple)
{
    // n+1 pigeons into n holes is unsatisfiable
    for (int n = 2; n <= 5; ++n)
    {
        Solver s;
        add_php(s, n + 1, n);
        EXPECT_EQ(s.solve(), Result::unsatisfiable) << "PHP(" << n + 1 << "," << n << ")";
    }
}

TEST(SatSolver, AssumptionsAreRespected)
{
    Solver s;
    const Var x = s.new_var(), y = s.new_var();
    s.add_clause(neg(x), pos(y));  // x -> y
    ASSERT_EQ(s.solve({pos(x)}), Result::satisfiable);
    EXPECT_TRUE(s.model_value(y));
    EXPECT_EQ(s.solve({pos(x), neg(y)}), Result::unsatisfiable);
    // the solver must remain usable after an assumption failure
    EXPECT_EQ(s.solve({neg(x)}), Result::satisfiable);
    EXPECT_EQ(s.solve(), Result::satisfiable);
}

TEST(SatSolver, ConflictBudgetYieldsUnknown)
{
    // a hard instance with a tiny budget must return unknown, not hang
    Solver s;
    add_php(s, 9, 8);
    EXPECT_EQ(s.solve({}, {.conflicts = 10}), Result::unknown);
}

TEST(SatSolver, SolveLimitsApplyToOneCallOnly)
{
    // a zero conflict budget cuts the first solve; the next solve() carries
    // no limits and must run to the verdict
    Solver s;
    add_php(s, 8, 7);
    EXPECT_EQ(s.solve({}, {.conflicts = 0}), Result::unknown);
    EXPECT_EQ(s.solve(), Result::unsatisfiable);
}

/// Property: solver agrees with brute force on random 3-SAT and returns
/// genuine models.
TEST(SatSolver, AgreesWithBruteForceOnRandom3Sat)
{
    std::mt19937 rng{1234};
    for (int iter = 0; iter < 200; ++iter)
    {
        const int n = 5 + static_cast<int>(rng() % 7);
        const int m = 8 + static_cast<int>(rng() % 35);
        std::vector<std::vector<int>> clauses;
        for (int i = 0; i < m; ++i)
        {
            std::vector<int> c;
            for (int j = 0; j < 3; ++j)
            {
                const int v = 1 + static_cast<int>(rng() % n);
                c.push_back((rng() & 1U) != 0 ? v : -v);
            }
            clauses.push_back(c);
        }

        bool brute_sat = false;
        for (int mask = 0; mask < (1 << n) && !brute_sat; ++mask)
        {
            bool all = true;
            for (const auto& c : clauses)
            {
                bool sat = false;
                for (const int l : c)
                {
                    const bool val = ((mask >> (std::abs(l) - 1)) & 1) != 0;
                    if ((l > 0) == val)
                    {
                        sat = true;
                        break;
                    }
                }
                if (!sat)
                {
                    all = false;
                    break;
                }
            }
            brute_sat = all;
        }

        Solver s;
        for (int i = 0; i < n; ++i)
        {
            s.new_var();
        }
        bool trivially_unsat = false;
        for (const auto& c : clauses)
        {
            std::vector<Lit> lits;
            for (const int l : c)
            {
                lits.push_back(Lit{std::abs(l) - 1, l < 0});
            }
            if (!s.add_clause(lits))
            {
                trivially_unsat = true;
            }
        }
        const auto result = trivially_unsat ? Result::unsatisfiable : s.solve();
        ASSERT_EQ(result == Result::satisfiable, brute_sat) << "iteration " << iter;
        if (result == Result::satisfiable)
        {
            for (const auto& c : clauses)
            {
                bool sat = false;
                for (const int l : c)
                {
                    if (s.model_value(Lit{std::abs(l) - 1, l < 0}))
                    {
                        sat = true;
                        break;
                    }
                }
                ASSERT_TRUE(sat) << "model does not satisfy a clause";
            }
        }
    }
}

}  // namespace
