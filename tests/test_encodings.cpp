#include "sat/encodings.hpp"
#include "sat/solver.hpp"

#include <gtest/gtest.h>

#include <bit>

namespace
{

using namespace bestagon::sat;

/// Enumerates all models of the current solver over the first n variables by
/// blocking clauses; returns the set of assignments as bitmasks.
std::vector<unsigned> all_models(Solver& s, int n)
{
    std::vector<unsigned> models;
    while (s.solve() == Result::satisfiable)
    {
        unsigned mask = 0;
        std::vector<Lit> blocking;
        for (int i = 0; i < n; ++i)
        {
            const bool v = s.model_value(Var{i});
            if (v)
            {
                mask |= 1U << i;
            }
            blocking.push_back(Lit{i, v});
        }
        models.push_back(mask);
        if (!s.add_clause(blocking))
        {
            break;
        }
        if (models.size() > 4096)
        {
            break;  // defensive
        }
    }
    return models;
}

class CardinalityTest : public ::testing::TestWithParam<std::pair<int, unsigned>>
{
};

TEST_P(CardinalityTest, AtMostKMatchesPopcount)
{
    const auto [n, k] = GetParam();
    Solver s;
    std::vector<Lit> lits;
    for (int i = 0; i < n; ++i)
    {
        lits.push_back(pos(s.new_var()));
    }
    add_at_most_k(s, lits, k);
    const auto models = all_models(s, n);
    // every assignment with popcount <= k must appear exactly once
    unsigned expected = 0;
    for (unsigned mask = 0; mask < (1U << n); ++mask)
    {
        if (std::popcount(mask) <= static_cast<int>(k))
        {
            ++expected;
        }
    }
    EXPECT_EQ(models.size(), expected);
    for (const auto m : models)
    {
        EXPECT_LE(std::popcount(m), static_cast<int>(k));
    }
}

INSTANTIATE_TEST_SUITE_P(Sweep, CardinalityTest,
                         ::testing::Values(std::pair{4, 0U}, std::pair{4, 1U}, std::pair{5, 2U},
                                           std::pair{6, 3U}, std::pair{7, 2U}, std::pair{8, 1U}));

class ExactlyOneTest : public ::testing::TestWithParam<int>
{
};

TEST_P(ExactlyOneTest, HasExactlyNModels)
{
    const int n = GetParam();
    Solver s;
    std::vector<Lit> lits;
    for (int i = 0; i < n; ++i)
    {
        lits.push_back(pos(s.new_var()));
    }
    add_exactly_one(s, lits);
    const auto models = all_models(s, n);
    EXPECT_EQ(models.size(), static_cast<std::size_t>(n));
    for (const auto m : models)
    {
        EXPECT_EQ(std::popcount(m), 1);
    }
}

INSTANTIATE_TEST_SUITE_P(Sweep, ExactlyOneTest, ::testing::Values(1, 2, 3, 5, 7, 9, 12));

/// The exact-P&R infeasibility diagnosis guards whole constraint groups:
/// a guarded at-most-one must hold under its guard and vanish without it,
/// past the pairwise threshold too (where its ladder variables come in).
TEST(Encodings, GuardedAtMostOneDisarmsWithoutGuard)
{
    Solver s;
    const Lit guard = pos(s.new_var());
    std::vector<Lit> lits;
    for (int i = 0; i < 8; ++i)
    {
        lits.push_back(pos(s.new_var()));
    }
    add_at_most_one(s, lits, guard);
    // enforced under the guard...
    EXPECT_EQ(s.solve({guard, lits[0], lits[7]}), Result::unsatisfiable);
    EXPECT_EQ(s.solve({guard, lits[2]}), Result::satisfiable);
    // ...inert without it: all literals may be true simultaneously
    std::vector<Lit> all{~guard};
    all.insert(all.end(), lits.begin(), lits.end());
    EXPECT_EQ(s.solve(all), Result::satisfiable);
}

TEST(Encodings, AtLeastK)
{
    Solver s;
    std::vector<Lit> lits;
    for (int i = 0; i < 5; ++i)
    {
        lits.push_back(pos(s.new_var()));
    }
    add_at_least_k(s, lits, 3);
    const auto models = all_models(s, 5);
    unsigned expected = 0;
    for (unsigned mask = 0; mask < 32; ++mask)
    {
        if (std::popcount(mask) >= 3)
        {
            ++expected;
        }
    }
    EXPECT_EQ(models.size(), expected);
}

TEST(Encodings, TseitinAndTruthTable)
{
    for (unsigned input = 0; input < 4; ++input)
    {
        Solver s;
        const Var a = s.new_var(), b = s.new_var();
        const Lit out = tseitin_and(s, pos(a), pos(b));
        const std::vector<Lit> assumptions{Lit{a, (input & 1) == 0}, Lit{b, (input & 2) == 0}};
        ASSERT_EQ(s.solve(assumptions), Result::satisfiable);
        EXPECT_EQ(s.model_value(out), input == 3);
    }
}

TEST(Encodings, TseitinXorTruthTable)
{
    for (unsigned input = 0; input < 4; ++input)
    {
        Solver s;
        const Var a = s.new_var(), b = s.new_var();
        const Lit out = tseitin_xor(s, pos(a), pos(b));
        const std::vector<Lit> assumptions{Lit{a, (input & 1) == 0}, Lit{b, (input & 2) == 0}};
        ASSERT_EQ(s.solve(assumptions), Result::satisfiable);
        EXPECT_EQ(s.model_value(out), input == 1 || input == 2);
    }
}

TEST(Encodings, MajEncodingTruthTable)
{
    for (unsigned input = 0; input < 8; ++input)
    {
        Solver s;
        const Var a = s.new_var(), b = s.new_var(), c = s.new_var();
        const Lit out = pos(s.new_var());
        encode_maj(s, out, pos(a), pos(b), pos(c));
        const std::vector<Lit> assumptions{Lit{a, (input & 1) == 0}, Lit{b, (input & 2) == 0},
                                           Lit{c, (input & 4) == 0}};
        ASSERT_EQ(s.solve(assumptions), Result::satisfiable);
        EXPECT_EQ(s.model_value(out), std::popcount(input) >= 2);
    }
}

TEST(Encodings, WideAndOr)
{
    Solver s;
    std::vector<Lit> ins;
    for (int i = 0; i < 6; ++i)
    {
        ins.push_back(pos(s.new_var()));
    }
    const Lit all = tseitin_and(s, std::span<const Lit>{ins});
    const Lit any = tseitin_or(s, std::span<const Lit>{ins});
    std::vector<Lit> assumptions;
    for (const auto l : ins)
    {
        assumptions.push_back(l);
    }
    ASSERT_EQ(s.solve(assumptions), Result::satisfiable);
    EXPECT_TRUE(s.model_value(all));
    EXPECT_TRUE(s.model_value(any));
    assumptions.back() = ~assumptions.back();
    ASSERT_EQ(s.solve(assumptions), Result::satisfiable);
    EXPECT_FALSE(s.model_value(all));
    EXPECT_TRUE(s.model_value(any));
}

}  // namespace
