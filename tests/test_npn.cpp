#include "logic/npn.hpp"

#include "npn_reference.hpp"

#include <gtest/gtest.h>

#include <random>
#include <unordered_set>

namespace
{

using namespace bestagon::logic;

TruthTable random_tt(unsigned n, std::mt19937& rng)
{
    TruthTable f{n};
    for (std::uint64_t t = 0; t < f.num_bits(); ++t)
    {
        f.set_bit(t, (rng() & 1U) != 0);
    }
    return f;
}

/// Property: the stored transform maps the canonical form back to f.
TEST(Npn, TransformRoundTrip)
{
    std::mt19937 rng{42};
    for (int iter = 0; iter < 300; ++iter)
    {
        const unsigned n = 1 + rng() % 4;
        const auto f = random_tt(n, rng);
        const auto canon = canonize_npn(f);
        EXPECT_EQ(apply_npn_transform(canon.canonical, canon.transform), f);
    }
}

/// Property: NPN-equivalent functions share one canonical representative.
TEST(Npn, EquivalentFunctionsShareRepresentative)
{
    std::mt19937 rng{4242};
    for (int iter = 0; iter < 100; ++iter)
    {
        const unsigned n = 2 + rng() % 2;
        const auto f = random_tt(n, rng);
        // random transform of f
        NpnTransform t;
        t.perm.resize(n);
        for (unsigned i = 0; i < n; ++i)
        {
            t.perm[i] = i;
        }
        std::shuffle(t.perm.begin(), t.perm.end(), rng);
        t.input_flips = rng() % (1U << n);
        t.output_negated = (rng() & 1U) != 0;
        const auto g = apply_npn_transform(f, t);

        EXPECT_EQ(canonize_npn(f).canonical, canonize_npn(g).canonical);
    }
}

TEST(Npn, CanonicalIsIdempotent)
{
    std::mt19937 rng{5};
    for (int iter = 0; iter < 100; ++iter)
    {
        const auto f = random_tt(3, rng);
        const auto canon = canonize_npn(f).canonical;
        EXPECT_EQ(canonize_npn(canon).canonical, canon);
    }
}

TEST(Npn, TwoVariableClassCount)
{
    // there are exactly 4 NPN classes of 2-variable functions
    std::unordered_set<std::string> classes;
    for (unsigned bits = 0; bits < 16; ++bits)
    {
        TruthTable f{2};
        for (unsigned t = 0; t < 4; ++t)
        {
            f.set_bit(t, ((bits >> t) & 1U) != 0);
        }
        classes.insert(canonize_npn(f).canonical.to_binary());
    }
    EXPECT_EQ(classes.size(), 4U);
}

TEST(Npn, ThreeVariableClassCount)
{
    // there are exactly 14 NPN classes of 3-variable functions
    std::unordered_set<std::string> classes;
    for (unsigned bits = 0; bits < 256; ++bits)
    {
        TruthTable f{3};
        for (unsigned t = 0; t < 8; ++t)
        {
            f.set_bit(t, ((bits >> t) & 1U) != 0);
        }
        classes.insert(canonize_npn(f).canonical.to_binary());
    }
    EXPECT_EQ(classes.size(), 14U);
}

/// canonize_npn against the plain enumerator (npn_reference.hpp): the same
/// canonical table and the same transform, since rewrite builds its
/// replacement from both. Every function of <= 3 variables and every 61st
/// 4-variable function; the fuzz suite sweeps all 65,536 of them.
TEST(Npn, MatchesReferenceEnumerator)
{
    for (unsigned n = 0; n <= 4; ++n)
    {
        const std::uint64_t num_functions = 1ULL << (1U << n);
        const std::uint64_t stride = n < 4 ? 1 : 61;
        for (std::uint64_t bits = 0; bits < num_functions; bits += stride)
        {
            ASSERT_TRUE(reference::matches_reference(reference::truth_table_of(n, bits)));
        }
    }
}

TEST(Npn, RejectsTooManyVariables)
{
    EXPECT_THROW(static_cast<void>(canonize_npn(TruthTable{5})), std::invalid_argument);
}

}  // namespace
