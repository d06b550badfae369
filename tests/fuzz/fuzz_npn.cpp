#include "logic/npn.hpp"

#include "npn_reference.hpp"

#include <gtest/gtest.h>

namespace
{

using namespace bestagon::logic;

/// Exhaustive: canonize_npn returns the reference enumerator's canonical
/// table and transform on all 65,814 functions of 0-4 variables. Not
/// randomized, so BESTAGON_FUZZ_SEED/SCALE do not apply.
TEST(FuzzNpn, MatchesReferenceOnEveryFunctionOfUpToFourVariables)
{
    for (unsigned n = 0; n <= 4; ++n)
    {
        for (std::uint64_t bits = 0; bits < (1ULL << (1U << n)); ++bits)
        {
            ASSERT_TRUE(reference::matches_reference(reference::truth_table_of(n, bits)));
        }
    }
}

}  // namespace
