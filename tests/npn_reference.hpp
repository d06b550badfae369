/// \file npn_reference.hpp
/// \brief Reference NPN canonizer for the tests: the plain enumerator that
/// `logic::canonize_npn` must agree with on every function of <= 4 variables.
///
/// It applies all n! * 2^n * 2 transforms as truth tables, in the tie-break
/// order of npn.hpp (permutations in next_permutation order, flips ascending,
/// plain output before negated), and keeps the first strict minimum.

#pragma once

#include "logic/npn.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <sstream>
#include <vector>

namespace bestagon::logic::reference
{

inline NpnCanonization canonize_npn(const TruthTable& f)
{
    const unsigned n = f.num_vars();
    std::vector<unsigned> p(n);
    std::iota(p.begin(), p.end(), 0U);

    bool first = true;
    TruthTable best{n};
    NpnTransform best_inverse{};  // transform applied to f to obtain best
    do
    {
        for (unsigned flips = 0; flips < (1U << n); ++flips)
        {
            for (unsigned out = 0; out < 2; ++out)
            {
                NpnTransform t;
                t.perm = p;
                t.input_flips = flips;
                t.output_negated = out != 0;
                const auto candidate = apply_npn_transform(f, t);
                if (first || candidate.compare(best) < 0)
                {
                    first = false;
                    best = candidate;
                    best_inverse = t;
                }
            }
        }
    } while (std::next_permutation(p.begin(), p.end()));

    // best = T(f); return T' with f = T'(best)
    NpnTransform inverse;
    inverse.perm.resize(n);
    for (unsigned i = 0; i < n; ++i)
    {
        inverse.perm[best_inverse.perm[i]] = i;
        if ((best_inverse.input_flips >> i) & 1U)
        {
            inverse.input_flips |= 1U << best_inverse.perm[i];
        }
    }
    inverse.output_negated = best_inverse.output_negated;
    return NpnCanonization{best, inverse};
}

/// The function of \p n variables whose minterm t has the value of bit t of
/// \p bits.
inline TruthTable truth_table_of(unsigned n, std::uint64_t bits)
{
    TruthTable f{n};
    for (std::uint64_t t = 0; t < f.num_bits(); ++t)
    {
        f.set_bit(t, ((bits >> t) & 1U) != 0);
    }
    return f;
}

/// Success iff `logic::canonize_npn(f)` returns the reference's canonical
/// table and the same transform: perm, input flips and output negation.
inline ::testing::AssertionResult matches_reference(const TruthTable& f)
{
    const auto got = logic::canonize_npn(f);
    const auto want = reference::canonize_npn(f);
    if (got.canonical == want.canonical && got.transform.perm == want.transform.perm &&
        got.transform.input_flips == want.transform.input_flips &&
        got.transform.output_negated == want.transform.output_negated)
    {
        return ::testing::AssertionSuccess();
    }
    const auto describe = [](const NpnCanonization& c) {
        std::ostringstream out;
        out << c.canonical.to_binary() << " perm";
        for (const auto p : c.transform.perm)
        {
            out << ' ' << p;
        }
        out << " flips " << c.transform.input_flips << " negated " << c.transform.output_negated;
        return out.str();
    };
    return ::testing::AssertionFailure() << "f = " << f.to_binary() << ": got " << describe(got)
                                         << ", reference " << describe(want);
}

}  // namespace bestagon::logic::reference
