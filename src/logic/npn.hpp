/// \file npn.hpp
/// \brief Exhaustive NPN canonization for functions of up to 4 variables.
///
/// Two functions are NPN-equivalent if one can be obtained from the other by
/// Negating inputs, Permuting inputs, and/or Negating the output. The exact
/// NPN database used by the cut-rewriting engine stores one optimal
/// implementation per canonical representative.

#pragma once

#include "logic/truth_table.hpp"

#include <vector>

namespace bestagon::logic
{

/// An NPN transform. Applied to a function g of n variables it yields
///   f(x_0,...,x_{n-1}) = g(y_0,...,y_{n-1}) ^ output_negated,
/// where y_i = x_{perm[i]} ^ ((input_flips >> i) & 1).
struct NpnTransform
{
    std::vector<unsigned> perm;
    unsigned input_flips{0};
    bool output_negated{false};
};

/// Result of canonization: `canonical` plus the transform such that
/// applying `transform` to `canonical` reproduces the original function.
struct NpnCanonization
{
    TruthTable canonical;
    NpnTransform transform;
};

/// Applies an NPN transform to \p g (see NpnTransform for the semantics).
[[nodiscard]] TruthTable apply_npn_transform(const TruthTable& g, const NpnTransform& t);

/// Computes the canonical NPN representative of \p f (lexicographically
/// smallest truth table over all transforms) together with the transform
/// mapping the representative back to \p f. Supports up to 4 variables.
///
/// Tie-break contract: several transforms can reach the minimum, and the
/// returned one is the first in this order: input permutations in
/// std::next_permutation order from the identity, then input flips
/// ascending as a bit mask, then the plain output before the negated one.
/// Rewriting builds its replacement from this transform, so a change to the
/// order can change rewrite's output and everything downstream of it.
[[nodiscard]] NpnCanonization canonize_npn(const TruthTable& f);

}  // namespace bestagon::logic
