#include "logic/npn.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cassert>
#include <cstdint>
#include <stdexcept>

namespace bestagon::logic
{

TruthTable apply_npn_transform(const TruthTable& g, const NpnTransform& t)
{
    const unsigned n = g.num_vars();
    assert(t.perm.size() == n);
    TruthTable f{n};
    for (std::uint64_t x = 0; x < f.num_bits(); ++x)
    {
        // y_i = x_{perm[i]} ^ flip_i
        std::uint64_t y = 0;
        for (unsigned i = 0; i < n; ++i)
        {
            const bool xi = ((x >> t.perm[i]) & 1ULL) != 0;
            const bool flip = ((t.input_flips >> i) & 1U) != 0;
            if (xi != flip)
            {
                y |= 1ULL << i;
            }
        }
        f.set_bit(x, g.get_bit(y) != t.output_negated);
    }
    return f;
}

namespace
{

/// The n! permutations of n <= 4 inputs in std::next_permutation order from
/// the identity, each with its minterm image: bit i of image[x] is x_{perm[i]}.
struct Permutations
{
    unsigned count{0};
    std::array<std::array<std::uint8_t, 4>, 24> perm{};
    std::array<std::array<std::uint8_t, 16>, 24> image{};
};

constexpr Permutations make_permutations(unsigned n)
{
    Permutations table;
    std::array<std::uint8_t, 4> perm{0, 1, 2, 3};
    do
    {
        table.perm[table.count] = perm;
        for (unsigned x = 0; x < (1U << n); ++x)
        {
            unsigned y = 0;
            for (unsigned i = 0; i < n; ++i)
            {
                y |= ((x >> perm[i]) & 1U) << i;
            }
            table.image[table.count][x] = static_cast<std::uint8_t>(y);
        }
        ++table.count;
    } while (std::next_permutation(perm.begin(), perm.begin() + n));
    return table;
}

constexpr std::array<Permutations, 5> permutations{make_permutations(0), make_permutations(1),
                                                   make_permutations(2), make_permutations(3),
                                                   make_permutations(4)};

/// Minterms with x_j = 0, for j < 4, within a 16-bit truth table.
constexpr std::array<std::uint64_t, 4> var_clear_masks{0x5555, 0x3333, 0x0f0f, 0x00ff};

}  // namespace

NpnCanonization canonize_npn(const TruthTable& f)
{
    const unsigned n = f.num_vars();
    if (n > 4)
    {
        throw std::invalid_argument{"canonize_npn: supports at most 4 variables"};
    }

    // f and every candidate fit one word of 2^n <= 16 bits, so candidates
    // compare as integers, in the order TruthTable::compare uses
    const std::uint64_t g = f.words()[0];
    const unsigned num_minterms = 1U << n;
    const std::uint64_t all_ones = (std::uint64_t{1} << num_minterms) - 1;

    // enumerate candidate = transform(f) over all (perm, flips, out) in the
    // order of the tie-break contract (npn.hpp); only a strictly smaller
    // candidate replaces the best, so the first minimum is kept
    const auto& table = permutations[n];
    unsigned best_p = 0;
    unsigned best_flips = 0;
    bool best_negated = false;
    std::uint64_t best = all_ones + 1;  // above every candidate
    for (unsigned p = 0; p < table.count; ++p)
    {
        // candidate[flips](x) = f(y) with y_i = x_{perm[i]} ^ flip_i
        std::array<std::uint64_t, 16> candidate;
        candidate[0] = 0;
        for (unsigned x = 0; x < num_minterms; ++x)
        {
            candidate[0] |= ((g >> table.image[p][x]) & 1U) << x;
        }
        for (unsigned flips = 0; flips < num_minterms; ++flips)
        {
            if (flips != 0)
            {
                // flip_i for the lowest set bit i complements x_{perm[i]}: one
                // delta swap of the candidate that lacks this flip
                const unsigned j = table.perm[p][static_cast<unsigned>(std::countr_zero(flips))];
                const unsigned shift = 1U << j;
                const auto t = candidate[flips & (flips - 1)];
                candidate[flips] = ((t & var_clear_masks[j]) << shift) | ((t >> shift) & var_clear_masks[j]);
            }
            for (const bool negated : {false, true})
            {
                const auto c = negated ? candidate[flips] ^ all_ones : candidate[flips];
                if (c < best)
                {
                    best = c;
                    best_p = p;
                    best_flips = flips;
                    best_negated = negated;
                }
            }
        }
    }

    // We found T with best = T(f); we must return T' with f = T'(best).
    // For candidate(x) = f(y) ^ o with y_i = x_{perm[i]} ^ flip_i, the inverse
    // transform T' has perm'[perm[i]] = i, flip'_{perm[i]} = flip_i, out' = o.
    const auto& best_perm = table.perm[best_p];
    NpnTransform inverse;
    inverse.perm.resize(n);
    for (unsigned i = 0; i < n; ++i)
    {
        inverse.perm[best_perm[i]] = i;
        if ((best_flips >> i) & 1U)
        {
            inverse.input_flips |= 1U << best_perm[i];
        }
    }
    inverse.output_negated = best_negated;

    return NpnCanonization{TruthTable::from_word(n, best), inverse};
}

}  // namespace bestagon::logic
