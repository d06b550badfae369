#include "logic/npn.hpp"

#include <algorithm>
#include <array>
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
    std::array<unsigned, 4> perm{0, 1, 2, 3};
    std::array<unsigned, 4> best_perm = perm;
    unsigned best_flips = 0;
    bool best_negated = false;
    std::uint64_t best = all_ones + 1;  // above every candidate
    do
    {
        // minterm map of this permutation: bit i of image[x] is x_{perm[i]}
        std::array<std::uint8_t, 16> image{};
        for (unsigned x = 0; x < num_minterms; ++x)
        {
            unsigned y = 0;
            for (unsigned i = 0; i < n; ++i)
            {
                y |= ((x >> perm[i]) & 1U) << i;
            }
            image[x] = static_cast<std::uint8_t>(y);
        }
        for (unsigned flips = 0; flips < (1U << n); ++flips)
        {
            // candidate(x) = f(y) with y_i = x_{perm[i]} ^ flip_i
            std::uint64_t candidate = 0;
            for (unsigned x = 0; x < num_minterms; ++x)
            {
                candidate |= ((g >> (image[x] ^ flips)) & 1U) << x;
            }
            for (const bool negated : {false, true})
            {
                const auto c = negated ? candidate ^ all_ones : candidate;
                if (c < best)
                {
                    best = c;
                    best_perm = perm;
                    best_flips = flips;
                    best_negated = negated;
                }
            }
        }
    } while (std::next_permutation(perm.begin(), perm.begin() + n));

    TruthTable canonical{n};
    for (unsigned x = 0; x < num_minterms; ++x)
    {
        canonical.set_bit(x, ((best >> x) & 1U) != 0);
    }

    // We found T with best = T(f); we must return T' with f = T'(best).
    // For candidate(x) = f(y) ^ o with y_i = x_{perm[i]} ^ flip_i, the inverse
    // transform T' has perm'[perm[i]] = i, flip'_{perm[i]} = flip_i, out' = o.
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

    return NpnCanonization{canonical, inverse};
}

}  // namespace bestagon::logic
