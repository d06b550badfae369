#include "logic/truth_table.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <stdexcept>

namespace bestagon::logic
{

namespace
{

constexpr std::uint64_t projections_6[6] = {
    0xaaaaaaaaaaaaaaaaULL, 0xccccccccccccccccULL, 0xf0f0f0f0f0f0f0f0ULL,
    0xff00ff00ff00ff00ULL, 0xffff0000ffff0000ULL, 0xffffffff00000000ULL};

}  // namespace

TruthTable::TruthTable(unsigned num_vars) : num_vars_{num_vars}
{
    if (num_vars > 16)
    {
        throw std::invalid_argument{"TruthTable: too many variables"};
    }
    const std::size_t words = num_vars <= 6 ? 1 : (1ULL << (num_vars - 6));
    words_.assign(words, 0ULL);
}

void TruthTable::mask_off_excess()
{
    if (num_vars_ < 6)
    {
        words_[0] &= (1ULL << (1ULL << num_vars_)) - 1;
    }
}

TruthTable TruthTable::from_binary(const std::string& bits)
{
    unsigned nv = 0;
    while ((1ULL << nv) < bits.size())
    {
        ++nv;
    }
    if ((1ULL << nv) != bits.size())
    {
        throw std::invalid_argument{"TruthTable::from_binary: length must be a power of two"};
    }
    TruthTable tt{nv};
    for (std::size_t i = 0; i < bits.size(); ++i)
    {
        const char c = bits[bits.size() - 1 - i];
        if (c != '0' && c != '1')
        {
            throw std::invalid_argument{"TruthTable::from_binary: invalid character"};
        }
        tt.set_bit(i, c == '1');
    }
    return tt;
}

TruthTable TruthTable::from_hex(unsigned num_vars, const std::string& hex)
{
    TruthTable tt{num_vars};
    const std::uint64_t nibbles = std::max<std::uint64_t>(1, tt.num_bits() / 4);
    if (hex.size() != nibbles)
    {
        throw std::invalid_argument{"TruthTable::from_hex: wrong number of nibbles"};
    }
    for (std::uint64_t i = 0; i < nibbles; ++i)
    {
        const char c = hex[hex.size() - 1 - i];
        unsigned v = 0;
        if (c >= '0' && c <= '9')
        {
            v = static_cast<unsigned>(c - '0');
        }
        else if (c >= 'a' && c <= 'f')
        {
            v = static_cast<unsigned>(c - 'a') + 10;
        }
        else if (c >= 'A' && c <= 'F')
        {
            v = static_cast<unsigned>(c - 'A') + 10;
        }
        else
        {
            throw std::invalid_argument{"TruthTable::from_hex: invalid character"};
        }
        for (unsigned b = 0; b < 4; ++b)
        {
            const std::uint64_t idx = i * 4 + b;
            if (idx < tt.num_bits())
            {
                tt.set_bit(idx, ((v >> b) & 1) != 0);
            }
        }
    }
    return tt;
}

TruthTable TruthTable::nth_var(unsigned num_vars, unsigned var, bool complemented)
{
    assert(var < num_vars);
    TruthTable tt{num_vars};
    if (var < 6)
    {
        for (auto& w : tt.words_)
        {
            w = complemented ? ~projections_6[var] : projections_6[var];
        }
    }
    else
    {
        const std::uint64_t block = 1ULL << (var - 6);
        for (std::size_t i = 0; i < tt.words_.size(); ++i)
        {
            const bool hi = ((i / block) & 1) != 0;
            tt.words_[i] = (hi != complemented) ? ~0ULL : 0ULL;
        }
    }
    tt.mask_off_excess();
    return tt;
}

TruthTable TruthTable::constant(unsigned num_vars, bool value)
{
    TruthTable tt{num_vars};
    if (value)
    {
        for (auto& w : tt.words_)
        {
            w = ~0ULL;
        }
        tt.mask_off_excess();
    }
    return tt;
}

TruthTable TruthTable::from_word(unsigned num_vars, std::uint64_t word)
{
    if (num_vars > 6)
    {
        throw std::invalid_argument{"TruthTable::from_word: more than 6 variables"};
    }
    TruthTable tt{num_vars};
    tt.words_[0] = word;
    tt.mask_off_excess();
    return tt;
}

bool TruthTable::get_bit(std::uint64_t index) const
{
    assert(index < num_bits());
    return ((words_[index >> 6] >> (index & 63)) & 1ULL) != 0;
}

void TruthTable::set_bit(std::uint64_t index, bool value)
{
    assert(index < num_bits());
    if (value)
    {
        words_[index >> 6] |= 1ULL << (index & 63);
    }
    else
    {
        words_[index >> 6] &= ~(1ULL << (index & 63));
    }
}

std::uint64_t TruthTable::count_ones() const
{
    std::uint64_t total = 0;
    for (const auto w : words_)
    {
        total += static_cast<std::uint64_t>(std::popcount(w));
    }
    return total;
}

bool TruthTable::is_const0() const
{
    return std::all_of(words_.begin(), words_.end(), [](std::uint64_t w) { return w == 0; });
}

bool TruthTable::is_const1() const
{
    return count_ones() == num_bits();
}

bool TruthTable::is_projection(unsigned& var, bool& complemented) const
{
    for (unsigned v = 0; v < num_vars_; ++v)
    {
        const auto proj = nth_var(num_vars_, v);
        if (*this == proj)
        {
            var = v;
            complemented = false;
            return true;
        }
        if (*this == ~proj)
        {
            var = v;
            complemented = true;
            return true;
        }
    }
    return false;
}

bool TruthTable::depends_on(unsigned var) const
{
    return !(flip_var(var) == *this);
}

TruthTable TruthTable::operator~() const
{
    TruthTable result{*this};
    for (auto& w : result.words_)
    {
        w = ~w;
    }
    result.mask_off_excess();
    return result;
}

TruthTable TruthTable::operator&(const TruthTable& other) const
{
    assert(num_vars_ == other.num_vars_);
    TruthTable result{*this};
    for (std::size_t i = 0; i < words_.size(); ++i)
    {
        result.words_[i] &= other.words_[i];
    }
    return result;
}

TruthTable TruthTable::operator|(const TruthTable& other) const
{
    assert(num_vars_ == other.num_vars_);
    TruthTable result{*this};
    for (std::size_t i = 0; i < words_.size(); ++i)
    {
        result.words_[i] |= other.words_[i];
    }
    return result;
}

TruthTable TruthTable::operator^(const TruthTable& other) const
{
    assert(num_vars_ == other.num_vars_);
    TruthTable result{*this};
    for (std::size_t i = 0; i < words_.size(); ++i)
    {
        result.words_[i] ^= other.words_[i];
    }
    return result;
}

bool TruthTable::operator==(const TruthTable& other) const
{
    return num_vars_ == other.num_vars_ && words_ == other.words_;
}

TruthTable TruthTable::flip_var(unsigned var) const
{
    assert(var < num_vars_);
    TruthTable result{num_vars_};
    for (std::uint64_t t = 0; t < num_bits(); ++t)
    {
        result.set_bit(t, get_bit(t ^ (1ULL << var)));
    }
    return result;
}

TruthTable TruthTable::permute_vars(const std::vector<unsigned>& perm) const
{
    assert(perm.size() == num_vars_);
    TruthTable result{num_vars_};
    for (std::uint64_t t = 0; t < num_bits(); ++t)
    {
        // variable i of the result reads original variable perm[i]
        std::uint64_t src = 0;
        for (unsigned i = 0; i < num_vars_; ++i)
        {
            if ((t >> i) & 1ULL)
            {
                src |= 1ULL << perm[i];
            }
        }
        result.set_bit(t, get_bit(src));
    }
    return result;
}

TruthTable TruthTable::extend_to(unsigned new_num_vars) const
{
    assert(new_num_vars >= num_vars_);
    TruthTable result{new_num_vars};
    for (std::uint64_t t = 0; t < result.num_bits(); ++t)
    {
        result.set_bit(t, get_bit(t & (num_bits() - 1)));
    }
    return result;
}

std::string TruthTable::to_binary() const
{
    std::string s;
    s.reserve(num_bits());
    for (std::uint64_t i = 0; i < num_bits(); ++i)
    {
        s.push_back(get_bit(num_bits() - 1 - i) ? '1' : '0');
    }
    return s;
}

std::string TruthTable::to_hex() const
{
    static constexpr char digits[] = "0123456789abcdef";
    const std::uint64_t nibbles = std::max<std::uint64_t>(1, num_bits() / 4);
    std::string s;
    s.reserve(nibbles);
    for (std::uint64_t i = 0; i < nibbles; ++i)
    {
        const std::uint64_t n = nibbles - 1 - i;
        unsigned v = 0;
        for (unsigned b = 0; b < 4; ++b)
        {
            const std::uint64_t idx = n * 4 + b;
            if (idx < num_bits() && get_bit(idx))
            {
                v |= 1U << b;
            }
        }
        s.push_back(digits[v]);
    }
    return s;
}

int TruthTable::compare(const TruthTable& other) const
{
    assert(num_vars_ == other.num_vars_);
    for (std::size_t i = words_.size(); i > 0; --i)
    {
        if (words_[i - 1] < other.words_[i - 1])
        {
            return -1;
        }
        if (words_[i - 1] > other.words_[i - 1])
        {
            return 1;
        }
    }
    return 0;
}

std::size_t TruthTable::hash() const
{
    std::size_t h = std::hash<unsigned>{}(num_vars_);
    for (const auto w : words_)
    {
        h ^= std::hash<std::uint64_t>{}(w) + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
    }
    return h;
}

}  // namespace bestagon::logic
