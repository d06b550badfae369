/// \file truth_table.hpp
/// \brief Dynamic truth tables for Boolean functions of up to 16 variables.
///
/// The bit at position t (minterm index) stores f(t) where bit i of t is the
/// value of variable i. This is the workhorse for cut functions, NPN
/// canonization, exact synthesis and functional verification.

#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace bestagon::logic
{

/// A truth table over a fixed number of variables (0..16).
class TruthTable
{
  public:
    /// Constructs the constant-0 function over \p num_vars variables.
    explicit TruthTable(unsigned num_vars = 0);

    /// Constructs from a binary string, MSB first (bit for the highest
    /// minterm index comes first), e.g. "1000" is AND of 2 variables.
    static TruthTable from_binary(const std::string& bits);

    /// Constructs from a hex string, MSB first, for num_vars >= 2.
    static TruthTable from_hex(unsigned num_vars, const std::string& hex);

    /// Projection onto variable \p var.
    static TruthTable nth_var(unsigned num_vars, unsigned var, bool complemented = false);

    /// Constant function.
    static TruthTable constant(unsigned num_vars, bool value);

    /// The function of \p num_vars <= 6 variables whose 2^num_vars bits are
    /// the low bits of \p word (higher bits of \p word are ignored).
    static TruthTable from_word(unsigned num_vars, std::uint64_t word);

    [[nodiscard]] unsigned num_vars() const noexcept { return num_vars_; }
    [[nodiscard]] std::uint64_t num_bits() const noexcept { return 1ULL << num_vars_; }

    [[nodiscard]] bool get_bit(std::uint64_t index) const;
    void set_bit(std::uint64_t index, bool value);

    [[nodiscard]] std::uint64_t count_ones() const;
    [[nodiscard]] bool is_const0() const;
    [[nodiscard]] bool is_const1() const;

    /// True if the function equals projection onto some variable (possibly
    /// complemented); the variable index is written to \p var.
    [[nodiscard]] bool is_projection(unsigned& var, bool& complemented) const;

    /// True if the function functionally depends on variable \p var.
    [[nodiscard]] bool depends_on(unsigned var) const;

    // bitwise operations (operands must have equal num_vars)
    [[nodiscard]] TruthTable operator~() const;
    [[nodiscard]] TruthTable operator&(const TruthTable& other) const;
    [[nodiscard]] TruthTable operator|(const TruthTable& other) const;
    [[nodiscard]] TruthTable operator^(const TruthTable& other) const;
    bool operator==(const TruthTable& other) const;

    /// f with input variable \p var complemented.
    [[nodiscard]] TruthTable flip_var(unsigned var) const;

    /// f with variables permuted: result(x_0, ..) = f(x_{perm[0]}, ..).
    /// I.e. input i of the result reads original input perm[i].
    [[nodiscard]] TruthTable permute_vars(const std::vector<unsigned>& perm) const;

    /// Extends to a function of \p new_num_vars >= num_vars() variables that
    /// ignores the added (most significant) variables.
    [[nodiscard]] TruthTable extend_to(unsigned new_num_vars) const;

    /// Hexadecimal string representation, MSB first.
    [[nodiscard]] std::string to_hex() const;
    /// Binary string representation, MSB first.
    [[nodiscard]] std::string to_binary() const;

    /// Lexicographic comparison on the bit content (for canonization).
    [[nodiscard]] int compare(const TruthTable& other) const;

    [[nodiscard]] std::size_t hash() const;

    [[nodiscard]] const std::vector<std::uint64_t>& words() const noexcept { return words_; }

  private:
    void mask_off_excess();

    unsigned num_vars_;
    std::vector<std::uint64_t> words_;
};

struct TruthTableHash
{
    std::size_t operator()(const TruthTable& tt) const { return tt.hash(); }
};

}  // namespace bestagon::logic
