/// \file sat_types.hpp
/// \brief Core propositional types shared by every SAT component.
///
/// Variables, literals, three-valued assignments, solve results and solver
/// statistics live here so that the CDCL solver (solver.hpp), the clause
/// arena (clause_allocator.hpp), DIMACS I/O and the proof checker can all be
/// included independently, and so that headers which only report verdicts
/// (e.g. layout/exact_physical_design.hpp) need not pull in the solver.

#pragma once

#include <compare>
#include <cstdint>

namespace bestagon::sat
{

/// Boolean variable, 0-based.
using Var = std::int32_t;

/// A literal encodes a variable and a polarity as 2*var + (negated ? 1 : 0).
struct Lit
{
    std::int32_t x{-2};

    constexpr Lit() = default;
    constexpr Lit(Var v, bool negated) : x{2 * v + (negated ? 1 : 0)} {}

    [[nodiscard]] constexpr Var var() const noexcept { return x >> 1; }
    [[nodiscard]] constexpr bool sign() const noexcept { return (x & 1) != 0; }
    [[nodiscard]] constexpr Lit operator~() const noexcept
    {
        Lit l{};
        l.x = x ^ 1;
        return l;
    }
    constexpr auto operator<=>(const Lit&) const = default;
};

/// Positive literal of variable \p v.
[[nodiscard]] constexpr Lit pos(Var v) noexcept { return Lit{v, false}; }
/// Negative literal of variable \p v.
[[nodiscard]] constexpr Lit neg(Var v) noexcept { return Lit{v, true}; }

inline constexpr Lit lit_undef{};

/// Three-valued logic for assignments.
enum class LBool : std::uint8_t
{
    false_,
    true_,
    undef
};

[[nodiscard]] constexpr LBool lbool_from(bool b) noexcept
{
    return b ? LBool::true_ : LBool::false_;
}

/// Outcome of a call to Solver::solve().
enum class Result : std::uint8_t
{
    satisfiable,
    unsatisfiable,
    unknown  ///< resource budget exhausted
};

/// Runtime statistics of a solver instance.
struct SolverStats
{
    std::uint64_t conflicts{0};
    std::uint64_t decisions{0};
    std::uint64_t propagations{0};
    std::uint64_t restarts{0};
    std::uint64_t learnt_clauses{0};
    std::uint64_t deleted_clauses{0};
};

}  // namespace bestagon::sat
