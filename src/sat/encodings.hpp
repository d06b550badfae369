/// \file encodings.hpp
/// \brief CNF encoding utilities: Tseitin gate encodings, at-most-one,
///        exactly-one, and sequential-counter cardinality constraints.
///
/// These are the building blocks for the exact physical-design encoding and
/// for the equivalence-checking miter construction.

#pragma once

#include "sat/solver.hpp"

#include <optional>
#include <span>
#include <vector>

namespace bestagon::sat
{

/// Adds clauses enforcing that at most one of \p lits is true.
/// Uses pairwise encoding for small inputs and a commander-style
/// sequential encoding for larger ones.
///
/// When \p guard is given, every emitted clause c becomes (~guard v c), so
/// the constraint is only enforced while guard is assumed true. This powers
/// unsat-core extraction over constraint groups: solve under the guards as
/// assumptions and read Solver::final_conflict(). Auxiliary ladder variables
/// stay sound — a false guard satisfies all of their defining clauses.
void add_at_most_one(Solver& solver, std::span<const Lit> lits,
                     std::optional<Lit> guard = std::nullopt);
/// Emits the same variables and clauses into a ClauseBuffer.
void add_at_most_one(ClauseBuffer& buffer, std::span<const Lit> lits,
                     std::optional<Lit> guard = std::nullopt);

/// Adds clauses enforcing that exactly one of \p lits is true; an empty
/// \p lits adds the empty clause (no literal can be the one).
/// \p guard has the same semantics as in add_at_most_one().
void add_exactly_one(Solver& solver, std::span<const Lit> lits,
                     std::optional<Lit> guard = std::nullopt);
/// Emits the same variables and clauses into a ClauseBuffer.
void add_exactly_one(ClauseBuffer& buffer, std::span<const Lit> lits,
                     std::optional<Lit> guard = std::nullopt);

/// Adds clauses enforcing that at most \p k of \p lits are true
/// (sequential counter encoding by Sinz).
void add_at_most_k(Solver& solver, std::span<const Lit> lits, unsigned k);

/// Adds clauses enforcing that at least \p k of \p lits are true.
void add_at_least_k(Solver& solver, std::span<const Lit> lits, unsigned k);

/// Tseitin encodings. Each returns a fresh literal constrained to equal the
/// given function of the operands.
[[nodiscard]] Lit tseitin_and(Solver& solver, Lit a, Lit b);
[[nodiscard]] Lit tseitin_or(Solver& solver, Lit a, Lit b);
[[nodiscard]] Lit tseitin_xor(Solver& solver, Lit a, Lit b);
[[nodiscard]] Lit tseitin_and(Solver& solver, std::span<const Lit> ins);
[[nodiscard]] Lit tseitin_or(Solver& solver, std::span<const Lit> ins);

/// Adds clauses asserting out == (a AND b) without creating a variable.
void encode_and(Solver& solver, Lit out, Lit a, Lit b);
/// Adds clauses asserting out == (a OR b).
void encode_or(Solver& solver, Lit out, Lit a, Lit b);
/// Adds clauses asserting out == (a XOR b).
void encode_xor(Solver& solver, Lit out, Lit a, Lit b);
/// Adds clauses asserting out == MAJ(a, b, c).
void encode_maj(Solver& solver, Lit out, Lit a, Lit b, Lit c);

}  // namespace bestagon::sat
