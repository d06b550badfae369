/// \file proof.hpp
/// \brief DRAT proof logging for the CDCL solver.
///
/// A MemoryProofTracer attached to a Solver receives every clause the solver
/// derives (learnt clauses, including units and the final empty clause) and
/// every clause it deletes during database reduction. The resulting step
/// sequence is a DRAT proof: each derived clause is RUP (reverse unit
/// propagation) with respect to the formula plus the previously derived,
/// not-yet-deleted clauses, and an unsatisfiability verdict is certified by
/// deriving the empty clause. Proofs are checked independently by
/// proof_check.hpp — the solver is never trusted on its own word.
///
/// The tracer accumulates an in-memory DratProof for programmatic checking;
/// write_drat turns it into the standard textual DRAT format ("d" prefix for
/// deletions, DIMACS literals, 0-terminated) for external tools.

#pragma once

#include "sat/solver.hpp"

#include <iosfwd>
#include <span>
#include <vector>

namespace bestagon::sat
{

/// One DRAT proof step: a clause addition or a clause deletion.
/// Literals use DIMACS conventions (variable v is v+1, negation is -).
struct DratStep
{
    bool is_delete{false};
    std::vector<int> lits;

    friend bool operator==(const DratStep&, const DratStep&) = default;
};

/// An in-memory DRAT proof: the ordered step sequence of one solver run.
struct DratProof
{
    std::vector<DratStep> steps;

    [[nodiscard]] bool empty() const noexcept { return steps.empty(); }

    /// Number of clause-addition steps (the derived lemmas).
    [[nodiscard]] std::size_t num_additions() const noexcept
    {
        std::size_t n = 0;
        for (const auto& s : steps)
        {
            n += s.is_delete ? 0 : 1;
        }
        return n;
    }
};

/// Converts a solver literal to its DIMACS integer.
[[nodiscard]] constexpr int to_dimacs(Lit l) noexcept
{
    return l.sign() ? -(l.var() + 1) : l.var() + 1;
}

/// Receives the solver's derivation stream and accumulates the proof in
/// memory for checking with check_drat_proof(). Tolerates empty clauses
/// (the refutation terminator) and unit clauses.
class MemoryProofTracer
{
  public:
    /// A clause was derived (learnt); it is RUP at this point.
    void add_derived_clause(std::span<const Lit> lits);

    /// A clause was removed from the database.
    void delete_clause(std::span<const Lit> lits);

    [[nodiscard]] const DratProof& proof() const noexcept { return proof_; }
    [[nodiscard]] DratProof take_proof() noexcept { return std::move(proof_); }

  private:
    DratProof proof_;
};

/// Writes \p proof in textual DRAT format.
void write_drat(std::ostream& out, const DratProof& proof);

/// Parses a textual DRAT proof. Throws std::runtime_error on malformed
/// input (non-integer tokens, unterminated steps, literal overflow).
[[nodiscard]] DratProof read_drat(std::istream& in);

/// Parses a textual DRAT proof from a string.
[[nodiscard]] DratProof read_drat(const std::string& text);

}  // namespace bestagon::sat
