/// \file dimacs.hpp
/// \brief DIMACS CNF reading and writing for interoperability and testing.

#pragma once

#include "sat/sat_types.hpp"

#include <iosfwd>
#include <string>
#include <vector>

namespace bestagon::sat
{

class Solver;

/// A CNF formula in memory: clauses of non-zero DIMACS literals.
struct Cnf
{
    int num_vars{0};
    std::vector<std::vector<int>> clauses;
};

/// Parses a DIMACS CNF stream. Throws std::runtime_error on malformed input.
[[nodiscard]] Cnf read_dimacs(std::istream& in);

/// Parses a DIMACS CNF string.
[[nodiscard]] Cnf read_dimacs(const std::string& text);

/// Writes a formula in DIMACS CNF format.
void write_dimacs(std::ostream& out, const Cnf& cnf);

/// Loads a CNF into a solver (creating variables as needed).
/// Returns false if the formula is trivially unsatisfiable.
bool load_into_solver(Solver& solver, const Cnf& cnf);

/// Converts solver-level clauses (e.g. Solver::root_clauses()) to a Cnf for
/// proof checking or DIMACS export.
[[nodiscard]] Cnf to_cnf(const std::vector<std::vector<Lit>>& clauses);

}  // namespace bestagon::sat
