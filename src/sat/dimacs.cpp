#include "sat/dimacs.hpp"

#include "sat/solver.hpp"

#include <cstdlib>
#include <istream>
#include <limits>
#include <ostream>
#include <sstream>
#include <stdexcept>

namespace bestagon::sat
{

namespace
{

/// Practical ceiling on variable indices and clause counts: large enough for
/// any formula this code base emits, small enough to catch overflowed or
/// corrupted headers before they drive an allocation.
constexpr long long max_dimacs_value = 50'000'000LL;

/// Parses \p token as a bounded integer, rejecting partial parses
/// ("12x"), overflow, and values beyond the sanity ceiling.
long long parse_int_token(const std::string& token, const char* what)
{
    std::size_t consumed = 0;
    long long value = 0;
    try
    {
        value = std::stoll(token, &consumed);
    }
    catch (const std::exception&)
    {
        throw std::runtime_error{std::string{"dimacs: "} + what + " is not an integer: '" + token +
                                 "'"};
    }
    if (consumed != token.size())
    {
        throw std::runtime_error{std::string{"dimacs: trailing garbage in "} + what + ": '" +
                                 token + "'"};
    }
    if (std::llabs(value) > max_dimacs_value)
    {
        throw std::runtime_error{std::string{"dimacs: "} + what + " out of range: '" + token +
                                 "'"};
    }
    return value;
}

}  // namespace

Cnf read_dimacs(std::istream& in)
{
    Cnf cnf;
    std::string line;
    bool header_seen = false;
    long long declared_clauses = -1;
    std::vector<int> current;
    while (std::getline(in, line))
    {
        if (line.empty() || line[0] == 'c')
        {
            continue;
        }
        if (line[0] == 'p')
        {
            if (header_seen)
            {
                throw std::runtime_error{"dimacs: duplicate problem line: " + line};
            }
            if (!cnf.clauses.empty() || !current.empty())
            {
                throw std::runtime_error{"dimacs: problem line after clause data: " + line};
            }
            std::istringstream iss{line};
            std::string p, fmt, nv_tok, nc_tok;
            if (!(iss >> p >> fmt >> nv_tok >> nc_tok) || fmt != "cnf")
            {
                throw std::runtime_error{"dimacs: malformed problem line: " + line};
            }
            std::string extra;
            if (iss >> extra)
            {
                throw std::runtime_error{"dimacs: trailing garbage in problem line: " + line};
            }
            const long long nv = parse_int_token(nv_tok, "variable count");
            const long long nc = parse_int_token(nc_tok, "clause count");
            if (nv < 0 || nc < 0)
            {
                throw std::runtime_error{"dimacs: negative count in problem line: " + line};
            }
            cnf.num_vars = static_cast<int>(nv);
            declared_clauses = nc;
            header_seen = true;
            continue;
        }
        std::istringstream iss{line};
        std::string token;
        while (iss >> token)
        {
            const long long value = parse_int_token(token, "literal");
            if (value == 0)
            {
                cnf.clauses.push_back(current);
                current.clear();
                continue;
            }
            const long long var = std::llabs(value);
            if (header_seen && var > cnf.num_vars)
            {
                throw std::runtime_error{"dimacs: literal " + token + " exceeds declared " +
                                         std::to_string(cnf.num_vars) + " variables"};
            }
            if (!header_seen && var > cnf.num_vars)
            {
                cnf.num_vars = static_cast<int>(var);
            }
            current.push_back(static_cast<int>(value));
        }
    }
    if (!current.empty())
    {
        throw std::runtime_error{"dimacs: unterminated final clause (missing 0)"};
    }
    if (!header_seen && cnf.clauses.empty())
    {
        throw std::runtime_error{"dimacs: no problem line and no clauses"};
    }
    if (declared_clauses >= 0 && static_cast<long long>(cnf.clauses.size()) > declared_clauses)
    {
        throw std::runtime_error{"dimacs: " + std::to_string(cnf.clauses.size()) +
                                 " clauses exceed the declared " +
                                 std::to_string(declared_clauses)};
    }
    return cnf;
}

Cnf read_dimacs(const std::string& text)
{
    std::istringstream iss{text};
    return read_dimacs(iss);
}

void write_dimacs(std::ostream& out, const Cnf& cnf)
{
    out << "p cnf " << cnf.num_vars << ' ' << cnf.clauses.size() << '\n';
    for (const auto& clause : cnf.clauses)
    {
        for (const auto lit : clause)
        {
            out << lit << ' ';
        }
        out << "0\n";
    }
}

bool load_into_solver(Solver& solver, const Cnf& cnf)
{
    while (solver.num_vars() < cnf.num_vars)
    {
        static_cast<void>(solver.new_var());
    }
    for (const auto& clause : cnf.clauses)
    {
        std::vector<Lit> lits;
        lits.reserve(clause.size());
        for (const auto l : clause)
        {
            const Var v = std::abs(l) - 1;
            while (solver.num_vars() <= v)
            {
                static_cast<void>(solver.new_var());
            }
            lits.push_back(Lit{v, l < 0});
        }
        if (!solver.add_clause(std::move(lits)))
        {
            return false;
        }
    }
    return true;
}

Cnf to_cnf(const std::vector<std::vector<Lit>>& clauses)
{
    Cnf cnf;
    cnf.clauses.reserve(clauses.size());
    for (const auto& clause : clauses)
    {
        std::vector<int> out;
        out.reserve(clause.size());
        for (const auto l : clause)
        {
            const int d = l.sign() ? -(l.var() + 1) : l.var() + 1;
            out.push_back(d);
            if (std::abs(d) > cnf.num_vars)
            {
                cnf.num_vars = std::abs(d);
            }
        }
        cnf.clauses.push_back(std::move(out));
    }
    return cnf;
}

}  // namespace bestagon::sat
