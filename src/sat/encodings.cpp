#include "sat/encodings.hpp"

#include <cassert>

namespace bestagon::sat
{

namespace
{

/// Emits \p clause, weakened by ~guard when a guard literal is present.
void emit_guarded(Solver& solver, const std::optional<Lit>& guard, std::vector<Lit> clause)
{
    if (guard.has_value())
    {
        clause.push_back(~*guard);
    }
    solver.add_clause(std::move(clause));
}

}  // namespace

void add_at_most_one(Solver& solver, std::span<const Lit> lits, std::optional<Lit> guard)
{
    const std::size_t n = lits.size();
    if (n <= 1)
    {
        return;
    }
    if (n <= 6)
    {
        for (std::size_t i = 0; i < n; ++i)
        {
            for (std::size_t j = i + 1; j < n; ++j)
            {
                emit_guarded(solver, guard, {~lits[i], ~lits[j]});
            }
        }
        return;
    }
    // sequential (ladder) encoding: s_i == "one of lits[0..i] is true"
    std::vector<Lit> s(n - 1);
    for (auto& l : s)
    {
        l = pos(solver.new_var());
    }
    emit_guarded(solver, guard, {~lits[0], s[0]});
    for (std::size_t i = 1; i + 1 < n; ++i)
    {
        emit_guarded(solver, guard, {~lits[i], s[i]});
        emit_guarded(solver, guard, {~s[i - 1], s[i]});
        emit_guarded(solver, guard, {~lits[i], ~s[i - 1]});
    }
    emit_guarded(solver, guard, {~lits[n - 1], ~s[n - 2]});
}

void add_exactly_one(Solver& solver, std::span<const Lit> lits, std::optional<Lit> guard)
{
    assert(!lits.empty());
    emit_guarded(solver, guard, std::vector<Lit>(lits.begin(), lits.end()));
    add_at_most_one(solver, lits, guard);
}

void add_at_most_k(Solver& solver, std::span<const Lit> lits, unsigned k)
{
    const std::size_t n = lits.size();
    if (n <= k)
    {
        return;
    }
    if (k == 0)
    {
        for (const auto l : lits)
        {
            solver.add_clause(~l);
        }
        return;
    }
    if (k == 1)
    {
        add_at_most_one(solver, lits);
        return;
    }
    // Sinz sequential counter: r[i][j] == "at least j+1 of lits[0..i] true"
    std::vector<std::vector<Lit>> r(n, std::vector<Lit>(k));
    for (std::size_t i = 0; i < n; ++i)
    {
        for (unsigned j = 0; j < k; ++j)
        {
            r[i][j] = pos(solver.new_var());
        }
    }
    solver.add_clause(~lits[0], r[0][0]);
    for (unsigned j = 1; j < k; ++j)
    {
        solver.add_clause(~r[0][j]);
    }
    for (std::size_t i = 1; i < n; ++i)
    {
        solver.add_clause(~lits[i], r[i][0]);
        solver.add_clause(~r[i - 1][0], r[i][0]);
        for (unsigned j = 1; j < k; ++j)
        {
            solver.add_clause(~lits[i], ~r[i - 1][j - 1], r[i][j]);
            solver.add_clause(~r[i - 1][j], r[i][j]);
        }
        solver.add_clause(~lits[i], ~r[i - 1][k - 1]);
    }
}

void add_at_least_k(Solver& solver, std::span<const Lit> lits, unsigned k)
{
    if (k == 0)
    {
        return;
    }
    // at_least_k(X) == at_most_(n-k)(~X)
    std::vector<Lit> negated;
    negated.reserve(lits.size());
    for (const auto l : lits)
    {
        negated.push_back(~l);
    }
    assert(lits.size() >= k);
    add_at_most_k(solver, negated, static_cast<unsigned>(lits.size() - k));
}

void encode_and(Solver& solver, Lit out, Lit a, Lit b)
{
    solver.add_clause(~out, a);
    solver.add_clause(~out, b);
    solver.add_clause(out, ~a, ~b);
}

void encode_or(Solver& solver, Lit out, Lit a, Lit b)
{
    solver.add_clause(out, ~a);
    solver.add_clause(out, ~b);
    solver.add_clause(~out, a, b);
}

void encode_xor(Solver& solver, Lit out, Lit a, Lit b)
{
    solver.add_clause(~out, a, b);
    solver.add_clause(~out, ~a, ~b);
    solver.add_clause(out, ~a, b);
    solver.add_clause(out, a, ~b);
}

void encode_maj(Solver& solver, Lit out, Lit a, Lit b, Lit c)
{
    solver.add_clause(~out, a, b);
    solver.add_clause(~out, a, c);
    solver.add_clause(~out, b, c);
    solver.add_clause(out, ~a, ~b);
    solver.add_clause(out, ~a, ~c);
    solver.add_clause(out, ~b, ~c);
}

void encode_buf(Solver& solver, Lit out, Lit a)
{
    solver.add_clause(~out, a);
    solver.add_clause(out, ~a);
}

Lit tseitin_and(Solver& solver, Lit a, Lit b)
{
    const Lit out = pos(solver.new_var());
    encode_and(solver, out, a, b);
    return out;
}

Lit tseitin_or(Solver& solver, Lit a, Lit b)
{
    const Lit out = pos(solver.new_var());
    encode_or(solver, out, a, b);
    return out;
}

Lit tseitin_xor(Solver& solver, Lit a, Lit b)
{
    const Lit out = pos(solver.new_var());
    encode_xor(solver, out, a, b);
    return out;
}

Lit tseitin_and(Solver& solver, std::span<const Lit> ins)
{
    assert(!ins.empty());
    const Lit out = pos(solver.new_var());
    std::vector<Lit> clause;
    clause.reserve(ins.size() + 1);
    clause.push_back(out);
    for (const auto l : ins)
    {
        solver.add_clause(~out, l);
        clause.push_back(~l);
    }
    solver.add_clause(std::move(clause));
    return out;
}

Lit tseitin_or(Solver& solver, std::span<const Lit> ins)
{
    assert(!ins.empty());
    const Lit out = pos(solver.new_var());
    std::vector<Lit> clause;
    clause.reserve(ins.size() + 1);
    clause.push_back(~out);
    for (const auto l : ins)
    {
        solver.add_clause(out, ~l);
        clause.push_back(l);
    }
    solver.add_clause(std::move(clause));
    return out;
}

}  // namespace bestagon::sat
