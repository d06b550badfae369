/// \file fuzz_sat.cpp
/// \brief Differential fuzzing of the CDCL solver against model checking,
///        DRAT certification and brute-force enumeration, plus mutation
///        coverage of the oracle itself, and of Solver::load() against the
///        add_clause() path it replaces.

#include "sat/proof.hpp"
#include "sat/solver.hpp"
#include "testing/oracles.hpp"
#include "testing/random.hpp"
#include "testing/reproducer.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <tuple>
#include <vector>

namespace
{

using namespace bestagon;

TEST(FuzzSat, CdclAgreesWithBruteForceOnRandomCnfs)
{
    const auto budget = testkit::fuzz_budget(0x5a7'0001, 150);
    for (std::uint64_t i = 0; i < budget.iterations; ++i)
    {
        testkit::Rng rng{testkit::case_seed(budget.base_seed, i)};
        const auto cnf = testkit::random_cnf(rng);
        const auto verdict = testkit::sat_differential(cnf);
        ASSERT_TRUE(verdict.ok) << verdict.detail << '\n'
                                << testkit::reproducer("sat", budget.base_seed, i);
    }
}

TEST(FuzzSat, DenseSmallCnfsExerciseTheUnsatPath)
{
    const auto budget = testkit::fuzz_budget(0x5a7'0002, 80);
    testkit::CnfOptions options;
    options.min_vars = 3;
    options.max_vars = 8;
    options.max_clause_len = 3;
    options.clause_ratio_min = 4.0;  // beyond the 3-SAT threshold: mostly UNSAT
    options.clause_ratio_max = 8.0;
    unsigned unsat_seen = 0;
    unsigned certified = 0;
    for (std::uint64_t i = 0; i < budget.iterations; ++i)
    {
        testkit::Rng rng{testkit::case_seed(budget.base_seed, i)};
        testkit::SatOracleStats stats;
        const auto verdict = testkit::sat_differential(testkit::random_cnf(rng, options), 20,
                                                       testkit::SatFault::none, &stats);
        ASSERT_TRUE(verdict.ok) << verdict.detail << '\n'
                                << testkit::reproducer("sat-unsat", budget.base_seed, i);
        unsat_seen += stats.unsat ? 1 : 0;
        certified += stats.proof_checked ? 1 : 0;
    }
    // every UNSAT answer must have been DRAT-certified, and the dense regime
    // must actually have produced UNSAT instances for that to mean anything
    EXPECT_GT(unsat_seen, 0U) << "dense regime produced no UNSAT instances";
    EXPECT_EQ(certified, unsat_seen);
}

/// Mutation coverage: a solver that misreports SAT<->UNSAT must be caught on
/// every random instance, and the failure must carry a replayable seed.
TEST(FuzzSat, OracleCatchesFlippedResults)
{
    const auto budget = testkit::fuzz_budget(0x5a7'0003, 20);
    for (std::uint64_t i = 0; i < budget.iterations; ++i)
    {
        testkit::Rng rng{testkit::case_seed(budget.base_seed, i)};
        testkit::CnfOptions options;
        options.max_vars = 12;  // keep the UNSAT->brute-force sweep instant
        const auto cnf = testkit::random_cnf(rng, options);
        const auto verdict =
            testkit::sat_differential(cnf, 20, testkit::SatFault::flip_reported_result);
        ASSERT_FALSE(verdict.ok) << "oracle missed a flipped SAT/UNSAT answer\n"
                                 << testkit::reproducer("sat-mutation", budget.base_seed, i);
        const auto repro = testkit::reproducer("sat-mutation", budget.base_seed, i);
        EXPECT_NE(repro.find("[bestagon-repro]"), std::string::npos);
        EXPECT_NE(repro.find("BESTAGON_FUZZ_SEED=0x"), std::string::npos);
    }
}

/// Fault injection on the proof channel: a solver whose learnt clauses are
/// dropped from the DRAT stream must be rejected by the checker. PHP(3,2)
/// has no unit clauses, so the formula alone can never propagate to conflict
/// and the gutted proof's empty clause is provably not RUP.
TEST(FuzzSat, OracleRejectsDroppedProofLemmas)
{
    sat::Cnf php;  // pigeons 1..3, holes 1..2; var = 2*(pigeon-1) + hole
    php.num_vars = 6;
    php.clauses = {{1, 2}, {3, 4}, {5, 6},              // each pigeon in a hole
                   {-1, -3}, {-1, -5}, {-3, -5},        // hole 1 at most once
                   {-2, -4}, {-2, -6}, {-4, -6}};       // hole 2 at most once
    testkit::SatOracleStats stats;
    const auto verdict =
        testkit::sat_differential(php, 20, testkit::SatFault::drop_proof_lemmas, &stats);
    ASSERT_FALSE(verdict.ok) << "checker accepted a proof stripped of its lemmas";
    EXPECT_TRUE(stats.unsat);
    EXPECT_FALSE(stats.proof_checked);
    EXPECT_NE(verdict.detail.find("DRAT certification"), std::string::npos) << verdict.detail;

    // the same instance certifies cleanly when the proof is left intact
    const auto clean = testkit::sat_differential(php, 20, testkit::SatFault::none, &stats);
    EXPECT_TRUE(clean.ok) << clean.detail;
    EXPECT_TRUE(stats.proof_checked);
}

TEST(FuzzSat, OracleCatchesCorruptedModels)
{
    // var 1 is forced true; corrupting the model flips it and must be caught
    sat::Cnf cnf;
    cnf.num_vars = 1;
    cnf.clauses = {{1}};
    const auto verdict = testkit::sat_differential(cnf, 20, testkit::SatFault::corrupt_model);
    ASSERT_FALSE(verdict.ok);
    EXPECT_NE(verdict.detail.find("violates clause"), std::string::npos);
}

/// A random formula for the two ways of loading a solver, with what
/// add_clause() simplifies: duplicate literals, tautologies, clauses
/// weakened by a guard that the solve assumes, variables no clause names,
/// and at times a unit or the empty clause in the middle.
struct LoadCase
{
    int num_vars{0};
    std::vector<std::vector<sat::Lit>> clauses;
    std::vector<sat::Lit> assumptions;  ///< the guards
};

LoadCase random_load_case(testkit::Rng& rng)
{
    LoadCase c;
    // one case in eight is random 3-SAT near the threshold, hard enough to
    // reach learnt-clause deletion and collection
    const bool hard = rng.chance(0.125);
    const auto vars = hard ? rng.range(140, 180) : rng.range(4, 60);
    c.num_vars = static_cast<int>(vars);
    std::vector<bool> unused(vars, false);
    for (auto k = rng.range(0, 3); k > 0; --k)
    {
        unused[rng.below(vars)] = true;
    }
    std::vector<sat::Var> guards;
    for (auto k = rng.range(0, 2); k > 0; --k)
    {
        const auto g = static_cast<sat::Var>(rng.below(vars));
        unused[static_cast<std::size_t>(g)] = true;  // named only as a guard
        guards.push_back(g);
        c.assumptions.push_back(sat::pos(g));
    }
    const auto literal = [&] {
        sat::Var v = 0;
        do
        {
            v = static_cast<sat::Var>(rng.below(vars));
        } while (unused[static_cast<std::size_t>(v)]);
        return sat::Lit{v, rng.chance(0.5)};
    };
    if (std::count(unused.begin(), unused.end(), false) == 0)
    {
        unused[0] = false;
        std::erase(guards, 0);
        std::erase(c.assumptions, sat::pos(0));
    }

    const auto ratio = hard ? 4.2 + 0.1 * rng.real() : 2.0 + 3.0 * rng.real();
    const auto count = static_cast<std::size_t>(vars * ratio);
    for (std::size_t i = 0; i < count; ++i)
    {
        std::vector<sat::Lit> clause;
        for (auto k = hard ? 3 : rng.range(2, 4); k > 0; --k)
        {
            clause.push_back(literal());
        }
        if (rng.chance(0.15))
        {
            clause.push_back(clause[rng.below(clause.size())]);  // duplicate
        }
        if (rng.chance(0.05))
        {
            clause.push_back(~clause[rng.below(clause.size())]);  // tautology
        }
        if (!guards.empty() && rng.chance(0.3))
        {
            clause.push_back(sat::neg(guards[rng.below(guards.size())]));
        }
        c.clauses.push_back(std::move(clause));
    }
    // a unit (given twice, at times) or the empty clause somewhere inside
    if (rng.chance(0.6))
    {
        const auto l = literal();
        std::vector<sat::Lit> unit(rng.chance(0.3) ? 2 : 1, l);
        c.clauses.insert(c.clauses.begin() + static_cast<std::ptrdiff_t>(rng.below(count)), unit);
    }
    if (rng.chance(0.1))
    {
        c.clauses.insert(c.clauses.begin() + static_cast<std::ptrdiff_t>(rng.below(count)),
                         std::vector<sat::Lit>{});
    }
    return c;
}

/// Feeds \p c to \p sink as an encoder would: each variable is created
/// just before the first clause that names it, the rest at the end.
template <class Sink>
void feed(const LoadCase& c, Sink& sink)
{
    sat::Var created = 0;
    for (const auto& clause : c.clauses)
    {
        sat::Var top = -1;
        for (const auto l : clause)
        {
            top = std::max(top, l.var());
        }
        for (; created <= top; ++created)
        {
            sink.new_var();
        }
        sink.add_clause(clause);
    }
    for (; created < c.num_vars; ++created)
    {
        sink.new_var();
    }
}

/// What one solve of a loaded solver shows.
struct LoadRun
{
    bool loaded{false};  ///< load()'s or the last add_clause()'s verdict
    sat::Result result{sat::Result::unknown};
    std::tuple<std::uint64_t, std::uint64_t, std::uint64_t, std::uint64_t, std::uint64_t,
               std::uint64_t>
        stats;
    std::vector<bool> model;
    std::vector<int> core;                       ///< DIMACS literals
    std::vector<std::vector<int>> root_clauses;  ///< DIMACS literals
    sat::DratProof proof;
};

std::vector<int> to_dimacs(std::span<const sat::Lit> lits)
{
    std::vector<int> out;
    for (const auto l : lits)
    {
        out.push_back(sat::to_dimacs(l));
    }
    return out;
}

LoadRun solve_case(const LoadCase& c, bool through_buffer)
{
    LoadRun run;
    sat::Solver solver;
    if (through_buffer)
    {
        sat::ClauseBuffer buffer;
        feed(c, buffer);
        run.loaded = solver.load(buffer);
    }
    else
    {
        struct Direct
        {
            sat::Solver& solver;
            bool ok{true};
            void new_var() { solver.new_var(); }
            void add_clause(const std::vector<sat::Lit>& clause) { ok = solver.add_clause(clause); }
        } direct{solver};
        feed(c, direct);
        run.loaded = direct.ok;
    }
    for (const auto& clause : solver.root_clauses())
    {
        run.root_clauses.push_back(to_dimacs(clause));
    }
    solver.set_gc_wasted_fraction(0.0);  // collect after every reduction
    sat::MemoryProofTracer tracer;
    solver.set_proof_tracer(&tracer);
    run.result = solver.solve(c.assumptions);
    const auto& s = solver.stats();
    run.stats = {s.conflicts, s.decisions, s.propagations, s.restarts, s.learnt_clauses,
                 s.deleted_clauses};
    if (run.result == sat::Result::satisfiable)
    {
        for (sat::Var v = 0; v < solver.num_vars(); ++v)
        {
            run.model.push_back(solver.model_value(v));
        }
    }
    run.core = to_dimacs(solver.final_conflict());
    run.proof = tracer.take_proof();
    return run;
}

/// Solver::load() must leave a solver exactly as the same new_var() /
/// add_clause() sequence does: same verdict, statistics, model, core,
/// root-formula snapshot and DRAT proof.
TEST(FuzzSat, LoadMatchesAddClause)
{
    const auto budget = testkit::fuzz_budget(0x5a7'0004, 200);
    unsigned unsat = 0;
    unsigned conflicting_loads = 0;
    unsigned deleting = 0;
    for (std::uint64_t i = 0; i < budget.iterations; ++i)
    {
        testkit::Rng rng{testkit::case_seed(budget.base_seed, i)};
        const auto c = random_load_case(rng);
        const auto loaded = solve_case(c, /*through_buffer=*/true);
        const auto added = solve_case(c, /*through_buffer=*/false);
        const auto repro = testkit::reproducer("sat-load", budget.base_seed, i);
        ASSERT_EQ(loaded.loaded, added.loaded) << repro;
        ASSERT_EQ(loaded.result, added.result) << repro;
        ASSERT_EQ(loaded.stats, added.stats) << repro;
        ASSERT_EQ(loaded.model, added.model) << repro;
        ASSERT_EQ(loaded.core, added.core) << repro;
        ASSERT_EQ(loaded.root_clauses, added.root_clauses) << repro;
        ASSERT_EQ(loaded.proof.steps, added.proof.steps) << repro;
        unsat += loaded.result == sat::Result::unsatisfiable ? 1 : 0;
        conflicting_loads += loaded.loaded ? 0 : 1;
        deleting += std::get<5>(loaded.stats) > 0 ? 1 : 0;
    }
    // both verdicts, a formula refuted while loading and a search that
    // deletes learnt clauses must all occur
    EXPECT_GT(unsat, 0U);
    EXPECT_LT(unsat, budget.iterations);
    EXPECT_GT(conflicting_loads, 0U);
    EXPECT_GT(deleting, 0U);
}

}  // namespace
