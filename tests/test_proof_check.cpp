#include "sat/proof_check.hpp"

#include "sat/dimacs.hpp"
#include "sat/proof.hpp"
#include "sat/solver.hpp"

#include <gtest/gtest.h>

#include <random>
#include <sstream>
#include <vector>

namespace
{

using namespace bestagon::sat;

/// Builds the pigeonhole principle PHP(n+1, n) in \p s.
void build_php(Solver& s, const int n)
{
    std::vector<std::vector<Var>> x(static_cast<std::size_t>(n + 1));
    for (auto& row : x)
    {
        for (int h = 0; h < n; ++h)
        {
            row.push_back(s.new_var());
        }
    }
    for (const auto& row : x)
    {
        std::vector<Lit> clause;
        for (const auto v : row)
        {
            clause.push_back(pos(v));
        }
        s.add_clause(clause);
    }
    for (int h = 0; h < n; ++h)
    {
        for (std::size_t p1 = 0; p1 < x.size(); ++p1)
        {
            for (std::size_t p2 = p1 + 1; p2 < x.size(); ++p2)
            {
                s.add_clause(neg(x[p1][static_cast<std::size_t>(h)]),
                             neg(x[p2][static_cast<std::size_t>(h)]));
            }
        }
    }
}

TEST(ProofCheck, PigeonholeRefutationCertifies)
{
    for (int n = 2; n <= 5; ++n)
    {
        Solver s;
        MemoryProofTracer tracer;
        s.set_proof_tracer(&tracer);
        build_php(s, n);
        ASSERT_EQ(s.solve(), Result::unsatisfiable) << "PHP(" << n + 1 << "," << n << ")";

        const auto cnf = to_cnf(s.root_clauses());
        const auto res = check_drat_proof(cnf, tracer.proof());
        EXPECT_TRUE(res.valid) << "n=" << n << ": " << res.error;
        EXPECT_GT(res.num_lemmas, 0U);
        EXPECT_GT(res.core_formula_clauses, 0U);
    }
}

TEST(ProofCheck, DroppedLearntClausesAreRejected)
{
    // fault injection: strip every learnt addition except the terminal empty
    // clause. Because the proof contains learnt lemmas, root-level unit
    // propagation over the formula alone cannot conflict, so the gutted
    // proof MUST be rejected.
    Solver s;
    MemoryProofTracer tracer;
    s.set_proof_tracer(&tracer);
    build_php(s, 4);
    ASSERT_EQ(s.solve(), Result::unsatisfiable);

    const auto full = tracer.proof();
    ASSERT_GT(full.num_additions(), 1U);

    DratProof gutted;
    gutted.steps.push_back({false, {}});  // keep only "add empty clause"

    const auto cnf = to_cnf(s.root_clauses());
    ASSERT_TRUE(check_drat_proof(cnf, full).valid);
    const auto res = check_drat_proof(cnf, gutted);
    EXPECT_FALSE(res.valid);
    EXPECT_FALSE(res.error.empty());
}

TEST(ProofCheck, DroppedSingleLemmaOnCraftedInstanceIsRejected)
{
    // x1..x4 with XOR-like constraints whose refutation needs real learning;
    // removing the first learnt lemma breaks the derivation chain.
    Solver s;
    MemoryProofTracer tracer;
    s.set_proof_tracer(&tracer);
    for (int i = 0; i < 4; ++i)
    {
        s.new_var();
    }
    // parity chain: x1 xor x2, x2 xor x3, x3 xor x4, x1 = x4 (contradiction)
    s.add_clause(pos(0), pos(1));
    s.add_clause(neg(0), neg(1));
    s.add_clause(pos(1), pos(2));
    s.add_clause(neg(1), neg(2));
    s.add_clause(pos(2), pos(3));
    s.add_clause(neg(2), neg(3));
    s.add_clause(pos(0), neg(3));
    s.add_clause(neg(0), pos(3));
    ASSERT_EQ(s.solve(), Result::unsatisfiable);

    const auto full = tracer.proof();
    const auto cnf = to_cnf(s.root_clauses());
    ASSERT_TRUE(check_drat_proof(cnf, full).valid);

    // dropping all additions but the last must fail; in this tiny instance
    // dropping just the first learnt lemma is also fatal
    DratProof faulty;
    bool skipped_one = false;
    for (const auto& step : full.steps)
    {
        if (!step.is_delete && !step.lits.empty() && !skipped_one)
        {
            skipped_one = true;
            continue;
        }
        faulty.steps.push_back(step);
    }
    ASSERT_TRUE(skipped_one);
    EXPECT_FALSE(check_drat_proof(cnf, faulty).valid);
}

TEST(ProofCheck, BogusLemmaRejectedInAllLemmasMode)
{
    Cnf cnf;
    cnf.num_vars = 2;
    cnf.clauses = {{1, 2}};
    DratProof proof;
    proof.steps.push_back({false, {1}});  // (x1) is not RUP w.r.t. (x1 v x2)
    const auto res = check_drat_proof(cnf, proof, ProofCheckMode::all_lemmas);
    EXPECT_FALSE(res.valid);
    EXPECT_NE(res.error.find("not RUP"), std::string::npos) << res.error;
}

TEST(ProofCheck, MissingEmptyClauseRejected)
{
    Cnf cnf;
    cnf.num_vars = 2;
    cnf.clauses = {{1, 2}, {-1, 2}};
    DratProof proof;
    proof.steps.push_back({false, {2}});  // valid RUP lemma, but no refutation
    EXPECT_FALSE(check_drat_proof(cnf, proof).valid);
    EXPECT_TRUE(check_drat_proof(cnf, proof, ProofCheckMode::all_lemmas).valid);
}

TEST(ProofCheck, HandwrittenProofWithDeletionCertifies)
{
    // formula: (x) (-x y) (-y z) (-z); refutation: derive (y), drop a clause
    // that is no longer needed, then derive the empty clause
    Cnf cnf;
    cnf.num_vars = 3;
    cnf.clauses = {{1}, {-1, 2}, {-2, 3}, {-3}};
    DratProof proof;
    proof.steps.push_back({false, {2}});
    proof.steps.push_back({true, {-1, 2}});
    proof.steps.push_back({false, {}});
    const auto res = check_drat_proof(cnf, proof);
    EXPECT_TRUE(res.valid) << res.error;
}

TEST(ProofCheck, UsingDeletedClauseIsRejected)
{
    // deleting (x1) and then deriving (x2) by propagation over it must fail
    Cnf cnf;
    cnf.num_vars = 2;
    cnf.clauses = {{1}, {-1, 2}};
    DratProof proof;
    proof.steps.push_back({true, {1}});
    proof.steps.push_back({false, {2}});
    EXPECT_FALSE(check_drat_proof(cnf, proof, ProofCheckMode::all_lemmas).valid);
}

TEST(ProofCheck, EmptyFormulaClauseIsImmediateRefutation)
{
    Cnf cnf;
    cnf.num_vars = 1;
    cnf.clauses = {{}};
    EXPECT_TRUE(check_drat_proof(cnf, DratProof{}).valid);
}

TEST(ProofCheck, SatisfiableFormulaWithoutProofRejected)
{
    Cnf cnf;
    cnf.num_vars = 1;
    cnf.clauses = {{1}};
    EXPECT_FALSE(check_drat_proof(cnf, DratProof{}).valid);
}

TEST(ProofCheck, RandomUnsatInstancesCertify)
{
    std::mt19937 rng{20260806};
    int unsat_seen = 0;
    for (int iter = 0; iter < 120; ++iter)
    {
        const int n = 4 + static_cast<int>(rng() % 5);
        const int m = 18 + static_cast<int>(rng() % 24);
        Solver s;
        MemoryProofTracer tracer;
        s.set_proof_tracer(&tracer);
        for (int i = 0; i < n; ++i)
        {
            s.new_var();
        }
        for (int i = 0; i < m; ++i)
        {
            std::vector<Lit> c;
            for (int j = 0; j < 3; ++j)
            {
                const auto v = static_cast<Var>(rng() % static_cast<unsigned>(n));
                c.push_back(Lit{v, (rng() & 1U) != 0});
            }
            s.add_clause(std::move(c));
        }
        if (s.solve() != Result::unsatisfiable)
        {
            continue;
        }
        ++unsat_seen;
        const auto res = check_drat_proof(to_cnf(s.root_clauses()), tracer.proof());
        ASSERT_TRUE(res.valid) << "iteration " << iter << ": " << res.error;
    }
    EXPECT_GT(unsat_seen, 10);  // the density makes UNSAT common
}

TEST(ProofCheck, DratTextRoundTrip)
{
    DratProof proof;
    proof.steps.push_back({false, {1, -2, 3}});
    proof.steps.push_back({true, {-1, 4}});
    proof.steps.push_back({false, {}});
    std::ostringstream out;
    write_drat(out, proof);
    const auto back = read_drat(out.str());
    EXPECT_EQ(back.steps, proof.steps);
}

TEST(ProofCheck, DratParserRejectsGarbage)
{
    EXPECT_THROW(static_cast<void>(read_drat("1 2 x 0\n")), std::runtime_error);
    EXPECT_THROW(static_cast<void>(read_drat("12y 0\n")), std::runtime_error);
    EXPECT_THROW(static_cast<void>(read_drat("1 2")), std::runtime_error);
    EXPECT_THROW(static_cast<void>(read_drat("99999999999 0\n")), std::runtime_error);
    EXPECT_NO_THROW(static_cast<void>(read_drat("c comment\n1 2 0\nd 1 2 0\n")));
}

TEST(ProofCheck, NoTracingOverheadWithoutTracer)
{
    // with no tracer attached the solver must not record proof steps at all;
    // this is a behavioural proxy: attach-after-solve sees an empty proof
    Solver s;
    build_php(s, 3);
    ASSERT_EQ(s.solve(), Result::unsatisfiable);
    MemoryProofTracer tracer;
    s.set_proof_tracer(&tracer);
    EXPECT_TRUE(tracer.proof().empty());
}

TEST(SatSolverCore, FinalConflictListsFailedAssumptions)
{
    Solver s;
    const Var x = s.new_var(), y = s.new_var(), z = s.new_var();
    s.add_clause(neg(x), pos(y));  // x -> y
    ASSERT_EQ(s.solve({pos(x), neg(y), pos(z)}), Result::unsatisfiable);
    const auto& core = s.final_conflict();
    ASSERT_FALSE(core.empty());
    // the core must involve x and/or y, never the irrelevant z
    for (const auto l : core)
    {
        EXPECT_NE(l.var(), z);
    }
    // the core itself must be sufficient to refute
    EXPECT_EQ(s.solve(core), Result::unsatisfiable);
}

TEST(SatSolverCore, FinalConflictEmptyWhenFormulaUnsat)
{
    Solver s;
    const Var x = s.new_var();
    s.add_clause(pos(x));
    s.add_clause(neg(x));
    ASSERT_EQ(s.solve({pos(s.new_var())}), Result::unsatisfiable);
    EXPECT_TRUE(s.final_conflict().empty());
}

TEST(SatSolverCore, RootClausesPreserveSimplifiedUnits)
{
    // a clause that simplifies to a unit (or to empty) at add time must
    // still be reflected in the root snapshot, else certification would be
    // unsound
    Solver s;
    const Var x = s.new_var(), y = s.new_var();
    s.add_clause(pos(x));
    s.add_clause(neg(x), pos(y));   // becomes unit (y) after simplification? no: x unassigned until solve
    s.add_clause(neg(y));
    ASSERT_EQ(s.solve(), Result::unsatisfiable);

    // every recorded root clause must make the snapshot refutable
    Solver replay;
    const auto snapshot = s.root_clauses();
    bool ok = true;
    for (const auto& clause : snapshot)
    {
        for (const auto l : clause)
        {
            while (replay.num_vars() <= l.var())
            {
                static_cast<void>(replay.new_var());
            }
        }
        ok = replay.add_clause(clause) && ok;
    }
    EXPECT_TRUE(!ok || replay.solve() == Result::unsatisfiable);
}

TEST(SatSolverCore, RootClausesCaptureAddTimeConflict)
{
    Solver s;
    MemoryProofTracer tracer;
    s.set_proof_tracer(&tracer);
    const Var x = s.new_var();
    ASSERT_TRUE(s.add_clause(pos(x)));
    EXPECT_FALSE(s.add_clause(neg(x)));  // simplifies to empty at add time
    ASSERT_EQ(s.solve(), Result::unsatisfiable);
    const auto res = check_drat_proof(to_cnf(s.root_clauses()), tracer.proof());
    EXPECT_TRUE(res.valid) << res.error;
}

}  // namespace
