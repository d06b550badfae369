/// \file test_clause_allocator.cpp
/// \brief Unit tests for the bump-pointer clause arena: reference stability,
///        metadata round-trips, relocation/forwarding, and — through the
///        solver — garbage collection that preserves watch invariants and
///        produces bit-identical solve traces.

#include "sat/clause_allocator.hpp"
#include "sat/dimacs.hpp"
#include "sat/proof.hpp"
#include "sat/solver.hpp"
#include "testing/random.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

namespace
{

using namespace bestagon;
using sat::ClauseAllocator;
using sat::ClauseRef;
using sat::Lit;

std::vector<Lit> make_lits(std::initializer_list<int> dimacs)
{
    std::vector<Lit> out;
    for (const int l : dimacs)
    {
        out.push_back(Lit{std::abs(l) - 1, l < 0});
    }
    return out;
}

TEST(ClauseAllocator, RoundTripsLiteralsAndMetadata)
{
    ClauseAllocator ca;
    const auto lits = make_lits({1, -2, 3, -4});
    const auto cr = ca.alloc(lits, /*learnt=*/true);

    auto view = ca.view(cr);
    ASSERT_EQ(view.size(), 4U);
    EXPECT_TRUE(view.learnt());
    EXPECT_FALSE(view.deleted());
    EXPECT_FALSE(view.relocated());
    for (std::size_t i = 0; i < lits.size(); ++i)
    {
        EXPECT_EQ(view.lit(i), lits[i]);
    }

    view.set_lbd(7);
    view.set_activity(3.5F);
    EXPECT_EQ(ca.view(cr).lbd(), 7U);
    EXPECT_FLOAT_EQ(ca.view(cr).activity(), 3.5F);

    const auto problem = ca.alloc(make_lits({5, 6}), /*learnt=*/false);
    EXPECT_FALSE(ca.view(problem).learnt());
    EXPECT_EQ(ca.num_clauses(), 2U);
}

TEST(ClauseAllocator, RefsStayValidAcrossArenaGrowth)
{
    ClauseAllocator ca;
    std::vector<ClauseRef> refs;
    std::vector<std::vector<Lit>> expected;
    for (int i = 0; i < 5000; ++i)
    {
        std::vector<Lit> lits;
        const int len = 1 + (i % 7);
        for (int j = 0; j < len; ++j)
        {
            lits.push_back(Lit{i * 7 + j, (i + j) % 2 == 1});
        }
        refs.push_back(ca.alloc(lits, i % 3 == 0));
        expected.push_back(std::move(lits));
    }
    // the arena's backing vector has certainly reallocated by now; every ref
    // (a word index, not a pointer) must still address its clause
    for (std::size_t i = 0; i < refs.size(); ++i)
    {
        const auto view = ca.view(refs[i]);
        ASSERT_EQ(view.size(), expected[i].size()) << "clause " << i;
        EXPECT_EQ(view.lits(), expected[i]) << "clause " << i;
        EXPECT_EQ(view.learnt(), i % 3 == 0) << "clause " << i;
    }
}

TEST(ClauseAllocator, FreeAccountsWastedWords)
{
    ClauseAllocator ca;
    const auto a = ca.alloc(make_lits({1, 2, 3}), false);
    const auto b = ca.alloc(make_lits({4, 5}), false);
    EXPECT_EQ(ca.wasted_words(), 0U);

    ca.free_clause(a);
    EXPECT_TRUE(ca.view(a).deleted());
    EXPECT_GT(ca.wasted_words(), 0U);
    const auto wasted_after_a = ca.wasted_words();

    ca.free_clause(b);
    EXPECT_GT(ca.wasted_words(), wasted_after_a);
    EXPECT_EQ(ca.num_clauses(), 0U);
}

TEST(ClauseAllocator, RelocForwardsAndPreservesMetadata)
{
    ClauseAllocator from;
    ClauseAllocator to;
    const auto lits = make_lits({-1, 2, -3});
    const auto cr = from.alloc(lits, /*learnt=*/true);
    from.view(cr).set_lbd(2);
    from.view(cr).set_activity(1.25F);

    const auto nr = from.reloc(cr, to);
    EXPECT_TRUE(from.view(cr).relocated());
    // relocating again must return the same forwarded target
    EXPECT_EQ(from.reloc(cr, to), nr);

    const auto moved = to.view(nr);
    EXPECT_EQ(moved.lits(), lits);
    EXPECT_TRUE(moved.learnt());
    EXPECT_EQ(moved.lbd(), 2U);
    EXPECT_FLOAT_EQ(moved.activity(), 1.25F);
    EXPECT_FALSE(moved.relocated());
}

/// A seeded uniform random 3-SAT instance near the phase transition, hard
/// enough to trigger learnt-clause reduction (the precondition for garbage
/// collection to move anything). Hand-rolled rather than testkit::random_cnf
/// because mixed clause lengths would admit conflicting unit clauses that
/// abort the load before any search happens.
sat::Cnf hard_instance()
{
    testkit::Rng rng{0xa11'0c47};
    constexpr unsigned num_vars = 120;
    constexpr unsigned num_clauses = static_cast<unsigned>(num_vars * 4.2);
    sat::Cnf cnf;
    cnf.num_vars = num_vars;
    while (cnf.clauses.size() < num_clauses)
    {
        std::vector<int> clause;
        while (clause.size() < 3)
        {
            const int var = 1 + static_cast<int>(rng.below(num_vars));
            const auto clashes = [var](int l) { return std::abs(l) == var; };
            if (std::none_of(clause.begin(), clause.end(), clashes))
            {
                clause.push_back(rng.chance(0.5) ? var : -var);
            }
        }
        cnf.clauses.push_back(std::move(clause));
    }
    return cnf;
}

/// Random pushes and truncations on a watch pool, sized or not, against a
/// vector per list: every list must read back the same watchers in the
/// same order through the moves, squeezes and growths they cause.
TEST(WatchPool, ListsMatchAVectorPerListThroughMovesAndSqueezes)
{
    for (const bool sized : {false, true})
    {
        testkit::Rng rng{sized ? 0x5eedU : 0xfeedU};
        constexpr std::size_t lists = 64;
        std::vector<std::vector<sat::Watcher>> reference(lists);
        sat::WatchPool pool;
        if (sized)
        {
            pool.reserve(std::vector<std::uint32_t>(lists, 3));
        }
        pool.add_lists(lists);
        for (std::uint32_t step = 0; step < 20000; ++step)
        {
            const auto l = static_cast<std::size_t>(rng.below(lists));
            if (rng.chance(0.6))
            {
                const sat::Watcher w{step, Lit{static_cast<sat::Var>(step % 97), false}};
                pool.push(l, w);
                reference[l].push_back(w);
            }
            else
            {
                const auto keep = static_cast<std::uint32_t>(rng.below(reference[l].size() + 1));
                pool.truncate(l, keep);
                reference[l].resize(keep);
            }
        }
        EXPECT_GT(pool.moves(), 0U);
        for (std::size_t l = 0; l < lists; ++l)
        {
            ASSERT_EQ(pool.size(l), reference[l].size()) << l;
            const auto* ws = pool.list(l);
            for (std::size_t i = 0; i < reference[l].size(); ++i)
            {
                EXPECT_EQ(ws[i].cref, reference[l][i].cref) << l << ' ' << i;
                EXPECT_EQ(ws[i].blocker, reference[l][i].blocker) << l << ' ' << i;
            }
        }
    }
}

TEST(ClauseAllocator, GarbageCollectionPreservesSolvingState)
{
    sat::Solver solver;
    ASSERT_TRUE(sat::load_into_solver(solver, hard_instance()));
    const auto first = solver.solve();
    ASSERT_NE(first, sat::Result::unknown);

    const auto stats_before = solver.stats();
    solver.garbage_collect();
    EXPECT_EQ(solver.clause_arena().wasted_words(), 0U);

    // the collected solver must still answer, and incrementally: watches,
    // reasons and the learnt database all survived compaction
    const auto second = solver.solve();
    EXPECT_EQ(second, first);
    EXPECT_GE(solver.stats().conflicts, stats_before.conflicts);
}

/// PHP(pigeons, holes) as a Cnf: exponentially hard for resolution, so the
/// solver piles up far more than the 1000-learnt reduce_db floor and clause
/// deletion (hence garbage collection) is guaranteed to run.
sat::Cnf php_cnf(int pigeons, int holes)
{
    const auto var = [&](int p, int h) { return p * holes + h + 1; };
    sat::Cnf cnf;
    cnf.num_vars = pigeons * holes;
    for (int p = 0; p < pigeons; ++p)
    {
        std::vector<int> somewhere;
        for (int h = 0; h < holes; ++h)
        {
            somewhere.push_back(var(p, h));
        }
        cnf.clauses.push_back(std::move(somewhere));
    }
    for (int h = 0; h < holes; ++h)
    {
        for (int p = 0; p < pigeons; ++p)
        {
            for (int q = p + 1; q < pigeons; ++q)
            {
                cnf.clauses.push_back({-var(p, h), -var(q, h)});
            }
        }
    }
    return cnf;
}

TEST(ClauseAllocator, CompactionIsDeterministic)
{
    // three solvers, three GC policies: never collect, collect at the default
    // waste threshold, collect after every reduction. Identical proofs,
    // statistics and models = nothing in the search keys on arena addresses.
    const auto cnf = php_cnf(9, 8);

    struct Run
    {
        sat::Result result;
        sat::DratProof proof;
        sat::SolverStats stats;
        std::vector<bool> model;
    };
    const auto run_with = [&cnf](double gc_fraction) {
        sat::Solver solver;
        solver.set_gc_wasted_fraction(gc_fraction);
        sat::MemoryProofTracer tracer;
        solver.set_proof_tracer(&tracer);
        EXPECT_TRUE(sat::load_into_solver(solver, cnf));
        Run run;
        run.result = solver.solve();
        run.proof = tracer.take_proof();
        run.stats = solver.stats();
        if (run.result == sat::Result::satisfiable)
        {
            for (sat::Var v = 0; v < solver.num_vars(); ++v)
            {
                run.model.push_back(solver.model_value(v));
            }
        }
        return run;
    };

    const auto never = run_with(1e18);
    const auto standard = run_with(0.25);
    const auto always = run_with(0.0);

    ASSERT_NE(never.result, sat::Result::unknown);
    // the instance must actually have exercised clause deletion + GC,
    // otherwise this test compares three identical no-op runs
    ASSERT_GT(always.stats.deleted_clauses, 0U)
        << "instance too easy: reduce_db never ran, GC untested";

    for (const auto* other : {&standard, &always})
    {
        EXPECT_EQ(other->result, never.result);
        EXPECT_EQ(other->stats.conflicts, never.stats.conflicts);
        EXPECT_EQ(other->stats.decisions, never.stats.decisions);
        EXPECT_EQ(other->stats.propagations, never.stats.propagations);
        EXPECT_EQ(other->stats.restarts, never.stats.restarts);
        EXPECT_EQ(other->stats.learnt_clauses, never.stats.learnt_clauses);
        EXPECT_EQ(other->model, never.model);
        EXPECT_TRUE(other->proof.steps == never.proof.steps) << "DRAT trace diverged under GC";
    }
}

}  // namespace
