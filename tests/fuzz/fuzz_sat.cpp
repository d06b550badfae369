/// \file fuzz_sat.cpp
/// \brief Differential fuzzing of the CDCL solver against model checking,
///        DRAT certification and brute-force enumeration, plus mutation
///        coverage of the oracle itself.

#include "testing/oracles.hpp"
#include "testing/random.hpp"
#include "testing/reproducer.hpp"

#include <gtest/gtest.h>

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

}  // namespace
