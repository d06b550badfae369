/// \file fuzz_rewrite.cpp
/// \brief Differential fuzzing of cut rewriting: the flat candidate costing
///        and rewrite() against the reference that builds every candidate
///        (tests/rewrite_reference.hpp), on random networks.

#include "logic/rewriting.hpp"
#include "testing/random.hpp"
#include "testing/reproducer.hpp"

#include "rewrite_reference.hpp"

#include <gtest/gtest.h>

namespace
{

using namespace bestagon;

/// Even cases draw XAGs, as rewriting sees them in the flow; odd cases also
/// draw OR/NAND/NOR/XNOR gates, which strash hashes without folding.
TEST(FuzzRewrite, CandidateCostsMatchReferenceOnRandomNetworks)
{
    const auto budget = testkit::fuzz_budget(0x5e'0001, 100);
    for (std::uint64_t i = 0; i < budget.iterations; ++i)
    {
        testkit::Rng rng{testkit::case_seed(budget.base_seed, i)};
        testkit::XagOptions options;
        options.xag_gates_only = i % 2 == 0;
        const auto network = testkit::random_network(rng, options);
        ASSERT_TRUE(logic::reference::matches_reference(network))
            << testkit::reproducer("rewrite", budget.base_seed, i);
    }
}

}  // namespace
