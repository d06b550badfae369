/// \file fuzz_cuts.cpp
/// \brief Differential fuzzing of cut enumeration: every cut function of the
///        word simulator against the map-based reference cone simulation
///        (tests/cuts_reference.hpp), on random networks.

#include "logic/cuts.hpp"
#include "testing/random.hpp"
#include "testing/reproducer.hpp"

#include "cuts_reference.hpp"

#include <gtest/gtest.h>

#include <utility>
#include <vector>

namespace
{

using namespace bestagon;

/// \p network with up to three MAJ gates over random non-PO signals added,
/// each observed by its own PO.
logic::LogicNetwork with_majorities(testkit::Rng& rng, logic::LogicNetwork network)
{
    std::vector<logic::LogicNetwork::NodeId> signals;
    for (const auto id : network.topological_order())
    {
        if (network.node(id).type != logic::GateType::po)
        {
            signals.push_back(id);
        }
    }
    const unsigned count = rng.range(1, 3);
    for (unsigned i = 0; i < count; ++i)
    {
        const auto a = signals[rng.below(signals.size())];
        const auto b = signals[rng.below(signals.size())];
        const auto c = signals[rng.below(signals.size())];
        const auto maj = network.create_maj(a, b, c);
        signals.push_back(maj);
        network.create_po(maj);
    }
    return network;
}

/// Case i draws an XAG when i % 3 == 0, a mixed-gate network (OR, NAND, NOR,
/// XNOR too) when i % 3 == 1, and a mixed-gate network with MAJ gates when
/// i % 3 == 2, and checks its cuts at k = 2, 3 and 4.
TEST(FuzzCuts, FunctionsMatchReferenceOnRandomNetworks)
{
    const auto budget = testkit::fuzz_budget(0xc0'7001, 150);
    for (std::uint64_t i = 0; i < budget.iterations; ++i)
    {
        testkit::Rng rng{testkit::case_seed(budget.base_seed, i)};
        testkit::XagOptions options;
        options.xag_gates_only = i % 3 == 0;
        auto network = testkit::random_network(rng, options);
        if (i % 3 == 2)
        {
            network = with_majorities(rng, std::move(network));
        }
        for (unsigned k = 2; k <= 4; ++k)
        {
            ASSERT_TRUE(logic::reference::cut_functions_match_reference(network, k, 12))
                << testkit::reproducer("cuts", budget.base_seed, i);
        }
    }
}

}  // namespace
