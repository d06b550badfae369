/// \file cuts_reference.hpp
/// \brief Reference cut function for the tests: the map-based cone simulation
/// that every function `logic::CutEnumeration` returns must agree with.
///
/// Each node of the cone gets its own heap `TruthTable` in a
/// `std::unordered_map`; every leaf is a free variable, also a leaf that
/// lies in another leaf's fan-in. It shares no code with the library's word
/// simulator beyond `LogicNetwork` and `TruthTable`.

#pragma once

#include "logic/cuts.hpp"
#include "logic/network.hpp"
#include "logic/truth_table.hpp"

#include <gtest/gtest.h>

#include <span>
#include <stdexcept>
#include <unordered_map>
#include <unordered_set>
#include <vector>

namespace bestagon::logic::reference
{

/// Computes the function of \p root over the given \p leaves by simulating
/// the cone in between. All cone paths from \p root must terminate in leaves.
inline TruthTable compute_cut_function(const LogicNetwork& network, LogicNetwork::NodeId root,
                                       std::span<const LogicNetwork::NodeId> leaves)
{
    using NodeId = LogicNetwork::NodeId;
    const auto n = static_cast<unsigned>(leaves.size());
    std::unordered_map<NodeId, TruthTable> memo;
    for (unsigned i = 0; i < n; ++i)
    {
        memo.emplace(leaves[i], TruthTable::nth_var(n, i));
    }

    // iterative post-order evaluation
    std::vector<NodeId> stack{root};
    while (!stack.empty())
    {
        const NodeId id = stack.back();
        if (memo.count(id) != 0)
        {
            stack.pop_back();
            continue;
        }
        const auto& node = network.node(id);
        const unsigned arity = gate_arity(node.type);
        if (arity == 0)
        {
            // constant leaves are allowed; PIs must be cut leaves
            if (node.type == GateType::const0)
            {
                memo.emplace(id, TruthTable::constant(n, false));
            }
            else if (node.type == GateType::const1)
            {
                memo.emplace(id, TruthTable::constant(n, true));
            }
            else
            {
                throw std::logic_error{"compute_cut_function: cone not covered by leaves"};
            }
            stack.pop_back();
            continue;
        }
        bool ready = true;
        for (unsigned i = 0; i < arity; ++i)
        {
            if (memo.count(node.fanin[i]) == 0)
            {
                stack.push_back(node.fanin[i]);
                ready = false;
            }
        }
        if (!ready)
        {
            continue;
        }
        stack.pop_back();
        const auto& a = memo.at(node.fanin[0]);
        switch (node.type)
        {
            case GateType::buf:
            case GateType::fanout:
            case GateType::po: memo.emplace(id, a); break;
            case GateType::inv: memo.emplace(id, ~a); break;
            case GateType::and2: memo.emplace(id, a & memo.at(node.fanin[1])); break;
            case GateType::or2: memo.emplace(id, a | memo.at(node.fanin[1])); break;
            case GateType::nand2: memo.emplace(id, ~(a & memo.at(node.fanin[1]))); break;
            case GateType::nor2: memo.emplace(id, ~(a | memo.at(node.fanin[1]))); break;
            case GateType::xor2: memo.emplace(id, a ^ memo.at(node.fanin[1])); break;
            case GateType::xnor2: memo.emplace(id, ~(a ^ memo.at(node.fanin[1]))); break;
            case GateType::maj3:
                memo.emplace(id, (a & memo.at(node.fanin[1])) | (a & memo.at(node.fanin[2])) |
                                     (memo.at(node.fanin[1]) & memo.at(node.fanin[2])));
                break;
            default: throw std::logic_error{"compute_cut_function: unexpected node type"};
        }
    }
    return memo.at(root);
}

/// True if some leaf of \p leaves lies in the transitive fan-in of another.
inline bool has_nested_leaf(const LogicNetwork& network, std::span<const LogicNetwork::NodeId> leaves)
{
    const std::unordered_set<LogicNetwork::NodeId> leaf_set(leaves.begin(), leaves.end());
    for (const auto leaf : leaves)
    {
        // depth-first over the strict fan-in of `leaf`
        std::unordered_set<LogicNetwork::NodeId> seen;
        std::vector<LogicNetwork::NodeId> stack{leaf};
        while (!stack.empty())
        {
            const auto& node = network.node(stack.back());
            stack.pop_back();
            for (unsigned i = 0; i < gate_arity(node.type); ++i)
            {
                const auto fanin = node.fanin[i];
                if (leaf_set.count(fanin) != 0)
                {
                    return true;
                }
                if (seen.insert(fanin).second)
                {
                    stack.push_back(fanin);
                }
            }
        }
    }
    return false;
}

/// Every cut that `CutEnumeration{network, k, cut_limit}` lists has the
/// reference function over its leaves.
inline ::testing::AssertionResult cut_functions_match_reference(const LogicNetwork& network, unsigned k,
                                                                unsigned cut_limit)
{
    const CutEnumeration cuts{network, k, cut_limit};
    for (const auto id : network.topological_order())
    {
        const auto& node_cuts = cuts.cuts_of(id);
        for (std::size_t c = 0; c < node_cuts.size(); ++c)
        {
            const auto& cut = node_cuts[c];
            const auto want = compute_cut_function(network, id, cut.leaves());
            if (!(cut.function() == want))
            {
                return ::testing::AssertionFailure() << "node " << id << " cut " << c << " (k = " << k
                                                     << "): function " << cut.function().to_hex()
                                                     << ", reference " << want.to_hex();
            }
        }
    }
    return ::testing::AssertionSuccess();
}

}  // namespace bestagon::logic::reference
