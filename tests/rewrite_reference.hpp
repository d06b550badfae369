/// \file rewrite_reference.hpp
/// \brief Reference rewriter for the tests: the cut rewriting that
/// `logic::rewrite` must agree with, costing every candidate by building it.
///
/// Each (node, cut) candidate is adapted from its canonical NPN entry into a
/// single-output network, spliced into a full copy of the network, swept,
/// structurally hashed and swept again, and its cost is the gate count of
/// that copy. The first strict minimum in (topological node, cut) order
/// wins. `sweep` and `strash` here are the plain map-based versions
/// (`std::unordered_map` id maps, a `std::map` hash, a recursive
/// `std::function`), so the reference shares no code with the library's flat
/// strash builder beyond `LogicNetwork`, the cut enumeration, NPN
/// canonization and the table.

#pragma once

#include "logic/cuts.hpp"
#include "logic/exact_synthesis.hpp"
#include "logic/npn.hpp"
#include "logic/rewriting.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cassert>
#include <functional>
#include <map>
#include <span>
#include <string>
#include <tuple>
#include <unordered_map>
#include <utility>
#include <vector>

namespace bestagon::logic::reference
{

using NodeId = LogicNetwork::NodeId;

/// The rewriter's cut size and per-node cut limit.
inline constexpr unsigned max_cut_size = 4;
inline constexpr unsigned cut_limit = 12;

inline LogicNetwork sweep(const LogicNetwork& network)
{
    std::vector<bool> live(network.size(), false);
    std::vector<NodeId> stack(network.pos().begin(), network.pos().end());
    while (!stack.empty())
    {
        const auto id = stack.back();
        stack.pop_back();
        if (live[id])
        {
            continue;
        }
        live[id] = true;
        const auto& node = network.node(id);
        for (unsigned i = 0; i < gate_arity(node.type); ++i)
        {
            stack.push_back(node.fanin[i]);
        }
    }
    LogicNetwork out;
    std::unordered_map<NodeId, NodeId> map;
    for (const auto id : network.topological_order())
    {
        const auto& node = network.node(id);
        if (node.type == GateType::pi)
        {
            map[id] = out.create_pi(node.name);
            continue;
        }
        if (!live[id])
        {
            continue;
        }
        switch (node.type)
        {
            case GateType::po: out.create_po(map.at(node.fanin[0]), node.name); break;
            case GateType::const0: map[id] = out.create_const(false); break;
            case GateType::const1: map[id] = out.create_const(true); break;
            case GateType::none: break;
            default:
            {
                std::vector<NodeId> fanins;
                for (unsigned i = 0; i < gate_arity(node.type); ++i)
                {
                    fanins.push_back(map.at(node.fanin[i]));
                }
                map[id] = out.create_gate(node.type, fanins);
            }
        }
    }
    return out;
}

inline LogicNetwork strash(const LogicNetwork& network)
{
    LogicNetwork out;
    std::unordered_map<NodeId, NodeId> map;
    std::map<std::tuple<GateType, NodeId, NodeId, NodeId>, NodeId> hash;

    const auto is_const = [&](NodeId id, bool& value) {
        const auto t = out.type_of(id);
        if (t == GateType::const0 || t == GateType::const1)
        {
            value = t == GateType::const1;
            return true;
        }
        return false;
    };

    std::function<NodeId(GateType, std::vector<NodeId>)> create = [&](GateType type,
                                                                      std::vector<NodeId> fanins) -> NodeId {
        if (gate_arity(type) >= 2)
        {
            std::sort(fanins.begin(), fanins.end());
        }
        bool v0 = false;
        bool v1 = false;
        const bool c0 = !fanins.empty() && is_const(fanins[0], v0);
        const bool c1 = fanins.size() > 1 && is_const(fanins[1], v1);
        switch (type)
        {
            case GateType::buf: return fanins[0];
            case GateType::inv:
                if (c0)
                {
                    return out.create_const(!v0);
                }
                if (out.type_of(fanins[0]) == GateType::inv)
                {
                    return out.node(fanins[0]).fanin[0];
                }
                break;
            case GateType::and2:
                if (c0)
                {
                    return v0 ? fanins[1] : out.create_const(false);
                }
                if (c1)
                {
                    return v1 ? fanins[0] : out.create_const(false);
                }
                if (fanins[0] == fanins[1])
                {
                    return fanins[0];
                }
                break;
            case GateType::or2:
                if (c0)
                {
                    return v0 ? out.create_const(true) : fanins[1];
                }
                if (c1)
                {
                    return v1 ? out.create_const(true) : fanins[0];
                }
                if (fanins[0] == fanins[1])
                {
                    return fanins[0];
                }
                break;
            case GateType::xor2:
                if (c0)
                {
                    return v0 ? create(GateType::inv, {fanins[1]}) : fanins[1];
                }
                if (c1)
                {
                    return v1 ? create(GateType::inv, {fanins[0]}) : fanins[0];
                }
                if (fanins[0] == fanins[1])
                {
                    return out.create_const(false);
                }
                break;
            default: break;
        }
        const auto key = std::make_tuple(type, !fanins.empty() ? fanins[0] : 0, fanins.size() > 1 ? fanins[1] : 0,
                                         fanins.size() > 2 ? fanins[2] : 0);
        if (const auto it = hash.find(key); it != hash.end())
        {
            return it->second;
        }
        const auto id = out.create_gate(type, fanins);
        hash.emplace(key, id);
        return id;
    };

    for (const auto id : network.topological_order())
    {
        const auto& node = network.node(id);
        switch (node.type)
        {
            case GateType::pi: map[id] = out.create_pi(node.name); break;
            case GateType::po: out.create_po(map.at(node.fanin[0]), node.name); break;
            case GateType::const0: map[id] = out.create_const(false); break;
            case GateType::const1: map[id] = out.create_const(true); break;
            case GateType::none: break;
            default:
            {
                std::vector<NodeId> fanins;
                for (unsigned i = 0; i < gate_arity(node.type); ++i)
                {
                    fanins.push_back(map.at(node.fanin[i]));
                }
                map[id] = create(node.type, std::move(fanins));
            }
        }
    }
    return reference::sweep(out);
}

/// Copies the single-PO network \p impl into \p target with \p leaf_signals
/// for its PIs; returns the signal of its root.
inline NodeId instantiate(LogicNetwork& target, const LogicNetwork& impl, const std::vector<NodeId>& leaf_signals)
{
    std::unordered_map<NodeId, NodeId> map;
    unsigned pi_index = 0;
    NodeId root = LogicNetwork::invalid_node;
    for (const auto id : impl.topological_order())
    {
        const auto& node = impl.node(id);
        switch (node.type)
        {
            case GateType::pi: map[id] = leaf_signals.at(pi_index++); break;
            case GateType::const0: map[id] = target.create_const(false); break;
            case GateType::const1: map[id] = target.create_const(true); break;
            case GateType::po: root = map.at(node.fanin[0]); break;
            default:
            {
                std::vector<NodeId> fanins;
                for (unsigned i = 0; i < gate_arity(node.type); ++i)
                {
                    fanins.push_back(map.at(node.fanin[i]));
                }
                map[id] = target.create_gate(node.type, fanins);
            }
        }
    }
    assert(root != LogicNetwork::invalid_node);
    return root;
}

/// \p network with the cone of \p root over \p cut_leaves replaced by
/// \p impl, swept.
inline LogicNetwork rebuild_with_replacement(const LogicNetwork& network, NodeId root,
                                             std::span<const NodeId> cut_leaves, const LogicNetwork& impl)
{
    LogicNetwork out;
    std::unordered_map<NodeId, NodeId> map;
    for (const auto id : network.topological_order())
    {
        const auto& node = network.node(id);
        if (id == root)
        {
            std::vector<NodeId> leaf_signals;
            for (const auto l : cut_leaves)
            {
                leaf_signals.push_back(map.at(l));
            }
            map[id] = instantiate(out, impl, leaf_signals);
            continue;
        }
        switch (node.type)
        {
            case GateType::pi: map[id] = out.create_pi(node.name); break;
            case GateType::po: out.create_po(map.at(node.fanin[0]), node.name); break;
            case GateType::const0: map[id] = out.create_const(false); break;
            case GateType::const1: map[id] = out.create_const(true); break;
            case GateType::none: break;
            default:
            {
                std::vector<NodeId> fanins;
                for (unsigned i = 0; i < gate_arity(node.type); ++i)
                {
                    fanins.push_back(map.at(node.fanin[i]));
                }
                map[id] = out.create_gate(node.type, fanins);
            }
        }
    }
    return reference::sweep(out);
}

/// The canonical implementation \p impl adapted to \p cut's function through
/// \p t: canonical input i reads leaf perm[i], inverted if flip bit i is set,
/// and the output is inverted if output_negated.
inline LogicNetwork adapt(const Cut& cut, const NpnTransform& t, const LogicNetwork& impl)
{
    LogicNetwork adapted;
    std::vector<NodeId> pi_ids;
    for (unsigned i = 0; i < cut.num_leaves; ++i)
    {
        pi_ids.push_back(adapted.create_pi());
    }
    std::vector<NodeId> canon_inputs(cut.num_leaves);
    for (unsigned i = 0; i < cut.num_leaves; ++i)
    {
        NodeId sig = pi_ids[t.perm[i]];
        if ((t.input_flips >> i) & 1U)
        {
            sig = adapted.create_not(sig);
        }
        canon_inputs[i] = sig;
    }
    NodeId root_sig = instantiate(adapted, impl, canon_inputs);
    if (t.output_negated)
    {
        root_sig = adapted.create_not(root_sig);
    }
    adapted.create_po(root_sig);
    return adapted;
}

/// One costed candidate and the network it builds.
struct BuiltCandidate
{
    RewriteCandidate candidate;
    LogicNetwork network;
};

/// Every candidate of one pass over \p network in (topological node, cut)
/// order, each built in full and costed by its gate count.
inline std::vector<BuiltCandidate> build_candidates(const LogicNetwork& network, NpnDatabase& database)
{
    std::vector<BuiltCandidate> out;
    const CutEnumeration cuts{network, max_cut_size, cut_limit};
    for (const auto id : network.topological_order())
    {
        if (gate_arity(network.type_of(id)) != 2)
        {
            continue;
        }
        const auto& node_cuts = cuts.cuts_of(id);
        for (std::size_t c = 0; c < node_cuts.size(); ++c)
        {
            const auto& cut = node_cuts[c];
            if (cut.num_leaves < 2)
            {
                continue;
            }
            const auto canon = canonize_npn(cut.function());
            const auto* impl = database.lookup(canon.canonical);
            if (impl == nullptr)
            {
                continue;
            }
            auto built = reference::strash(reference::rebuild_with_replacement(network, id, cut.leaves(), adapt(cut, canon.transform, *impl)));
            const auto gates = built.num_gates();
            out.push_back(BuiltCandidate{RewriteCandidate{id, c, gates}, std::move(built)});
        }
    }
    return out;
}

/// The rewrite the library must reproduce: passes of build_candidates, each
/// taking the first candidate strictly smaller than the network, until none
/// is.
inline LogicNetwork rewrite(const LogicNetwork& network, NpnDatabase& database, RewriteStats* stats = nullptr)
{
    LogicNetwork current = reference::strash(network);
    RewriteStats local;
    local.gates_before = network.num_gates();
    for (bool improved = true; improved;)
    {
        improved = false;
        ++local.passes;
        auto candidates = build_candidates(current, database);
        std::size_t best_size = current.num_gates();
        BuiltCandidate* best = nullptr;
        for (auto& c : candidates)
        {
            if (c.candidate.gates < best_size)
            {
                best_size = c.candidate.gates;
                best = &c;
            }
        }
        if (best != nullptr)
        {
            current = std::move(best->network);
            improved = true;
            ++local.replacements;
        }
    }
    local.gates_after = current.num_gates();
    if (stats != nullptr)
    {
        *stats = local;
    }
    return current;
}

/// Node-for-node equality: ids, types, fanins, names, PI and PO lists.
inline ::testing::AssertionResult same_network(const LogicNetwork& a, const LogicNetwork& b)
{
    if (a.size() != b.size() || a.pis() != b.pis() || a.pos() != b.pos())
    {
        return ::testing::AssertionFailure() << "sizes or PI/PO lists differ (" << a.size() << " vs " << b.size()
                                             << " nodes)";
    }
    for (NodeId id = 0; id < a.size(); ++id)
    {
        const auto& x = a.node(id);
        const auto& y = b.node(id);
        if (x.type != y.type || x.name != y.name)
        {
            return ::testing::AssertionFailure() << "node " << id << ": " << gate_type_name(x.type) << " '"
                                                 << x.name << "' vs " << gate_type_name(y.type) << " '" << y.name
                                                 << "'";
        }
        for (unsigned i = 0; i < gate_arity(x.type); ++i)
        {
            if (x.fanin[i] != y.fanin[i])
            {
                return ::testing::AssertionFailure() << "node " << id << " fanin " << i << ": " << x.fanin[i]
                                                     << " vs " << y.fanin[i];
            }
        }
    }
    return ::testing::AssertionSuccess();
}

/// The library against the reference on \p network: strash() equals the
/// reference strash node for node; in every pass of the reference rewrite,
/// rewrite_candidates() lists the same candidates in the same order with
/// each count equal to its built network's gate count; and rewrite() equals
/// the reference rewrite node for node, with the same RewriteStats.
inline ::testing::AssertionResult matches_reference(const LogicNetwork& network)
{
    if (auto same = same_network(logic::strash(network), reference::strash(network)); !same)
    {
        return same << " (strash)";
    }
    NpnDatabase database;
    NpnDatabase reference_database;
    auto current = reference::strash(network);
    RewriteStats want;
    want.gates_before = network.num_gates();
    for (bool improved = true; improved;)
    {
        improved = false;
        ++want.passes;
        auto built = build_candidates(current, reference_database);
        const auto costed = logic::rewrite_candidates(current, database);
        if (costed.size() != built.size())
        {
            return ::testing::AssertionFailure() << "pass " << want.passes << ": " << costed.size()
                                                 << " candidates, reference " << built.size();
        }
        std::size_t best_size = current.num_gates();
        BuiltCandidate* best = nullptr;
        for (std::size_t i = 0; i < built.size(); ++i)
        {
            const auto& got = costed[i];
            const auto& ref = built[i].candidate;
            if (got.root != ref.root || got.cut != ref.cut || got.gates != ref.gates)
            {
                return ::testing::AssertionFailure()
                       << "pass " << want.passes << " candidate " << i << ": root " << got.root << " cut " << got.cut
                       << " gates " << got.gates << ", reference root " << ref.root << " cut " << ref.cut
                       << " gates " << ref.gates;
            }
            if (ref.gates < best_size)
            {
                best_size = ref.gates;
                best = &built[i];
            }
        }
        if (best != nullptr)
        {
            current = std::move(best->network);
            improved = true;
            ++want.replacements;
        }
    }
    want.gates_after = current.num_gates();

    RewriteStats got;
    const auto rewritten = logic::rewrite(network, database, &got);
    if (auto same = same_network(rewritten, current); !same)
    {
        return same << " (rewrite)";
    }
    if (got.gates_before != want.gates_before || got.gates_after != want.gates_after ||
        got.replacements != want.replacements || got.passes != want.passes)
    {
        return ::testing::AssertionFailure() << "RewriteStats differ: replacements " << got.replacements
                                             << " vs " << want.replacements << ", passes " << got.passes << " vs "
                                             << want.passes;
    }
    return ::testing::AssertionSuccess();
}

}  // namespace bestagon::logic::reference
