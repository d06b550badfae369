#include "logic/rewriting.hpp"

#include "logic/cuts.hpp"
#include "logic/npn.hpp"

#include <algorithm>
#include <cassert>
#include <functional>
#include <map>
#include <unordered_map>
#include <vector>

namespace bestagon::logic
{

namespace
{

using NodeId = LogicNetwork::NodeId;

/// Largest cut the rewriter enumerates; every cut function is looked up in
/// the NPN table, which must therefore cover it.
constexpr unsigned max_cut_size = 4;
static_assert(max_cut_size <= npn_table_max_inputs, "every cut function needs an NPN table entry");

/// Copies \p impl (a single-PO network) into \p target, substituting
/// \p leaf_signals for the PIs. Returns the signal of the implementation root.
NodeId instantiate(LogicNetwork& target, const LogicNetwork& impl, const std::vector<NodeId>& leaf_signals)
{
    std::unordered_map<NodeId, NodeId> map;
    unsigned pi_index = 0;
    NodeId root = LogicNetwork::invalid_node;
    for (const auto id : impl.topological_order())
    {
        const auto& node = impl.node(id);
        switch (node.type)
        {
            case GateType::pi:
                assert(pi_index < leaf_signals.size());
                map[id] = leaf_signals[pi_index++];
                break;
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

/// Rebuilds \p network, replacing the cone of \p root (over \p cut_leaves)
/// by \p impl. Other nodes are recreated as-is; dead cone nodes are swept.
LogicNetwork rebuild_with_replacement(const LogicNetwork& network, NodeId root,
                                      const std::vector<NodeId>& cut_leaves, const LogicNetwork& impl)
{
    LogicNetwork out;
    std::unordered_map<NodeId, NodeId> map;
    for (const auto id : network.topological_order())
    {
        const auto& node = network.node(id);
        if (id == root)
        {
            std::vector<NodeId> leaf_signals;
            leaf_signals.reserve(cut_leaves.size());
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
    return sweep(out);
}

}  // namespace

LogicNetwork sweep(const LogicNetwork& network)
{
    // mark reachable nodes from POs
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
    // PIs are always preserved to keep the interface stable
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

LogicNetwork strash(const LogicNetwork& network)
{
    LogicNetwork out;
    std::unordered_map<NodeId, NodeId> map;
    // key: (type, fanin0, fanin1, fanin2) -> node in `out`
    std::map<std::tuple<GateType, NodeId, NodeId, NodeId>, NodeId> hash;

    const auto is_const = [&](NodeId id, bool& value) {
        const auto t = out.type_of(id);
        if (t == GateType::const0)
        {
            value = false;
            return true;
        }
        if (t == GateType::const1)
        {
            value = true;
            return true;
        }
        return false;
    };

    std::function<NodeId(GateType, std::vector<NodeId>)> create = [&](GateType type,
                                                                      std::vector<NodeId> fanins) -> NodeId {
        // normalize commutative fanin order
        if (gate_arity(type) >= 2)
        {
            std::sort(fanins.begin(), fanins.end());
        }
        // constant folding & local simplifications
        bool v0 = false, v1 = false;
        const bool c0 = !fanins.empty() && is_const(fanins[0], v0);
        const bool c1 = fanins.size() > 1 && is_const(fanins[1], v1);
        switch (type)
        {
            case GateType::buf:
                return fanins[0];
            case GateType::inv:
                if (c0)
                {
                    return out.create_const(!v0);
                }
                if (out.type_of(fanins[0]) == GateType::inv)
                {
                    return out.node(fanins[0]).fanin[0];  // double inversion
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
        const auto key = std::make_tuple(type, !fanins.empty() ? fanins[0] : 0,
                                         fanins.size() > 1 ? fanins[1] : 0,
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
    return sweep(out);
}

LogicNetwork rewrite(const LogicNetwork& network, NpnDatabase& database, RewriteStats* stats)
{
    LogicNetwork current = strash(network);
    if (stats != nullptr)
    {
        stats->gates_before = network.num_gates();
        stats->replacements = 0;
        stats->passes = 0;
    }

    for (bool improved = true; improved;)
    {
        improved = false;
        if (stats != nullptr)
        {
            ++stats->passes;
        }
        const CutEnumeration cuts{current, max_cut_size, 12};
        const std::size_t base_size = current.num_gates();

        LogicNetwork best;
        std::size_t best_size = base_size;

        for (const auto id : current.topological_order())
        {
            if (gate_arity(current.type_of(id)) != 2)
            {
                continue;  // rewrite roots are two-input gates
            }
            for (const auto& cut : cuts.cuts_of(id))
            {
                if (cut.leaves.size() < 2 || (cut.leaves.size() == 1 && cut.leaves[0] == id))
                {
                    continue;
                }
                const auto canon = canonize_npn(cut.function);
                const auto* impl_canonical = database.lookup(canon.canonical);
                if (impl_canonical == nullptr)
                {
                    continue;
                }
                // adapt the canonical implementation to the actual function:
                // f = T(canonical): permute/complement leaves, complement output
                LogicNetwork adapted;
                std::vector<NodeId> pi_ids;
                for (unsigned i = 0; i < cut.function.num_vars(); ++i)
                {
                    pi_ids.push_back(adapted.create_pi());
                }
                // y_i = x_{perm[i]} ^ flip_i feeds canonical input i
                std::vector<NodeId> canon_inputs(cut.function.num_vars());
                for (unsigned i = 0; i < cut.function.num_vars(); ++i)
                {
                    NodeId sig = pi_ids[canon.transform.perm[i]];
                    if ((canon.transform.input_flips >> i) & 1U)
                    {
                        sig = adapted.create_not(sig);
                    }
                    canon_inputs[i] = sig;
                }
                NodeId root_sig = instantiate(adapted, *impl_canonical, canon_inputs);
                if (canon.transform.output_negated)
                {
                    root_sig = adapted.create_not(root_sig);
                }
                adapted.create_po(root_sig);

                auto candidate = strash(rebuild_with_replacement(current, id, cut.leaves, adapted));
                if (candidate.num_gates() < best_size)
                {
                    best_size = candidate.num_gates();
                    best = std::move(candidate);
                }
            }
        }

        if (best_size < base_size)
        {
            current = std::move(best);
            improved = true;
            if (stats != nullptr)
            {
                ++stats->replacements;
            }
        }
    }

    if (stats != nullptr)
    {
        stats->gates_after = current.num_gates();
    }
    return current;
}

}  // namespace bestagon::logic
