#include "logic/tech_mapping.hpp"

#include "logic/rewriting.hpp"

#include <cassert>
#include <unordered_map>
#include <vector>

namespace bestagon::logic
{

namespace
{

using NodeId = LogicNetwork::NodeId;

/// Generic rebuild where each gate is re-created through a callback.
template <typename CreateGate>
LogicNetwork rebuild(const LogicNetwork& network, CreateGate&& create_gate)
{
    LogicNetwork out;
    std::unordered_map<NodeId, NodeId> map;
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
                map[id] = create_gate(out, node.type, fanins);
            }
        }
    }
    return out;
}

}  // namespace

LogicNetwork to_xag(const LogicNetwork& network)
{
    auto result = rebuild(network, [](LogicNetwork& out, GateType type, const std::vector<NodeId>& in) -> NodeId {
        switch (type)
        {
            case GateType::buf:
            case GateType::inv:
            case GateType::and2:
            case GateType::xor2:
            case GateType::fanout: return out.create_gate(type == GateType::fanout ? GateType::buf : type, in);
            case GateType::or2:
                return out.create_not(out.create_and(out.create_not(in[0]), out.create_not(in[1])));
            case GateType::nand2: return out.create_not(out.create_and(in[0], in[1]));
            case GateType::nor2:
                return out.create_and(out.create_not(in[0]), out.create_not(in[1]));
            case GateType::xnor2: return out.create_not(out.create_xor(in[0], in[1]));
            case GateType::maj3:
            {
                // maj(a,b,c) = ((a ^ b) & (a ^ c)) ^ a
                const auto ab = out.create_xor(in[0], in[1]);
                const auto ac = out.create_xor(in[0], in[2]);
                return out.create_xor(out.create_and(ab, ac), in[0]);
            }
            default: return out.create_gate(type, in);
        }
    });
    return strash(result);
}

LogicNetwork to_aig(const LogicNetwork& network)
{
    const auto xag = to_xag(network);
    auto result = rebuild(xag, [](LogicNetwork& out, GateType type, const std::vector<NodeId>& in) -> NodeId {
        if (type == GateType::xor2)
        {
            // a ^ b = ~(~(a & ~b) & ~(~a & b))
            const auto l = out.create_not(out.create_and(in[0], out.create_not(in[1])));
            const auto r = out.create_not(out.create_and(out.create_not(in[0]), in[1]));
            return out.create_not(out.create_and(l, r));
        }
        return out.create_gate(type, in);
    });
    return strash(result);
}

LogicNetwork fold_inverters(const LogicNetwork& network, MappingStats* stats)
{
    const auto fanouts = network.fanout_counts();

    // complementary gate of a two-input gate
    const auto complement_of = [](GateType t) -> GateType {
        switch (t)
        {
            case GateType::and2: return GateType::nand2;
            case GateType::nand2: return GateType::and2;
            case GateType::or2: return GateType::nor2;
            case GateType::nor2: return GateType::or2;
            case GateType::xor2: return GateType::xnor2;
            case GateType::xnor2: return GateType::xor2;
            default: return GateType::none;
        }
    };

    LogicNetwork out;
    std::unordered_map<NodeId, NodeId> map;
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
            case GateType::inv:
            {
                // INV(g(a,b)) -> complementary gate if g has no other consumer
                const auto fi = node.fanin[0];
                const auto comp = complement_of(network.type_of(fi));
                if (comp != GateType::none && fanouts[fi] == 1)
                {
                    const auto& g = network.node(fi);
                    map[id] = out.create_gate(comp, {map.at(g.fanin[0]), map.at(g.fanin[1])});
                    // also register a mapping for the (now unused) inner gate
                    if (stats != nullptr)
                    {
                        ++stats->inverters_folded;
                    }
                }
                else
                {
                    map[id] = out.create_not(map.at(fi));
                }
                break;
            }
            case GateType::and2:
            case GateType::or2:
            case GateType::xor2:
            case GateType::xnor2:
            case GateType::nand2:
            case GateType::nor2:
            {
                const auto a = node.fanin[0];
                const auto b = node.fanin[1];
                const bool a_inv = network.type_of(a) == GateType::inv && fanouts[a] == 1;
                const bool b_inv = network.type_of(b) == GateType::inv && fanouts[b] == 1;
                GateType type = node.type;
                NodeId na = a, nb = b;
                if ((node.type == GateType::and2 || node.type == GateType::nand2) && a_inv && b_inv)
                {
                    // AND(~a,~b) = NOR(a,b); NAND(~a,~b) = OR(a,b)
                    type = node.type == GateType::and2 ? GateType::nor2 : GateType::or2;
                    na = network.node(a).fanin[0];
                    nb = network.node(b).fanin[0];
                    if (stats != nullptr)
                    {
                        stats->inverters_folded += 2;
                    }
                }
                else if ((node.type == GateType::or2 || node.type == GateType::nor2) && a_inv && b_inv)
                {
                    // OR(~a,~b) = NAND(a,b); NOR(~a,~b) = AND(a,b)
                    type = node.type == GateType::or2 ? GateType::nand2 : GateType::and2;
                    na = network.node(a).fanin[0];
                    nb = network.node(b).fanin[0];
                    if (stats != nullptr)
                    {
                        stats->inverters_folded += 2;
                    }
                }
                else if (node.type == GateType::xor2 || node.type == GateType::xnor2)
                {
                    // each complemented input toggles XOR <-> XNOR
                    if (a_inv)
                    {
                        type = complement_of(type);
                        na = network.node(a).fanin[0];
                        if (stats != nullptr)
                        {
                            ++stats->inverters_folded;
                        }
                    }
                    if (b_inv)
                    {
                        type = complement_of(type);
                        nb = network.node(b).fanin[0];
                        if (stats != nullptr)
                        {
                            ++stats->inverters_folded;
                        }
                    }
                }
                map[id] = out.create_gate(type, {map.at(na), map.at(nb)});
                break;
            }
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

namespace
{

/// Expands one signal into \p count usable references via a balanced tree of
/// explicit fan-out nodes; appends the resulting signals to \p result.
void expand_fanout(LogicNetwork& out, NodeId signal, unsigned count, std::vector<NodeId>& result,
                   MappingStats* stats)
{
    if (count == 1)
    {
        result.push_back(signal);
        return;
    }
    const auto fo = out.create_fanout(signal);
    if (stats != nullptr)
    {
        ++stats->fanouts_inserted;
    }
    const unsigned left = (count + 1) / 2;
    const unsigned right = count - left;
    expand_fanout(out, fo, left, result, stats);
    expand_fanout(out, fo, right, result, stats);
}

}  // namespace

LogicNetwork fanout_substitution(const LogicNetwork& network, MappingStats* stats)
{
    const auto fanouts = network.fanout_counts();

    LogicNetwork out;
    // per old node: queue of replacement signals, consumed one per use
    std::unordered_map<NodeId, std::vector<NodeId>> available;

    const auto take = [&](NodeId old) -> NodeId {
        auto& sigs = available.at(old);
        assert(!sigs.empty());
        const auto s = sigs.back();
        sigs.pop_back();
        return s;
    };

    for (const auto id : network.topological_order())
    {
        const auto& node = network.node(id);
        if (node.type == GateType::fanout && fanouts[id] < 2)
        {
            // a fan-out with fewer than two consumers is bypassed: its
            // consumer takes the fan-out's input signal
            available[id] = {take(node.fanin[0])};
            continue;
        }
        NodeId created = LogicNetwork::invalid_node;
        switch (node.type)
        {
            case GateType::pi: created = out.create_pi(node.name); break;
            case GateType::po: out.create_po(take(node.fanin[0]), node.name); continue;
            case GateType::const0: created = out.create_const(false); break;
            case GateType::const1: created = out.create_const(true); break;
            case GateType::none: continue;
            default:
            {
                std::vector<NodeId> fanins;
                for (unsigned i = 0; i < gate_arity(node.type); ++i)
                {
                    fanins.push_back(take(node.fanin[i]));
                }
                created = out.create_gate(node.type, fanins);
            }
        }
        const unsigned uses = std::max(1U, fanouts[id]);
        std::vector<NodeId> sigs;
        if (node.type == GateType::fanout)
        {
            // an existing fan-out provides two slots; a balanced tree under
            // each slot serves the remaining uses
            const unsigned left = (uses + 1) / 2;
            expand_fanout(out, created, left, sigs, stats);
            expand_fanout(out, created, uses - left, sigs, stats);
        }
        else
        {
            expand_fanout(out, created, uses, sigs, stats);
        }
        available[id] = std::move(sigs);
    }
    return out;
}

LogicNetwork map_to_bestagon(const LogicNetwork& network, MappingStats* stats)
{
    const auto folded = fold_inverters(strash(network), stats);
    return fanout_substitution(folded, stats);
}

}  // namespace bestagon::logic
