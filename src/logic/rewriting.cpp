#include "logic/rewriting.hpp"

#include "logic/cuts.hpp"
#include "logic/npn.hpp"

#include <algorithm>
#include <array>
#include <cassert>
#include <cstdint>
#include <span>
#include <vector>

namespace bestagon::logic
{

namespace
{

using NodeId = LogicNetwork::NodeId;
using Fanins = std::array<NodeId, 3>;

/// Largest cut the rewriter enumerates; every cut function is looked up in
/// the NPN table, which must therefore cover it.
constexpr unsigned max_cut_size = 4;
static_assert(max_cut_size <= npn_table_max_inputs, "every cut function needs an NPN table entry");

/// Cuts kept per node by the enumeration.
constexpr unsigned cut_limit = 12;

/// Logic gates in num_gates()'s sense: every node with a fanin except POs.
[[nodiscard]] constexpr bool is_gate(GateType t) noexcept
{
    return gate_arity(t) >= 1 && t != GateType::po;
}

/// Structural hashing on flat node arrays, and the one home of strash's
/// folding rules. strash() runs every node of a network through it; the
/// rewriter's candidate costing runs one replacement cone and its transitive
/// fan-out through it on top of the current network, then truncates back.
///
/// Nodes are appended in creation order, so a builder fed the nodes of a
/// network in topological order holds the unswept strashed network, node
/// for node. The hash is open addressing over node ids and is only ever
/// probed, never traversed.
class StrashBuilder
{
  public:
    explicit StrashBuilder(std::size_t expected_nodes)
    {
        types_.reserve(expected_nodes);
        fanins_.reserve(expected_nodes);
        std::size_t capacity = 16;
        while (capacity < 2 * expected_nodes)
        {
            capacity *= 2;
        }
        table_.assign(capacity, LogicNetwork::invalid_node);
    }

    [[nodiscard]] std::size_t size() const noexcept { return types_.size(); }
    [[nodiscard]] GateType type_of(NodeId id) const { return types_[id]; }
    [[nodiscard]] const Fanins& fanins(NodeId id) const { return fanins_[id]; }

    /// Appends a node that is neither hashed nor folded (PI, PO).
    NodeId append(GateType type, Fanins fanins = {})
    {
        const auto id = static_cast<NodeId>(types_.size());
        types_.push_back(type);
        fanins_.push_back(fanins);
        return id;
    }

    /// The constant node of \p value, created on first use.
    NodeId constant(bool value)
    {
        auto& cached = value ? const1_ : const0_;
        if (cached == LogicNetwork::invalid_node)
        {
            cached = append(value ? GateType::const1 : GateType::const0);
        }
        return cached;
    }

    /// The node computing \p type over \p fanins after folding: commutative
    /// fanins are sorted; buffers, double inversions, constants and
    /// idempotent or self-cancelling AND/OR/XOR inputs fold away; a gate
    /// identical to an existing one is that one.
    NodeId create(GateType type, Fanins f)
    {
        const unsigned arity = gate_arity(type);
        assert(is_gate(type));
        for (unsigned i = arity; i < f.size(); ++i)
        {
            f[i] = 0;
        }
        if (arity >= 2)
        {
            std::sort(f.begin(), f.begin() + arity);
        }
        const auto t0 = types_[f[0]];
        const auto t1 = arity > 1 ? types_[f[1]] : GateType::none;
        const bool c0 = t0 == GateType::const0 || t0 == GateType::const1;
        const bool c1 = t1 == GateType::const0 || t1 == GateType::const1;
        const bool v0 = t0 == GateType::const1;
        const bool v1 = t1 == GateType::const1;
        switch (type)
        {
            case GateType::buf: return f[0];
            case GateType::inv:
                if (c0)
                {
                    return constant(!v0);
                }
                if (t0 == GateType::inv)
                {
                    return fanins_[f[0]][0];  // double inversion
                }
                break;
            case GateType::and2:
                if (c0)
                {
                    return v0 ? f[1] : constant(false);
                }
                if (c1)
                {
                    return v1 ? f[0] : constant(false);
                }
                if (f[0] == f[1])
                {
                    return f[0];
                }
                break;
            case GateType::or2:
                if (c0)
                {
                    return v0 ? constant(true) : f[1];
                }
                if (c1)
                {
                    return v1 ? constant(true) : f[0];
                }
                if (f[0] == f[1])
                {
                    return f[0];
                }
                break;
            case GateType::xor2:
                if (c0)
                {
                    return v0 ? create(GateType::inv, {f[1]}) : f[1];
                }
                if (c1)
                {
                    return v1 ? create(GateType::inv, {f[0]}) : f[0];
                }
                if (f[0] == f[1])
                {
                    return constant(false);
                }
                break;
            default: break;
        }
        auto slot = slot_of(type, f);
        for (; table_[slot] != LogicNetwork::invalid_node; slot = next(slot))
        {
            const auto id = table_[slot];
            if (types_[id] == type && fanins_[id] == f)
            {
                return id;
            }
        }
        const auto id = append(type, f);
        if (2 * (hashed_ + 1) > table_.size())
        {
            rehash(2 * table_.size());  // places id as well
        }
        else
        {
            table_[slot] = id;
            ++hashed_;
        }
        return id;
    }

    /// Drops every node from \p size on, with its hash entry. Entries leave
    /// in the reverse of their insertion order, which restores the table to
    /// its state when the builder last had \p size nodes.
    void truncate(std::size_t size)
    {
        while (types_.size() > size)
        {
            const auto id = static_cast<NodeId>(types_.size() - 1);
            if (is_gate(types_[id]))
            {
                auto slot = slot_of(types_[id], fanins_[id]);
                while (table_[slot] != id)
                {
                    slot = next(slot);
                }
                table_[slot] = LogicNetwork::invalid_node;
                --hashed_;
            }
            types_.pop_back();
            fanins_.pop_back();
        }
        for (auto* cached : {&const0_, &const1_})
        {
            if (*cached != LogicNetwork::invalid_node && *cached >= size)
            {
                *cached = LogicNetwork::invalid_node;
            }
        }
    }

  private:
    [[nodiscard]] std::size_t slot_of(GateType type, const Fanins& f) const noexcept
    {
        std::uint64_t h = static_cast<std::uint64_t>(type) + 1;
        for (const auto x : f)
        {
            h = (h ^ x) * 0x9e3779b97f4a7c15ULL;
        }
        return static_cast<std::size_t>(h ^ (h >> 32)) & (table_.size() - 1);
    }

    [[nodiscard]] std::size_t next(std::size_t slot) const noexcept { return (slot + 1) & (table_.size() - 1); }

    /// Re-inserts every hashed node in id (= insertion) order.
    void rehash(std::size_t capacity)
    {
        table_.assign(capacity, LogicNetwork::invalid_node);
        hashed_ = 0;
        for (NodeId id = 0; id < types_.size(); ++id)
        {
            if (is_gate(types_[id]))
            {
                auto slot = slot_of(types_[id], fanins_[id]);
                while (table_[slot] != LogicNetwork::invalid_node)
                {
                    slot = next(slot);
                }
                table_[slot] = id;
                ++hashed_;
            }
        }
    }

    std::vector<GateType> types_;
    std::vector<Fanins> fanins_;
    NodeId const0_{LogicNetwork::invalid_node};
    NodeId const1_{LogicNetwork::invalid_node};
    std::vector<NodeId> table_;  ///< node id per slot, invalid_node if empty
    std::size_t hashed_{0};
};

/// The fanins of \p node, each through \p map.
[[nodiscard]] Fanins mapped_fanins(const Node& node, const std::vector<NodeId>& map)
{
    Fanins f{};
    for (unsigned i = 0; i < gate_arity(node.type); ++i)
    {
        f[i] = map[node.fanin[i]];
    }
    return f;
}

/// \p out's gate of \p type over \p fanins.
NodeId create_gate(LogicNetwork& out, GateType type, const Fanins& fanins)
{
    return out.create_gate(type, std::vector<NodeId>(fanins.begin(), fanins.begin() + gate_arity(type)));
}

/// Copies \p impl (a single-PO network) into \p target, substituting
/// \p leaf_signals for the PIs. Returns the signal of the implementation root.
NodeId instantiate(LogicNetwork& target, const LogicNetwork& impl, const std::vector<NodeId>& leaf_signals)
{
    std::vector<NodeId> map(impl.size(), LogicNetwork::invalid_node);
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
            case GateType::po: root = map[node.fanin[0]]; break;
            default: map[id] = create_gate(target, node.type, mapped_fanins(node, map));
        }
    }
    assert(root != LogicNetwork::invalid_node);
    return root;
}

/// Rebuilds \p network, replacing the cone of \p root (over \p cut_leaves)
/// by \p impl. Other nodes are recreated as-is; dead cone nodes are swept.
LogicNetwork rebuild_with_replacement(const LogicNetwork& network, NodeId root,
                                      std::span<const NodeId> cut_leaves, const LogicNetwork& impl)
{
    LogicNetwork out;
    std::vector<NodeId> map(network.size(), LogicNetwork::invalid_node);
    for (const auto id : network.topological_order())
    {
        const auto& node = network.node(id);
        if (id == root)
        {
            std::vector<NodeId> leaf_signals;
            leaf_signals.reserve(cut_leaves.size());
            for (const auto l : cut_leaves)
            {
                leaf_signals.push_back(map[l]);
            }
            map[id] = instantiate(out, impl, leaf_signals);
            continue;
        }
        switch (node.type)
        {
            case GateType::pi: map[id] = out.create_pi(node.name); break;
            case GateType::po: out.create_po(map[node.fanin[0]], node.name); break;
            case GateType::const0: map[id] = out.create_const(false); break;
            case GateType::const1: map[id] = out.create_const(true); break;
            case GateType::none: break;
            default: map[id] = create_gate(out, node.type, mapped_fanins(node, map));
        }
    }
    return sweep(out);
}

/// The canonical implementation \p impl adapted to \p cut's function through
/// \p t, as a network over the cut leaves: canonical input i reads leaf
/// perm[i], inverted if bit i of input_flips is set, and the output is
/// inverted if output_negated.
LogicNetwork adapt(const Cut& cut, const NpnTransform& t, const LogicNetwork& impl)
{
    const unsigned n = cut.num_leaves;
    LogicNetwork adapted;
    std::vector<NodeId> pi_ids;
    pi_ids.reserve(n);
    for (unsigned i = 0; i < n; ++i)
    {
        pi_ids.push_back(adapted.create_pi());
    }
    std::vector<NodeId> canon_inputs(n);
    for (unsigned i = 0; i < n; ++i)
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

/// Costs candidates on one network without building them. The network is
/// run through a StrashBuilder once; a candidate runs only its adapted
/// implementation and the root's transitive fan-out through the builder on
/// top of that, counts the gates reachable from the POs and truncates the
/// builder back. Every node keeps one identity per structure, so the count
/// equals the gate count of the swept, strashed rebuild: upstream nodes,
/// dead cone nodes and the old fan-out only add builder nodes that no PO
/// reaches, and a replacement that rebuilds an existing structure finds it
/// in the hash as the rebuild's strash would.
class CandidateCosting
{
  public:
    explicit CandidateCosting(const LogicNetwork& network)
        : network_{network}, builder_{network.size() + 64}, map_(network.size(), LogicNetwork::invalid_node),
          in_fanout_(network.size(), 0)
    {
        for (const auto id : network.topological_order())
        {
            const auto& node = network.node(id);
            switch (node.type)
            {
                case GateType::pi: map_[id] = builder_.append(GateType::pi); break;
                case GateType::const0: map_[id] = builder_.constant(false); break;
                case GateType::const1: map_[id] = builder_.constant(true); break;
                case GateType::po:
                case GateType::none: break;
                default: map_[id] = builder_.create(node.type, mapped_fanins(node, map_));
            }
        }
        base_map_ = map_;
        base_size_ = builder_.size();
    }

    /// Selects the node whose cone the next cost() calls replace.
    void set_root(NodeId root)
    {
        for (const auto id : fanout_)
        {
            map_[id] = base_map_[id];
            in_fanout_[id] = 0;
        }
        fanout_.clear();
        if (root_ != LogicNetwork::invalid_node)
        {
            map_[root_] = base_map_[root_];
            in_fanout_[root_] = 0;
        }
        root_ = root;
        in_fanout_[root] = 1;
        for (auto id = root + 1; id < network_.size(); ++id)
        {
            const auto& node = network_.node(id);
            if (!is_gate(node.type))
            {
                continue;
            }
            for (unsigned i = 0; i < gate_arity(node.type); ++i)
            {
                if (in_fanout_[node.fanin[i]] != 0)
                {
                    in_fanout_[id] = 1;
                    fanout_.push_back(id);
                    break;
                }
            }
        }
    }

    /// Gate count of the network with the root's cone over \p leaves
    /// replaced by \p impl adapted through \p t.
    std::size_t cost(std::span<const NodeId> leaves, const NpnTransform& t, const LogicNetwork& impl)
    {
        builder_.truncate(base_size_);
        std::array<NodeId, max_cut_size> inputs{};
        for (unsigned i = 0; i < leaves.size(); ++i)
        {
            inputs[i] = map_[leaves[t.perm[i]]];
            if ((t.input_flips >> i) & 1U)
            {
                inputs[i] = builder_.create(GateType::inv, {inputs[i]});
            }
        }
        impl_map_.assign(impl.size(), LogicNetwork::invalid_node);
        unsigned pi_index = 0;
        NodeId root_sig = LogicNetwork::invalid_node;
        for (NodeId id = 0; id < impl.size(); ++id)
        {
            const auto& node = impl.node(id);
            switch (node.type)
            {
                case GateType::pi: impl_map_[id] = inputs[pi_index++]; break;
                case GateType::const0: impl_map_[id] = builder_.constant(false); break;
                case GateType::const1: impl_map_[id] = builder_.constant(true); break;
                case GateType::po: root_sig = impl_map_[node.fanin[0]]; break;
                case GateType::none: break;
                default: impl_map_[id] = builder_.create(node.type, mapped_fanins(node, impl_map_));
            }
        }
        assert(root_sig != LogicNetwork::invalid_node);
        if (t.output_negated)
        {
            root_sig = builder_.create(GateType::inv, {root_sig});
        }
        map_[root_] = root_sig;
        for (const auto id : fanout_)
        {
            const auto& node = network_.node(id);
            map_[id] = builder_.create(node.type, mapped_fanins(node, map_));
        }
        return live_gates();
    }

  private:
    /// Gates reachable from the POs through the current map.
    std::size_t live_gates()
    {
        if (seen_.size() < builder_.size())
        {
            seen_.resize(builder_.size(), 0);
        }
        ++epoch_;  // one per candidate; a pass has far fewer than 2^32
        stack_.clear();
        for (const auto po : network_.pos())
        {
            stack_.push_back(map_[network_.node(po).fanin[0]]);
        }
        std::size_t count = 0;
        while (!stack_.empty())
        {
            const auto id = stack_.back();
            stack_.pop_back();
            if (seen_[id] == epoch_)
            {
                continue;
            }
            seen_[id] = epoch_;
            const auto type = builder_.type_of(id);
            if (!is_gate(type))
            {
                continue;
            }
            ++count;
            const auto& f = builder_.fanins(id);
            stack_.insert(stack_.end(), f.begin(), f.begin() + gate_arity(type));
        }
        return count;
    }

    const LogicNetwork& network_;
    StrashBuilder builder_;
    std::vector<NodeId> map_;        ///< network node -> builder node, for the current candidate
    std::vector<NodeId> base_map_;   ///< network node -> builder node, unreplaced
    std::size_t base_size_{0};       ///< builder size of the unreplaced network
    NodeId root_{LogicNetwork::invalid_node};
    std::vector<NodeId> fanout_;     ///< root's transitive fan-out gates, topological
    std::vector<std::uint8_t> in_fanout_;  ///< root or in fanout_
    std::vector<NodeId> impl_map_;
    std::vector<std::uint32_t> seen_;
    std::uint32_t epoch_{0};
    std::vector<NodeId> stack_;
};

std::vector<RewriteCandidate> cost_candidates(const LogicNetwork& network, const CutEnumeration& cuts,
                                              NpnDatabase& database)
{
    std::vector<RewriteCandidate> candidates;
    CandidateCosting costing{network};
    for (const auto id : network.topological_order())
    {
        if (gate_arity(network.type_of(id)) != 2)
        {
            continue;  // rewrite roots are two-input gates
        }
        costing.set_root(id);
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
            candidates.push_back({id, c, costing.cost(cut.leaves(), canon.transform, *impl)});
        }
    }
    return candidates;
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
    std::vector<NodeId> map(network.size(), LogicNetwork::invalid_node);
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
            case GateType::po: out.create_po(map[node.fanin[0]], node.name); break;
            case GateType::const0: map[id] = out.create_const(false); break;
            case GateType::const1: map[id] = out.create_const(true); break;
            case GateType::none: break;
            default: map[id] = create_gate(out, node.type, mapped_fanins(node, map));
        }
    }
    return out;
}

LogicNetwork strash(const LogicNetwork& network)
{
    StrashBuilder builder{network.size()};
    std::vector<NodeId> map(network.size(), LogicNetwork::invalid_node);
    std::vector<NodeId> named;  // PIs and POs of `network`, in builder order
    for (const auto id : network.topological_order())
    {
        const auto& node = network.node(id);
        switch (node.type)
        {
            case GateType::pi:
                map[id] = builder.append(GateType::pi);
                named.push_back(id);
                break;
            case GateType::po:
                builder.append(GateType::po, {map[node.fanin[0]]});
                named.push_back(id);
                break;
            case GateType::const0: map[id] = builder.constant(false); break;
            case GateType::const1: map[id] = builder.constant(true); break;
            case GateType::none: break;
            default: map[id] = builder.create(node.type, mapped_fanins(node, map));
        }
    }
    // the builder's nodes, in order, are the unswept strashed network
    LogicNetwork out;
    auto name = named.begin();
    for (NodeId id = 0; id < builder.size(); ++id)
    {
        const auto type = builder.type_of(id);
        switch (type)
        {
            case GateType::pi: out.create_pi(network.node(*name++).name); break;
            case GateType::po: out.create_po(builder.fanins(id)[0], network.node(*name++).name); break;
            case GateType::const0: out.create_const(false); break;
            case GateType::const1: out.create_const(true); break;
            default: create_gate(out, type, builder.fanins(id));
        }
    }
    return sweep(out);
}

std::vector<RewriteCandidate> rewrite_candidates(const LogicNetwork& network, NpnDatabase& database)
{
    return cost_candidates(network, CutEnumeration{network, max_cut_size, cut_limit}, database);
}

LogicNetwork rewrite(const LogicNetwork& network, NpnDatabase& database, RewriteStats* stats)
{
    LogicNetwork current = strash(network);
    RewriteStats local;
    local.gates_before = network.num_gates();

    for (bool improved = true; improved;)
    {
        improved = false;
        ++local.passes;
        const CutEnumeration cuts{current, max_cut_size, cut_limit};
        const auto candidates = cost_candidates(current, cuts, database);

        // the first strict minimum in (node, cut) order wins
        const RewriteCandidate* best = nullptr;
        std::size_t best_size = current.num_gates();
        for (const auto& candidate : candidates)
        {
            if (candidate.gates < best_size)
            {
                best_size = candidate.gates;
                best = &candidate;
            }
        }
        if (best != nullptr)
        {
            const auto& cut = cuts.cuts_of(best->root)[best->cut];
            const auto canon = canonize_npn(cut.function());
            const auto* impl = database.lookup(canon.canonical);
            current = strash(rebuild_with_replacement(current, best->root, cut.leaves(),
                                                      adapt(cut, canon.transform, *impl)));
            assert(current.num_gates() == best_size);
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

}  // namespace bestagon::logic
