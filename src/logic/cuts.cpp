#include "logic/cuts.hpp"

#include <algorithm>
#include <cstdint>
#include <stdexcept>

namespace bestagon::logic
{

namespace
{

using NodeId = LogicNetwork::NodeId;
using Leaves = std::span<const NodeId>;

/// True if cut \p a dominates \p b (a's leaves are a subset of b's).
[[nodiscard]] bool dominates(Leaves a, Leaves b)
{
    return std::includes(b.begin(), b.end(), a.begin(), a.end());
}

/// Writes the sorted union of the sorted leaf sets \p a and \p b to \p out;
/// false, with \p out unspecified, if the union has more than \p k leaves.
[[nodiscard]] bool merge_leaves(Leaves a, Leaves b, unsigned k, Cut& out)
{
    unsigned n = 0;
    std::size_t i = 0;
    std::size_t j = 0;
    while (i < a.size() || j < b.size())
    {
        if (n == k)
        {
            return false;
        }
        if (j == b.size() || (i < a.size() && a[i] < b[j]))
        {
            out.leaf_ids[n++] = a[i++];
        }
        else
        {
            if (i < a.size() && a[i] == b[j])
            {
                ++i;
            }
            out.leaf_ids[n++] = b[j++];
        }
    }
    out.num_leaves = n;
    return true;
}

/// Simulates cones over at most 6 leaves as single 64-bit words. Values live
/// in flat per-node arrays; a value is valid for the current cone only if
/// its epoch is the current one, so nothing is cleared between cones.
class ConeSimulator
{
  public:
    explicit ConeSimulator(const LogicNetwork& network)
            : network_{network}, value_(network.size()), epoch_(network.size(), 0)
    {}

    /// The function of \p root over \p leaves (leaf i is variable i), as the
    /// low 2^|leaves| bits of a word. Every cone path from \p root must end
    /// in a leaf or a constant.
    [[nodiscard]] std::uint64_t simulate(NodeId root, Leaves leaves)
    {
        static constexpr std::uint64_t projections[Cut::max_leaves] = {
            0xaaaaaaaaaaaaaaaaULL, 0xccccccccccccccccULL, 0xf0f0f0f0f0f0f0f0ULL,
            0xff00ff00ff00ff00ULL, 0xffff0000ffff0000ULL, 0xffffffff00000000ULL};
        const auto n = leaves.size();
        const std::uint64_t mask = n == 6 ? ~std::uint64_t{0} : (std::uint64_t{1} << (1U << n)) - 1;
        ++current_;
        for (std::size_t i = 0; i < n; ++i)
        {
            set(leaves[i], projections[i] & mask);
        }

        // iterative post-order evaluation
        stack_.assign(1, root);
        while (!stack_.empty())
        {
            const NodeId id = stack_.back();
            if (epoch_[id] == current_)
            {
                stack_.pop_back();
                continue;
            }
            const auto& node = network_.node(id);
            const unsigned arity = gate_arity(node.type);
            if (arity == 0)
            {
                // constant leaves are allowed; PIs must be cut leaves
                if (node.type != GateType::const0 && node.type != GateType::const1)
                {
                    throw std::logic_error{"CutEnumeration: cone not covered by leaves"};
                }
                set(id, node.type == GateType::const1 ? mask : 0);
                stack_.pop_back();
                continue;
            }
            bool ready = true;
            for (unsigned i = 0; i < arity; ++i)
            {
                if (epoch_[node.fanin[i]] != current_)
                {
                    stack_.push_back(node.fanin[i]);
                    ready = false;
                }
            }
            if (!ready)
            {
                continue;
            }
            stack_.pop_back();
            const auto a = value_[node.fanin[0]];
            const auto b = arity > 1 ? value_[node.fanin[1]] : 0;
            const auto c = arity > 2 ? value_[node.fanin[2]] : 0;
            switch (node.type)
            {
                case GateType::buf:
                case GateType::fanout:
                case GateType::po: set(id, a); break;
                case GateType::inv: set(id, ~a & mask); break;
                case GateType::and2: set(id, a & b); break;
                case GateType::or2: set(id, a | b); break;
                case GateType::nand2: set(id, ~(a & b) & mask); break;
                case GateType::nor2: set(id, ~(a | b) & mask); break;
                case GateType::xor2: set(id, a ^ b); break;
                case GateType::xnor2: set(id, ~(a ^ b) & mask); break;
                case GateType::maj3: set(id, (a & b) | (a & c) | (b & c)); break;
                default: throw std::logic_error{"CutEnumeration: unexpected node type"};
            }
        }
        return value_[root];
    }

  private:
    void set(NodeId id, std::uint64_t value)
    {
        value_[id] = value;
        epoch_[id] = current_;
    }

    const LogicNetwork& network_;
    std::vector<std::uint64_t> value_;
    std::vector<std::uint32_t> epoch_;
    std::uint32_t current_{0};
    std::vector<NodeId> stack_;
};

}  // namespace

CutEnumeration::CutEnumeration(const LogicNetwork& network, unsigned k, unsigned cut_limit)
{
    if (k > Cut::max_leaves)
    {
        throw std::invalid_argument{"CutEnumeration: k exceeds 6, the largest cut whose function fits one word"};
    }
    ConeSimulator simulator{network};
    begin_.assign(network.size(), 0);
    end_.assign(network.size(), 0);
    Cut candidate;  // leaves of the next cut to add
    Cut ab;         // leaves of the first two fan-ins of a 3-input gate
    for (const auto id : network.topological_order())
    {
        // a node gets at most cut_limit cuts: with this capacity, adding them
        // moves none of the fan-in cuts read below
        if (cuts_.capacity() < cuts_.size() + cut_limit)
        {
            cuts_.reserve(std::max<std::size_t>(2 * cuts_.capacity(), cuts_.size() + cut_limit));
        }
        const auto begin = cuts_.size();
        begin_[id] = static_cast<std::uint32_t>(begin);

        const auto add_candidate = [&] {
            for (auto c = begin; c < cuts_.size(); ++c)
            {
                if (dominates(cuts_[c].leaves(), candidate.leaves()))
                {
                    return;  // dominated by an existing (smaller) cut
                }
            }
            if (cuts_.size() - begin >= cut_limit)
            {
                return;
            }
            candidate.function_bits = simulator.simulate(id, candidate.leaves());
            cuts_.push_back(candidate);
        };

        const auto& node = network.node(id);
        const unsigned arity = gate_arity(node.type);
        if (node.type != GateType::none)
        {
            if (arity == 1)
            {
                for (const auto& c : cuts_of(node.fanin[0]))
                {
                    if (merge_leaves(c.leaves(), {}, k, candidate))
                    {
                        add_candidate();
                    }
                }
            }
            else if (arity == 2)
            {
                for (const auto& ca : cuts_of(node.fanin[0]))
                {
                    for (const auto& cb : cuts_of(node.fanin[1]))
                    {
                        if (merge_leaves(ca.leaves(), cb.leaves(), k, candidate))
                        {
                            add_candidate();
                        }
                    }
                }
            }
            else if (arity == 3)
            {
                for (const auto& ca : cuts_of(node.fanin[0]))
                {
                    for (const auto& cb : cuts_of(node.fanin[1]))
                    {
                        if (!merge_leaves(ca.leaves(), cb.leaves(), k, ab))
                        {
                            continue;
                        }
                        for (const auto& cc : cuts_of(node.fanin[2]))
                        {
                            if (merge_leaves(ab.leaves(), cc.leaves(), k, candidate))
                            {
                                add_candidate();
                            }
                        }
                    }
                }
            }
            // the trivial cut {node} is always available
            if (merge_leaves({&id, 1}, {}, k, candidate))
            {
                add_candidate();
            }
        }
        end_[id] = static_cast<std::uint32_t>(cuts_.size());
    }
}

}  // namespace bestagon::logic
