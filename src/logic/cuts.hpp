/// \file cuts.hpp
/// \brief K-feasible cut enumeration with cut functions.
///
/// Cuts drive the NPN rewriting engine: each cut of a node induces a local
/// function over its leaves that can be replaced by an optimal implementation
/// from the exact NPN database.

#pragma once

#include "logic/network.hpp"
#include "logic/truth_table.hpp"

#include <array>
#include <cstdint>
#include <span>
#include <vector>

namespace bestagon::logic
{

/// A cut: at most max_leaves leaves, sorted by node id, and the root
/// function over them (variable i of the function corresponds to
/// leaves()[i]), stored flat.
///
/// The function is computed by simulating the cone between the root and
/// the leaves, with every leaf a free variable, also a leaf that lies in
/// another leaf's fan-in.
struct Cut
{
    /// A function of up to 6 variables fits one 64-bit word.
    static constexpr unsigned max_leaves = 6;

    std::array<LogicNetwork::NodeId, max_leaves> leaf_ids{};  ///< the first num_leaves are the leaves
    unsigned num_leaves{0};
    std::uint64_t function_bits{0};  ///< bit t is the function at minterm t

    [[nodiscard]] std::span<const LogicNetwork::NodeId> leaves() const noexcept
    {
        return {leaf_ids.data(), num_leaves};
    }
    [[nodiscard]] TruthTable function() const { return TruthTable::from_word(num_leaves, function_bits); }
};

/// Enumerates up to \p cut_limit k-feasible cuts per node.
class CutEnumeration
{
  public:
    /// Throws std::invalid_argument if \p k exceeds Cut::max_leaves.
    CutEnumeration(const LogicNetwork& network, unsigned k = 4, unsigned cut_limit = 12);

    [[nodiscard]] std::span<const Cut> cuts_of(LogicNetwork::NodeId node) const
    {
        return {cuts_.data() + begin_[node], cuts_.data() + end_[node]};
    }

  private:
    std::vector<Cut> cuts_;  ///< every node's cuts, one node after the other
    std::vector<std::uint32_t> begin_;
    std::vector<std::uint32_t> end_;
};

}  // namespace bestagon::logic
