/// \file rewriting.hpp
/// \brief Cut-based logic rewriting with an exact NPN database (flow step 2),
///        plus structural hashing and dead-node sweeping.

#pragma once

#include "logic/exact_synthesis.hpp"
#include "logic/network.hpp"

#include <cstddef>
#include <vector>

namespace bestagon::logic
{

/// Removes nodes unreachable from the POs; preserves PI/PO order and names.
[[nodiscard]] LogicNetwork sweep(const LogicNetwork& network);

/// Structural hashing: deduplicates identical gates, folds constants,
/// collapses inverter pairs and buffers. Functionally equivalent rebuild.
[[nodiscard]] LogicNetwork strash(const LogicNetwork& network);

/// One candidate of a rewrite pass: the cone of `root` over the leaves of
/// its `cut`-th cut (CutEnumeration order) replaced by the NPN table's
/// implementation of the cut function.
struct RewriteCandidate
{
    LogicNetwork::NodeId root{0};
    std::size_t cut{0};
    /// Exactly the num_gates() of the network with the replacement spliced
    /// in, swept and strashed.
    std::size_t gates{0};
};

/// Every candidate of one rewrite pass over \p network, in (topological
/// root, cut) order, costed without building any of them. Cuts with fewer
/// than two leaves and functions without a table entry are not candidates.
[[nodiscard]] std::vector<RewriteCandidate> rewrite_candidates(const LogicNetwork& network,
                                                               NpnDatabase& database);

struct RewriteStats
{
    std::size_t gates_before{0};
    std::size_t gates_after{0};
    std::size_t replacements{0};
    std::size_t passes{0};
};

/// Cut-based rewriting: repeatedly replaces the cone of some node by an
/// optimal implementation from the exact NPN database while the total gate
/// count shrinks. Each pass costs every rewrite_candidates() entry of the
/// current network and applies the first one strictly smaller than it.
/// Returns a functionally equivalent network.
[[nodiscard]] LogicNetwork rewrite(const LogicNetwork& network, NpnDatabase& database,
                                   RewriteStats* stats = nullptr);

}  // namespace bestagon::logic
