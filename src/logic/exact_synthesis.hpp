/// \file exact_synthesis.hpp
/// \brief SAT-based exact synthesis of minimal Boolean chains (XAG-compatible)
///        and the exact NPN database used by the rewriting engine.
///
/// The paper's flow performs "cut-based logic rewriting with an exact NPN
/// database" [38]. exact_synthesize finds a minimal-length Boolean chain
/// (two-input gates over {AND, OR, XOR, AND-with-complemented-input},
/// explicit inverters) with the CDCL solver. The database the rewriter uses
/// is that synthesis precomputed: a committed table (npn_table.inc, written
/// by tools/npn_table) holds exact_synthesize's result for every canonical
/// NPN class of 2..4 inputs, so no SAT solver runs during rewriting.

#pragma once

#include "logic/network.hpp"
#include "logic/truth_table.hpp"

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace bestagon::logic
{

/// Per-run accounting for exact_synthesize. Distinguishes gate counts the
/// solver *proved* infeasible from ones it merely gave up on — a decline is
/// a minimality certificate only when no step exhausted its budget.
struct SynthesisStats
{
    unsigned unsat_steps{0};    ///< r values refuted by the solver
    unsigned unknown_steps{0};  ///< r values that hit the conflict budget
    unsigned proofs_checked{0};   ///< refutations certified by the DRAT checker
    unsigned proof_failures{0};   ///< refutations whose proof did NOT check

    /// True iff every attempted gate count was genuinely refuted, so a
    /// std::nullopt result proves no implementation with <= max_gates exists.
    [[nodiscard]] bool decline_is_certified() const noexcept
    {
        return unknown_steps == 0 && proof_failures == 0;
    }
};

/// exact_synthesize's defaults; the committed NPN table was generated with
/// exactly these settings.
inline constexpr unsigned default_max_gates = 7;
inline constexpr std::int64_t default_conflict_budget = 50000;

/// Synthesizes a minimal network computing \p f over its variables.
/// Returns std::nullopt if no implementation with at most \p max_gates
/// two-input gates was found within the conflict budget per SAT call.
/// The returned network has f.num_vars() PIs and one PO.
/// With \p certify_unsat, every refuted gate count is DRAT-certified by the
/// independent proof checker (outcomes in \p stats).
[[nodiscard]] std::optional<LogicNetwork> exact_synthesize(const TruthTable& f,
                                                           unsigned max_gates = default_max_gates,
                                                           std::int64_t conflict_budget = default_conflict_budget,
                                                           SynthesisStats* stats = nullptr,
                                                           bool certify_unsat = false);

/// Serializes \p network as its node list in id order, one space-separated
/// token per node: the gate-type name, the fanin ids in parentheses (gates
/// with fanins only) and `=name` (named nodes only), e.g.
/// "pi=x0 pi=x1 inv(1) and(0,2) po(3)=f". Throws std::invalid_argument for
/// deleted nodes and for names containing whitespace, '(' or '='.
[[nodiscard]] std::string encode_network(const LogicNetwork& network);

/// Rebuilds a network from encode_network's text by replaying the same
/// create_* calls, so the result matches the encoded network node for node
/// (ids, types, fanins, names). Throws std::invalid_argument on malformed
/// text.
[[nodiscard]] LogicNetwork decode_network(std::string_view text);

/// Largest input count the NPN table covers (canonize_npn's bound too).
inline constexpr unsigned npn_table_max_inputs = 4;

/// One class of the committed exact NPN table.
struct NpnTableEntry
{
    TruthTable canonical;         ///< canonical NPN representative (the key)
    LogicNetwork implementation;  ///< exact_synthesize(canonical) at its defaults
};

/// The committed table, decoded on first use (thread-safe): one entry per
/// canonical NPN class of 2..npn_table_max_inputs inputs (4 + 14 + 222),
/// ordered by input count, then by truth table.
[[nodiscard]] const std::vector<NpnTableEntry>& npn_table();

/// The rewriter's view of the NPN table. It serves committed entries only
/// and records which functions it was asked for, so a caller can report how
/// many distinct classes a run used.
class NpnDatabase
{
  public:
    /// Returns the table's implementation of the canonical function
    /// \p canonical, or nullptr if \p canonical is not a canonical NPN
    /// representative of 2..4 inputs. Throws std::invalid_argument for more
    /// than npn_table_max_inputs inputs. Repeated lookups return the same
    /// pointer.
    const LogicNetwork* lookup(const TruthTable& canonical);

    /// Distinct functions looked up so far.
    [[nodiscard]] std::size_t num_entries() const noexcept { return served_.size(); }
    /// Distinct functions looked up that have no table entry.
    [[nodiscard]] std::size_t num_synthesis_failures() const noexcept { return failures_; }

  private:
    std::unordered_map<TruthTable, const LogicNetwork*, TruthTableHash> served_;
    std::size_t failures_{0};
};

/// Number of two-input gates in a network (inverters/buffers not counted).
[[nodiscard]] std::size_t count_two_input_gates(const LogicNetwork& network);

}  // namespace bestagon::logic
