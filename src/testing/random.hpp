/// \file random.hpp
/// \brief Seeded random generators for every major input domain of the flow:
///        CNF formulas, truth tables, XAGs, Bestagon-mapped networks, hex
///        gate-level layouts and small SiDB canvases.
///
/// All generators draw from an explicit `Rng`, never from global state, so a
/// case is replayed exactly by re-seeding with the same 64-bit value (see
/// reproducer.hpp for the seed-derivation convention).

#pragma once

#include "layout/gate_level_layout.hpp"
#include "logic/network.hpp"
#include "logic/truth_table.hpp"
#include "phys/lattice.hpp"
#include "sat/dimacs.hpp"

#include <cstdint>
#include <optional>
#include <vector>

namespace bestagon::testkit
{

/// Deterministic 64-bit random stream (splitmix64 — the same finalizer that
/// backs core::derive_seed, so streams for distinct seeds are independent).
class Rng
{
  public:
    explicit Rng(std::uint64_t seed) : state_{seed} {}

    /// Next raw 64-bit value.
    std::uint64_t next();

    /// Uniform value in [0, bound); bound must be > 0.
    std::uint64_t below(std::uint64_t bound);

    /// Uniform value in the inclusive range [lo, hi].
    unsigned range(unsigned lo, unsigned hi);

    /// True with probability \p p.
    bool chance(double p);

    /// Uniform double in [0, 1).
    double real();

  private:
    std::uint64_t state_;
};

// --- CNF formulas ----------------------------------------------------------

struct CnfOptions
{
    unsigned min_vars{3};
    unsigned max_vars{20};       ///< keep <= 20 so UNSAT answers stay brute-forceable
    unsigned max_clause_len{4};  ///< unit clauses are generated too
    double clause_ratio_min{1.0};  ///< #clauses >= ratio * #vars
    double clause_ratio_max{6.0};  ///< high ratios make UNSAT instances likely
};

/// Random CNF over a random number of variables. Mixes clause lengths and
/// densities so both satisfiable and unsatisfiable instances occur.
[[nodiscard]] sat::Cnf random_cnf(Rng& rng, const CnfOptions& options = {});

// --- truth tables ----------------------------------------------------------

/// Uniformly random truth table over \p num_vars <= 16 variables.
[[nodiscard]] logic::TruthTable random_truth_table(Rng& rng, unsigned num_vars);

// --- logic networks --------------------------------------------------------

struct XagOptions
{
    unsigned min_pis{2};
    unsigned max_pis{5};
    unsigned min_gates{3};
    unsigned max_gates{16};
    unsigned max_pos{3};        ///< 1..max_pos primary outputs
    bool xag_gates_only{true};  ///< false also emits OR/NAND/NOR/XNOR nodes
};

/// Random feed-forward logic network: every gate reads already-created
/// signals, and every signal is observed — unconsumed signals are reduced
/// pairwise and routed to 1..max_pos primary outputs, so the networks meet
/// the fully-observed precondition shared by real specifications and both
/// P&R engines (no dangling logic cones).
[[nodiscard]] logic::LogicNetwork random_network(Rng& rng, const XagOptions& options = {});

/// Random network mapped onto the Bestagon gate set
/// (satisfies is_bestagon_compliant()).
[[nodiscard]] logic::LogicNetwork random_mapped_network(Rng& rng, const XagOptions& options = {});

// --- gate-level layouts ----------------------------------------------------

/// Random hexagonal gate-level layout: a random mapped network placed and
/// routed with the always-feasible scalable engine. Returns nullopt only if
/// the placer rejects the network (does not happen for generator output, but
/// callers must not assume).
[[nodiscard]] std::optional<layout::GateLevelLayout> random_gate_layout(
    Rng& rng, const XagOptions& options = {});

// --- SiDB canvases ---------------------------------------------------------

struct CanvasOptions
{
    unsigned min_dots{2};
    unsigned max_dots{12};  ///< keep small enough for brute-force ground states
    std::int32_t max_column{10};     ///< n in [0, max_column]
    std::int32_t max_dimer_row{6};   ///< m in [0, max_dimer_row]
};

/// Random set of unique SiDB sites on the H-Si(100)-2x1 surface.
[[nodiscard]] std::vector<phys::SiDBSite> random_sidb_canvas(Rng& rng,
                                                             const CanvasOptions& options = {});

}  // namespace bestagon::testkit
