/// \file gate_designer.hpp
/// \brief Automatic gate design by stochastic canvas search.
///
/// The paper's Bestagon tiles were designed "with the assistance of a
/// reinforcement learning agent [28] which is allowed to place SiDBs within
/// the logic design canvas and toggle through input combinations to check
/// for logic correctness", followed by manual review. This module provides
/// the equivalent automation: it searches subsets of candidate canvas
/// positions until the resulting design passes the operational check.

#pragma once

#include "phys/operational.hpp"

#include <cstdint>
#include <optional>
#include <vector>

namespace bestagon::phys
{

struct DesignerOptions
{
    unsigned min_canvas_dots{1};
    unsigned max_canvas_dots{6};
    unsigned max_iterations{20000};  ///< random subsets / local moves tried (per restart)
    std::uint64_t seed{0xbe57a60};

    /// Independent search restarts. Restart 0 runs with `seed` verbatim
    /// (bit-identical to the single-restart search); restart r > 0 runs with
    /// core::derive_seed(seed, r). The restart with the lowest index that
    /// finds an operational design wins, so the outcome is deterministic.
    /// Restarts fan out on SimulationParameters::num_threads, as do the
    /// input patterns of each candidate's operational check.
    unsigned num_restarts{1};

    /// Cooperative cancellation / deadline: polled between search iterations
    /// and between pattern simulations. A stopped run returns std::nullopt.
    core::RunBudget run{};
};

struct DesignerResult
{
    GateDesign design;             ///< skeleton + chosen canvas dots
    std::vector<SiDBSite> canvas;  ///< the chosen canvas dots
    unsigned iterations_used{0};   ///< iterations within the winning restart
    unsigned restart_used{0};      ///< index of the winning restart
};

/// Searches for canvas dots (chosen from \p candidates) that make
/// \p skeleton operational under \p params. The skeleton must already
/// contain wires, pairs, drivers, perturbers and expected functions.
/// Throws std::invalid_argument if the skeleton has more than
/// max_gate_inputs inputs.
[[nodiscard]] std::optional<DesignerResult> design_gate(const GateDesign& skeleton,
                                                        const std::vector<SiDBSite>& candidates,
                                                        const DesignerOptions& options,
                                                        const SimulationParameters& params);

}  // namespace bestagon::phys
