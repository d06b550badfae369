/// \file exact_physical_design.hpp
/// \brief SAT-based exact placement & routing on the hexagonal floor plan —
///        the adaptation of the exact method of [46] used in flow step (4).
///
/// For a given aspect ratio w x h under the row-based Columnar scheme, the
/// encoding places every network node on a tile and routes every edge as a
/// strictly downward path (one row per step = one clock phase per step,
/// which makes all signal paths balanced by construction and yields the
/// paper's 1/1 throughput). Aspect ratios are enumerated in ascending area,
/// so the first satisfiable size is area-minimal.

#pragma once

#include "core/run_control.hpp"
#include "layout/aspect_ratio_ladder.hpp"
#include "layout/gate_level_layout.hpp"
#include "logic/network.hpp"
#include "phys/defect.hpp"
#include "sat/sat_types.hpp"

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace bestagon::layout
{

struct ExactPDOptions
{
    unsigned max_width{12};
    unsigned max_height{20};
    std::int64_t conflicts_per_size{300000};  ///< SAT conflict budget per aspect ratio
    std::int64_t time_budget_ms{120000};      ///< overall wall-clock budget

    /// Cooperative cancellation / deadline; checked between aspect ratios and
    /// inside the SAT search. The deadline composes with (further clips)
    /// time_budget_ms. Default: unlimited.
    core::RunBudget run{};

    /// Walk the aspect-ratio ladder on ONE persistent solver: the encoding
    /// grows monotonically (new tiles => new variables and clauses, never
    /// retraction) and each size is a solve(assumptions) call, so learned
    /// clauses and search heuristics carry across ratios (DESIGN.md §14).
    /// Off = the legacy fresh-encoding-per-size path, kept alive as the
    /// differential oracle's reference lane.
    bool incremental{true};

    /// Emit a DRAT proof for every aspect ratio the solver refutes and check
    /// it with the independent proof checker; results land in ExactPDStats.
    /// In incremental mode each rejected ratio is certified UNSAT under its
    /// size assumptions (assumption unit clauses + the cumulative proof).
    bool certify_unsat{false};

    /// Test-only fault injection: solve every size under the FIRST grid
    /// generation's activation literal (the selector never advances), leaving
    /// all newer completeness clauses unasserted. The incremental-vs-fresh
    /// differential oracle must catch the resulting spurious verdicts (see
    /// testing/oracles.hpp).
    bool testkit_leak_stale_activation{false};

    /// On a declined instance (no layout, budget NOT exhausted), re-encode
    /// the largest aspect ratio with per-constraint-group guard literals and
    /// extract which groups refute it (ExactPDStats::refuting_groups).
    bool diagnose_infeasibility{false};

    /// Fabrication defects to avoid: tiles whose lattice footprint collides
    /// with a defect (see layout/defect_map.hpp) receive unit clauses
    /// forbidding any placement or wire on them, so every returned layout is
    /// fabricable on the given surface. An infeasibility diagnosis reports
    /// the "defects" constraint group when the blocked tiles are what
    /// refutes the instance. Empty = legacy defect-free behavior.
    phys::DefectSurface defects{};
};

/// Per-aspect-ratio SAT verdict of one exact-P&R run, in ladder order.
struct SizeVerdict
{
    AspectRatio size{};
    sat::Result result{sat::Result::unknown};
};

struct ExactPDStats
{
    unsigned sizes_tried{0};
    unsigned sizes_skipped{0};  ///< pruned as dominated by a refuted size
    std::uint64_t total_conflicts{0};
    bool budget_exhausted{false};
    bool cancelled{false};  ///< the run's StopToken requested a stop
    std::string message;

    /// Number of grid growths of the persistent incremental encoding (0 on
    /// the fresh-per-size path).
    unsigned grid_generations{0};

    /// SAT/UNSAT/unknown per explored aspect ratio, in exploration order.
    std::vector<SizeVerdict> size_verdicts;

    unsigned proofs_checked{0};   ///< UNSAT verdicts certified by the checker
    unsigned proof_failures{0};   ///< UNSAT verdicts whose proof did NOT check

    /// Constraint groups a declined instance's refutation depends on
    /// ("clocking", "placement", "exclusivity", "routing", "capacity",
    /// "defects"); empty unless diagnose_infeasibility was set and the flow
    /// declined.
    std::vector<std::string> refuting_groups;
};

/// Runs exact physical design on a Bestagon-compliant mapped network.
/// Returns std::nullopt if no layout was found within the limits.
[[nodiscard]] std::optional<GateLevelLayout> exact_physical_design(const logic::LogicNetwork& network,
                                                                   const ExactPDOptions& options = {},
                                                                   ExactPDStats* stats = nullptr);

/// Lower bound on the layout height (longest PI->PO path in tiles).
[[nodiscard]] unsigned minimum_height(const logic::LogicNetwork& network);

}  // namespace bestagon::layout
