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
///
/// Each node's placement is restricted to a row window that every layout
/// obeys (see minimum_height()), and the ladder starts at the smallest
/// height for which all windows are non-empty. Heights below it are never
/// encoded or solved.
///
/// Every size gets a fresh encoding and solver, so its verdict depends on
/// nothing but the network, the size and the limits. After the first size
/// is refuted, the sizes are decided up to two at a time (the calling
/// thread and one helper thread) and booked in ladder order; a satisfiable
/// size stops the later ones. The verdicts, their search work and the
/// layout equal those of deciding one size at a time, which is what a call
/// on a one-CPU machine or from a core::ThreadPool worker does.

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

    /// Emit a DRAT proof for every aspect ratio the solver refutes and check
    /// it with the independent proof checker; results land in ExactPDStats.
    bool certify_unsat{false};

    /// On a declined instance (no layout, budget NOT exhausted), re-encode
    /// the largest aspect ratio with per-constraint-group guard literals and
    /// extract which groups refute it (ExactPDStats::refuting_groups). This
    /// also runs when the limits leave the ladder empty: a max_height below
    /// minimum_height() reports "clocking" (an empty row window).
    bool diagnose_infeasibility{false};

    /// Fabrication defects to avoid: tiles whose lattice footprint collides
    /// with a defect (see layout/defect_map.hpp) receive unit clauses
    /// forbidding any placement or wire on them, so every returned layout is
    /// fabricable on the given surface. An infeasibility diagnosis reports
    /// the "defects" constraint group when the blocked tiles are what
    /// refutes the instance. Empty = legacy defect-free behavior.
    phys::DefectSurface defects{};
};

/// Per-aspect-ratio SAT verdict of one exact-P&R run, in ladder order, with
/// the work of the size's solve: its search trace in three counts.
struct SizeVerdict
{
    AspectRatio size{};
    sat::Result result{sat::Result::unknown};
    std::uint64_t conflicts{0};
    std::uint64_t decisions{0};
    std::uint64_t propagations{0};
};

struct ExactPDStats
{
    unsigned sizes_tried{0};

    /// Always 0: the ladder walks sizes once in ascending (area, height)
    /// order, so a size dominated by a refuted one was already tried and
    /// none is ever skipped. Kept because stats consumers (bench/flow) still
    /// report it.
    unsigned sizes_skipped{0};
    std::uint64_t total_conflicts{0};
    bool budget_exhausted{false};
    bool cancelled{false};  ///< the run's StopToken requested a stop
    std::string message;

    /// Always 0: every aspect ratio is encoded afresh, so no encoding grid
    /// ever grows. Kept because stats consumers (bench/flow) still report it.
    unsigned grid_generations{0};

    /// SAT/UNSAT/unknown per explored aspect ratio, in exploration order.
    std::vector<SizeVerdict> size_verdicts;

    /// Most aspect ratios that were being solved at once: 2 once the ladder
    /// went on two at a time after its first refuted size, 1 when it ran
    /// one at a time (one CPU, or called from a core::ThreadPool worker),
    /// 0 when nothing was solved.
    unsigned rungs_in_flight{0};

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

/// Lower bound on the height of every layout of \p network, from its path
/// lengths and its I/O span.
///
/// Lemma: PIs sit on row 0 and POs on the last row, each on its own tile.
/// In odd-r hex coordinates every SW or SE step lowers exactly one of the
/// cube coordinates q and s by one, so along a routed path neither grows.
/// A node on row r reached from PIs on row-0 tiles x_i has q <= x_i <= q + r,
/// so k distinct PIs in its fan-in cone put it on row r >= k - 1.
/// Symmetrically, m distinct POs in its fan-out cone put it at least m - 1
/// rows above the last row. Defects only remove tiles, so the lemma holds
/// on a defective surface too.
///
/// Windows: with |PI(v)| the PIs of v's fan-in cone and |PO(v)| the POs of
/// its fan-out cone,
///   lo(v)   = max(|PI(v)| - 1, max over fan-ins u of lo(u) + 1),
///   tail(v) = max(|PO(v)| - 1, max over fan-outs w of tail(w) + 1),
/// and v lies in rows [lo(v), h - 1 - tail(v)] of every w x h layout.
/// Returns max over v of lo(v) + tail(v) + 1: the smallest height at which
/// every window is non-empty.
[[nodiscard]] unsigned minimum_height(const logic::LogicNetwork& network);

}  // namespace bestagon::layout
