/// \file design_flow.hpp
/// \brief The complete Bestagon design flow (paper Section 4.2):
///
///   (1) parse a specification (Verilog or in-memory network) as XAG,
///   (2) cut-based rewriting with an exact NPN database,
///   (3) technology mapping onto the Bestagon gate set,
///   (4) SAT-based exact physical design on the hexagonal floor plan
///       (with the scalable heuristic as optional engine),
///   (5) SAT-based equivalence checking of specification vs. layout,
///   (6) super-tile merging via clock-zone expansion,
///   (7) application of the Bestagon library -> dot-accurate SiDB layout,
///   (7b) optional ground-state re-validation of every distinct tile the
///        layout instantiates (parallel physical simulation),
///   (8) design-file generation (.sqd / SVG).
///
/// This is the library's primary public entry point.

#pragma once

#include "core/run_control.hpp"
#include "layout/apply_gate_library.hpp"
#include "layout/design_rules.hpp"
#include "layout/equivalence_checking.hpp"
#include "layout/exact_physical_design.hpp"
#include "layout/gate_level_layout.hpp"
#include "layout/scalable_physical_design.hpp"
#include "layout/sidb_layout.hpp"
#include "layout/supertile.hpp"
#include "logic/network.hpp"
#include "phys/model.hpp"
#include "phys/operational.hpp"

#include <optional>
#include <string>
#include <vector>

namespace bestagon::core
{

/// Which placement & routing engine to use in step (4).
enum class PhysicalDesignEngine : std::uint8_t
{
    exact,                      ///< SAT-based, area-minimal [46]
    scalable,                   ///< constructive heuristic [49]
    exact_with_fallback         ///< exact first, heuristic if budget exhausted
};

struct FlowOptions
{
    bool rewrite{true};                         ///< enable step (2)
    PhysicalDesignEngine engine{PhysicalDesignEngine::exact_with_fallback};
    layout::ExactPDOptions exact_options{};
    unsigned supertile_expansion{0};            ///< 0 = minimum feasible factor

    /// Step (7b): re-run the ground-state operational check on every
    /// distinct library tile the layout uses (off by default — the library
    /// ships pre-validated designs; turn on for parameter studies).
    bool validate_gates{false};

    /// Physical model, engine and thread count for step (7b).
    /// sim_params.num_threads fans the independent tile checks out across
    /// workers (0 = hardware concurrency, 1 = serial); results are
    /// thread-count invariant. sim_params.engine picks the ground-state
    /// engine (Engine::exact by default).
    phys::SimulationParameters sim_params{};

    /// With sim_params.engine == Engine::simanneal, a tile that fails its
    /// check is retried up to this many times with a deterministically
    /// rotated anneal seed (retries are recorded in the stage diagnostics);
    /// the exact engine never retries.
    unsigned validation_retries{0};

    // ------------------------------------------------------------------
    // run control: with all fields at their defaults the flow behaves
    // bit-identically to an uncontrolled run
    // ------------------------------------------------------------------

    /// Cooperative cancellation for the whole flow (e.g. from
    /// install_sigint_stop()). Engines wind down at the next poll point; the
    /// flow still returns a well-formed FlowResult with diagnostics.
    StopToken stop{};

    /// Global wall-clock deadline for the whole flow in ms (< 0 = unlimited).
    /// On expiry the flow degrades instead of dying: exact P&R falls back to
    /// the scalable engine, equivalence reports `unknown`, step (7b) is
    /// skipped-with-record.
    std::int64_t deadline_ms{-1};

    /// Per-stage wall-clock budgets in ms (< 0 = unlimited); each clips the
    /// global deadline for its stage. The exact P&R stage budget lives in
    /// exact_options.time_budget_ms.
    std::int64_t equivalence_budget_ms{-1};
    std::int64_t validation_budget_ms{-1};
};

/// Outcome of re-validating one library tile in step (7b).
struct GateValidation
{
    std::string name;                  ///< library design name
    bool operational{false};
    std::uint64_t patterns_correct{0};
    std::uint64_t patterns_total{0};
    unsigned retries{0};               ///< seed-rotation retries spent on this tile
    bool evaluated{false};             ///< false when the check was skipped/cut by a stop
};

/// All artifacts and statistics produced by one flow run.
struct FlowResult
{
    logic::LogicNetwork xag;                    ///< after step (1)
    logic::LogicNetwork rewritten;              ///< after step (2)
    logic::LogicNetwork mapped;                 ///< after step (3)
    std::optional<layout::GateLevelLayout> layout;  ///< after step (4)
    layout::EquivalenceResult equivalence{layout::EquivalenceResult::unknown};  ///< step (5)
    std::optional<layout::SuperTileLayout> supertiles;  ///< step (6)
    std::optional<layout::SiDBLayout> sidb;     ///< after step (7)
    layout::DrcReport drc;                      ///< design-rule report
    layout::ApplyStats apply_stats;
    layout::ExactPDStats pd_stats;
    layout::ScalablePDStats scalable_stats;     ///< when the scalable engine ran
    std::string engine_used;                    ///< "exact" or "scalable"
    std::vector<GateValidation> gate_validation;  ///< step (7b), if enabled

    /// Per-stage account of the run: what completed, degraded, retried or
    /// was cut (see run_control.hpp). Stages appear in execution order.
    FlowDiagnostics diagnostics;

    /// A verified layout whose dot-accurate SiDB layout (the `.sqd`) exists.
    [[nodiscard]] bool success() const noexcept
    {
        return layout.has_value() && equivalence == layout::EquivalenceResult::equivalent &&
               sidb.has_value();
    }
};

/// Runs the full flow on an in-memory specification network. Never throws on
/// run-control events: a cancelled or timed-out run returns a well-formed
/// (partial) FlowResult whose diagnostics name the cut stage.
[[nodiscard]] FlowResult run_design_flow(const logic::LogicNetwork& specification,
                                         const FlowOptions& options = {});

/// Runs the full flow on a gate-level Verilog string. Malformed input does
/// not throw; it yields a FlowResult whose diagnostics carry a failed
/// "parse" stage.
[[nodiscard]] FlowResult run_design_flow_verilog(const std::string& verilog,
                                                 const FlowOptions& options = {});

/// Runs the full flow on an ISCAS-style BENCH string. Malformed input does
/// not throw; it yields a FlowResult whose diagnostics carry a failed
/// "parse" stage.
[[nodiscard]] FlowResult run_design_flow_bench(const std::string& bench,
                                               const FlowOptions& options = {});

}  // namespace bestagon::core
