/// \file oracles.hpp
/// \brief Differential oracles cross-checking every redundant engine pair in
///        the flow:
///
///  1. CDCL solver vs. solver-independent checks — SAT answers are
///     model-checked against every clause, UNSAT answers carry a DRAT proof
///     certified by the independent backward checker and are additionally
///     refuted or confirmed by an exhaustive sweep (instances <= 20 vars).
///  2. The ground-state engine vs. 2^n brute force on small canvases: the
///     population-bounded exact engine must find the exact minimum and
///     degeneracy.
///  3. Exact vs. scalable placement & routing — both layouts must pass
///     SAT-based equivalence checking against the specification network;
///     the exact engine additionally DRAT-certifies every refuted size and
///     emits only design-rule-clean layouts.
///  4. Rewriting + technology mapping vs. the input network via random
///     simulation (64 patterns by default; exhaustive when <= 16 PIs).
///  5. Run control: a flow run under fault-injected cancellation / deadlines
///     must never throw, return within a small multiple of its budget, and
///     produce a FlowResult whose artifacts and per-stage diagnostics are
///     mutually consistent.
///
/// Each oracle takes an optional *fault* that corrupts one engine's answer
/// before cross-checking. Faults exist purely so tests can prove the oracle
/// detects real divergence (a mutation-coverage check for the oracle
/// itself); production code never sets them.

#pragma once

#include "core/design_flow.hpp"
#include "logic/network.hpp"
#include "layout/exact_physical_design.hpp"
#include "phys/model.hpp"
#include "phys/operational.hpp"
#include "sat/dimacs.hpp"

#include <cstdint>
#include <string>
#include <vector>

namespace bestagon::testkit
{

/// Outcome of one oracle evaluation. `detail` explains the first detected
/// divergence in one paragraph (empty when ok).
struct OracleVerdict
{
    bool ok{true};
    std::string detail;

    /// Convenience for gtest: EXPECT_TRUE(verdict) prints the detail.
    explicit operator bool() const noexcept { return ok; }
};

// --- 1. SAT: CDCL vs. model check, DRAT and brute force --------------------

enum class SatFault : std::uint8_t
{
    none,
    flip_reported_result,  ///< pretend the solver answered SAT<->UNSAT
    corrupt_model,         ///< flip the model value of the first variable
    drop_proof_lemmas      ///< discard every learnt clause from the DRAT proof
};

struct SatOracleStats
{
    bool unsat{false};          ///< the solver genuinely answered UNSAT
    bool proof_checked{false};  ///< that answer carried a verified DRAT proof
};

/// Solves \p cnf with the arena solver and certifies the verdict by checks
/// that do not depend on the solver:
///
///  - a SAT model must satisfy every clause of \p cnf;
///  - an UNSAT answer must carry a DRAT proof that the independent backward
///    checker (sat/proof_check.hpp) certifies against the root formula;
///  - an UNSAT answer on at most \p max_bruteforce_vars variables is also
///    confirmed by an exhaustive assignment sweep.
///
/// The faults corrupt what the solver reports, proving each check has
/// teeth: drop_proof_lemmas guts the proof down to its final empty clause
/// before checking — rejected whenever the refutation actually needed a
/// learnt lemma.
[[nodiscard]] OracleVerdict sat_differential(const sat::Cnf& cnf,
                                             unsigned max_bruteforce_vars = 20,
                                             SatFault fault = SatFault::none,
                                             SatOracleStats* stats = nullptr);

// --- 2. ground states: exact engine vs. brute force -------------------------

/// Largest system brute_force_ground_state enumerates (2^18 configurations).
inline constexpr std::size_t max_brute_force_sites = 18;

/// The reference ground state by enumeration: every one of the 2^n charge
/// configurations is checked for physical validity with a naive evaluator
/// (fresh local-potential sums, independent of the charge-state kernel) and
/// scored with SiDBSystem::grand_potential. Returns the first configuration
/// of minimum grand potential in enumeration order, that minimum, and the
/// exact number of valid configurations within
/// SimulationParameters::energy_tolerance of it (complete = true). Throws
/// std::invalid_argument past max_brute_force_sites sites.
[[nodiscard]] phys::GroundStateResult brute_force_ground_state(const phys::SiDBSystem& system);

enum class GroundStateFault : std::uint8_t
{
    none,
    shift_exact_energy,  ///< misreport the brute-force minimum by +10 meV
    /// Narrow the exact engine's population window so it prunes the true
    /// ground state — models an unsound bound derivation.
    shrink_exact_population_window,
    /// Leave the sites before the exact engine's branching index without the
    /// row update of the charge placed there — models a descent that copies
    /// only part of the parent's potentials forward.
    stale_exact_potentials
};

/// Runs the exact engine (population-bounded search) on the canvas with
/// brute_force_ground_state as the reference: it must report a complete
/// search of a physically valid configuration at the minimum (the
/// reference's configuration with a bit-identical energy, or on a degenerate
/// canvas another one within energy_tolerance) and the same degeneracy count
/// — it claims exactness, so any divergence is a bug.
[[nodiscard]] OracleVerdict ground_state_differential(const std::vector<phys::SiDBSite>& canvas,
                                                      const phys::SimulationParameters& sim_params,
                                                      GroundStateFault fault = GroundStateFault::none);

// --- 2b. charge-state kernel: incremental cache vs. naive evaluation --------

enum class ChargeStateFault : std::uint8_t
{
    none,
    skip_cache_update  ///< one commit updates the config but not the v_i cache
};

/// Differential oracle for the incremental charge-state kernel
/// (phys::ChargeState), in three parts:
///
///  1. *Cache fidelity*: drives a kernel through \p num_moves seeded random
///     flip/hop commits on \p canvas while mirroring the moves on a plain
///     configuration; after every commit each cached v_i must match a fresh
///     SiDBSystem::local_potential sum within \p tolerance, the kernel's
///     O(n) cached grand potential must match the naive pairwise sum, and a
///     rebuild() must restore bit-exact agreement.
///  2. *Engine fidelity*: the kernel-backed quench is cross-checked against
///     the pre-refactor naive quench kept here (fresh local-potential sums
///     at every decision) and must reproduce its descent trajectory, and
///     the exact ground state must pass the same check against
///     brute_force_ground_state as in ground_state_differential when the
///     canvas has at most 14 sites.
///  3. With ChargeStateFault::skip_cache_update, one mid-sequence commit
///     bypasses the cache update; the oracle must detect the divergence
///     (mutation coverage for the oracle itself).
[[nodiscard]] OracleVerdict charge_state_differential(
    const std::vector<phys::SiDBSite>& canvas, const phys::SimulationParameters& sim_params,
    std::uint64_t seed, unsigned num_moves = 256, double tolerance = 1e-12,
    ChargeStateFault fault = ChargeStateFault::none);

// --- 2c. defects: external potentials, blocking, yield sweep -----------------

enum class DefectFault : std::uint8_t
{
    none,
    /// The kernel rebuild drops the charged-defect background W — models an
    /// engine that forgot the external potentials (the defect analogue of
    /// skip_cache_update).
    ignore_defect_potentials
};

/// Differential oracle for the defect-aware simulation path, in four parts:
///
///  1. *Defect-free bit-identity*: an EMPTY DefectSurface must be
///     indistinguishable from the pristine instances — check_operational's
///     ground state of every pattern bit-identical to find_ground_state on
///     `SiDBSystem{design.instance_sites(p), sim_params}`, and no
///     external-potential row allocated (the zero-cost-when-unused contract
///     of defect.hpp).
///  2. *External-potential fidelity*: on a seeded charged surface around the
///     design, every cached quantity is checked against fresh O(n^2) sums
///     evaluated here from first principles (screened Coulomb per defect):
///     the system's W row, every cached kernel v_i after seeded random
///     commits, and the O(n) cached energies, all within \p tolerance.
///     The exact engine (which sees W through the kernel) must agree with
///     brute_force_ground_state (which sees it through fresh sums) on the
///     defect system when it has at most max_brute_force_sites sites.
///  3. *Yield-sweep invariants*: a small Monte-Carlo sweep over \p design
///     must evaluate every sample, produce a monotonically non-increasing
///     survival curve, and be bit-identical between 1 and 3 worker threads.
///  4. With DefectFault::ignore_defect_potentials, the kernel cache is
///     rebuilt without W mid-check; the oracle must detect the divergence
///     (mutation coverage for the oracle itself).
[[nodiscard]] OracleVerdict defect_differential(const phys::GateDesign& design,
                                                const phys::SimulationParameters& sim_params,
                                                std::uint64_t seed, double tolerance = 1e-12,
                                                DefectFault fault = DefectFault::none);

// --- 3. physical design: exact vs. scalable --------------------------------

enum class PdFault : std::uint8_t
{
    none,
    invert_spec_output  ///< models an engine realizing the wrong function
};

struct PdOracleStats
{
    bool exact_ran{false};         ///< false if the exact engine's budget expired
    bool scalable_ran{false};      ///< false if the constructive march declined the network
    bool constant_function{false}; ///< mapping folded the spec to a constant — P&R skipped
    unsigned exact_area{0};
    unsigned scalable_area{0};
    unsigned proofs_checked{0};  ///< exact-engine UNSAT sizes with verified DRAT proofs
    unsigned proof_failures{0};  ///< UNSAT sizes whose proof did NOT check (always a bug)
};

/// Maps \p spec onto the Bestagon gate set, runs both P&R engines and
/// SAT-equivalence-checks every produced layout against the mapped network
/// (plus mapped vs. spec functionally). The exact engine runs with UNSAT
/// certification and has three more checks of its own:
///
///  - every refuted aspect ratio carries a DRAT proof the independent
///    checker accepts;
///  - its layout passes check_design_rules;
///  - its area never exceeds the scalable layout's when that layout lies
///    inside the exact search bounds (the ascending-area ladder is minimal).
///
/// Either engine may decline: the exact
/// engine by exhausting \p exact_options' budget, the scalable engine on
/// densely reconvergent networks its march cannot realize. A decline skips
/// that engine's checks (reported via stats), never fails the oracle —
/// callers asserting engine participation must inspect the stats.
[[nodiscard]] OracleVerdict physical_design_differential(
    const logic::LogicNetwork& spec, const layout::ExactPDOptions& exact_options,
    PdOracleStats* stats = nullptr, PdFault fault = PdFault::none);

// --- 4. front end: rewriting + mapping vs. input ---------------------------

enum class FrontendFault : std::uint8_t
{
    none,
    invert_mapped_output  ///< models a rewrite/mapping step dropping an inverter
};

/// Rewrites and maps \p input, then compares input, rewritten and mapped
/// networks on \p num_patterns random input patterns (seeded by \p seed).
/// Also asserts the mapped network is Bestagon-compliant.
[[nodiscard]] OracleVerdict frontend_differential(const logic::LogicNetwork& input,
                                                  std::uint64_t seed, unsigned num_patterns = 64,
                                                  FrontendFault fault = FrontendFault::none);

// --- 5. run control: cancellation, deadlines, degradation -------------------

enum class RunControlFault : std::uint8_t
{
    none,
    drop_diagnostics,  ///< models a flow that forgets to account for its stages
    forge_success      ///< models an `equivalent` verdict without a layout
};

struct RunControlOracleStats
{
    std::int64_t wall_ms{0};   ///< measured wall-clock of the whole flow call
    bool interrupted{false};   ///< a stage reported timed_out or cancelled
    bool produced_layout{false};
    bool produced_sidb{false};
    std::string first_cut;     ///< name of the first cut stage (empty when none)
    std::string engine_used;
};

/// Runs the full design flow on \p spec under whatever run-control event
/// \p options injects (a pre-tripped or concurrently tripped stop token, a
/// global deadline, an exact P&R budget) and checks the invariants every
/// controlled run must satisfy:
///
///  - the flow never throws, whatever is cut when;
///  - diagnostics are never empty and artifacts match the stage statuses
///    (a layout implies a completed/degraded physical_design stage, a cut
///    physical_design stage implies no layout, every derived artifact
///    implies its prerequisite, `equivalent` implies a completed check);
///  - a run that was cut names the cut stage via first_cut();
///  - with a global deadline of D ms the call returns within
///    2*D + \p timing_slack_ms (the slack absorbs the token-only scalable
///    fallback and scheduler noise on loaded CI machines);
///  - step (7b) bookkeeping: unevaluated tiles are only ever reported by a
///    cut or skipped gate_validation stage.
[[nodiscard]] OracleVerdict run_control_differential(
    const logic::LogicNetwork& spec, const core::FlowOptions& options,
    std::int64_t timing_slack_ms = 2000, RunControlOracleStats* stats = nullptr,
    RunControlFault fault = RunControlFault::none);

/// Structural copy of \p network with the driver of PO \p po_index routed
/// through a fresh inverter — the standard "seeded mutation" used to prove
/// the equivalence oracles catch functionally wrong engine output.
[[nodiscard]] logic::LogicNetwork with_inverted_po(const logic::LogicNetwork& network,
                                                   unsigned po_index = 0);

}  // namespace bestagon::testkit
