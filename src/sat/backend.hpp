/// \file backend.hpp
/// \brief The abstract SAT solver interface and the preprocessing backend.
///
/// Every SAT consumer in the code base (exact physical design, exact
/// synthesis, equivalence checking, the encodings library, the differential
/// oracles) programs against SatBackend. Two implementations exist:
///
///   * sat::Solver (solver.hpp) — the in-tree CDCL solver;
///   * sat::PreprocessingBackend (this header) — wraps a sat::Solver with
///     SatELite-style preprocessing (preprocessor.hpp), reconstructing
///     models and threading DRAT proofs through the simplification.
///
/// Callers construct the one they need. Every solve is bounded by the
/// SolveLimits passed to that call and by nothing else.

#pragma once

#include "core/run_control.hpp"
#include "sat/preprocessor.hpp"
#include "sat/sat_types.hpp"

#include <cstdint>
#include <memory>
#include <vector>

namespace bestagon::sat
{

class ProofTracer;
class Solver;

/// Bounds of ONE solve() call; nothing carries over to the next call. A
/// solve that hits any of them returns Result::unknown.
struct SolveLimits
{
    /// Conflicts the call may spend (< 0: unlimited).
    std::int64_t conflicts{-1};
    /// Cooperative cancellation and the absolute deadline, both polled
    /// during the search. A relative time budget becomes a deadline through
    /// core::RunBudget::clipped_ms().
    core::RunBudget run{};
};

/// Abstract incremental SAT solver. Mirrors the surface the code base relies
/// on: variables, clauses, assumption solving with unsat cores, per-call
/// limits, and DRAT proof tracing.
class SatBackend
{
  public:
    SatBackend() = default;
    SatBackend(const SatBackend&) = default;
    SatBackend(SatBackend&&) = default;
    SatBackend& operator=(const SatBackend&) = default;
    SatBackend& operator=(SatBackend&&) = default;
    virtual ~SatBackend() = default;

    /// Creates a fresh variable and returns it.
    virtual Var new_var() = 0;

    /// Number of variables created so far.
    [[nodiscard]] virtual int num_vars() const = 0;

    /// Adds a clause. Returns false if the clause makes the instance
    /// trivially unsatisfiable (implementations may also defer detection to
    /// solve(), in which case they return true here).
    virtual bool add_clause(std::vector<Lit> lits) = 0;

    /// Convenience overloads (hidden by the override in derived classes —
    /// re-expose with `using SatBackend::add_clause;`).
    bool add_clause(Lit a) { return add_clause(std::vector<Lit>{a}); }
    bool add_clause(Lit a, Lit b) { return add_clause(std::vector<Lit>{a, b}); }
    bool add_clause(Lit a, Lit b, Lit c) { return add_clause(std::vector<Lit>{a, b, c}); }

    /// Solves the current formula under the given assumptions, within
    /// \p limits (unlimited by default).
    virtual Result solve(const std::vector<Lit>& assumptions, const SolveLimits& limits = {}) = 0;
    Result solve() { return solve(std::vector<Lit>{}); }

    /// Model value of variable \p v after a satisfiable result.
    [[nodiscard]] virtual bool model_value(Var v) const = 0;

    /// Model value of a literal after a satisfiable result.
    [[nodiscard]] bool model_value(Lit l) const { return model_value(l.var()) != l.sign(); }

    /// After solve() returned unsatisfiable: the subset of the assumptions
    /// the refutation depends on. Empty when the formula itself is
    /// unsatisfiable regardless of the assumptions.
    [[nodiscard]] virtual const std::vector<Lit>& final_conflict() const = 0;

    /// Snapshot of the formula suitable for independent proof checking:
    /// every returned clause is a logical consequence of the clauses passed
    /// to add_clause(), and a DRAT refutation checked against the snapshot
    /// certifies the original formula unsatisfiable.
    [[nodiscard]] virtual std::vector<std::vector<Lit>> root_clauses() const = 0;

    [[nodiscard]] virtual const SolverStats& stats() const = 0;

    /// Attaches (or detaches, with nullptr) a DRAT proof tracer.
    virtual void set_proof_tracer(ProofTracer* tracer) = 0;

    /// Protects a variable from preprocessing elimination. Assumption
    /// variables passed to solve() are frozen automatically; freeze() is for
    /// variables whose model values are read without being assumed. No-op on
    /// backends that never eliminate variables.
    virtual void freeze(Var v) { static_cast<void>(v); }
};

/// Wraps a sat::Solver with CNF preprocessing. Clauses are collected
/// verbatim (they form root_clauses(), the certification target); the first
/// solve() runs the preprocessor with the call's assumption variables frozen
/// and loads the simplified formula into a fresh inner solver. Preprocessing
/// and the inner search share the call's SolveLimits: the deadline is
/// absolute, so the time spent preprocessing is already accounted for. SAT
/// models are reconstructed onto the original variables; UNSAT proofs
/// contain the preprocessor's derivations first, so they check against the
/// original formula end-to-end.
///
/// Incremental contract: growing the formula after the first solve() does
/// NOT schedule a re-preprocess. New variables and clauses that avoid
/// eliminated variables stream straight into the live inner solver, so
/// learned clauses and heuristic state persist across a monotone ladder of
/// solve(assumptions) calls (see DESIGN.md §14). Only a clause touching an
/// eliminated variable, a freeze() of an eliminated variable, an assumption
/// over one, or late tracer attachment forces a rebuild — rebuild_count()
/// exposes how often that happened so tests can pin the contract.
class PreprocessingBackend final : public SatBackend
{
  public:
    explicit PreprocessingBackend(PreprocessorOptions options = {});
    ~PreprocessingBackend() override;  // out of line: Solver is incomplete here

    Var new_var() override;
    [[nodiscard]] int num_vars() const override { return num_vars_; }
    bool add_clause(std::vector<Lit> lits) override;
    using SatBackend::add_clause;
    Result solve(const std::vector<Lit>& assumptions, const SolveLimits& limits = {}) override;
    using SatBackend::solve;
    [[nodiscard]] bool model_value(Var v) const override;
    using SatBackend::model_value;
    [[nodiscard]] const std::vector<Lit>& final_conflict() const override;
    [[nodiscard]] std::vector<std::vector<Lit>> root_clauses() const override;
    [[nodiscard]] const SolverStats& stats() const override;

    void set_proof_tracer(ProofTracer* tracer) override;
    void freeze(Var v) override;

    /// Statistics of the most recent preprocessing run.
    [[nodiscard]] const PreprocessorStats& preprocessor_stats() const noexcept { return prep_stats_; }

    /// Number of preprocess-and-reload cycles so far. Monotone incremental
    /// use (grow, solve, grow, solve, ...) must keep this at 1.
    [[nodiscard]] std::size_t rebuild_count() const noexcept { return rebuilds_; }

    /// Test-only fault hooks for the differential oracle (see oracles.cpp):
    /// return raw inner models without reconstruction / strip the
    /// preprocessor's proof steps while keeping the transformation.
    void testkit_skip_model_reconstruction(bool on) noexcept { skip_reconstruction_ = on; }
    void testkit_drop_preprocessor_proof_steps(bool on) noexcept { drop_prep_proof_ = on; }

  private:
    void rebuild(const std::vector<Lit>& assumptions, const core::RunBudget& run);

    PreprocessorOptions options_{};
    std::vector<std::vector<Lit>> original_clauses_;
    std::vector<Var> user_frozen_;
    int num_vars_{0};
    bool dirty_{false};
    bool formula_unsat_{false};
    std::size_t rebuilds_{0};

    std::unique_ptr<Preprocessor> prep_;
    std::unique_ptr<Solver> inner_;
    PreprocessorStats prep_stats_{};
    std::vector<LBool> model_;
    std::vector<Lit> empty_core_{};
    SolverStats no_stats_{};

    ProofTracer* proof_{nullptr};

    bool skip_reconstruction_{false};
    bool drop_prep_proof_{false};
};

}  // namespace bestagon::sat
