/// \file solver.hpp
/// \brief A conflict-driven clause-learning (CDCL) SAT solver.
///
/// This solver is the one propositional reasoning engine of the code base:
/// exact physical design, SAT-based equivalence checking, exact synthesis
/// (tools/npn_table), the encodings library and the differential oracles all
/// name it directly. It follows the classic MiniSat architecture:
/// two-literal watching with blockers, first-UIP clause learning with
/// recursive minimization, VSIDS branching, phase saving, Luby restarts, and
/// LBD-aware learnt-clause reduction. Incremental solving under assumptions
/// is supported, and every solve() call is bounded by the SolveLimits passed
/// to that call and by nothing else.
///
/// Clauses of three or more literals, and learnt binary clauses, live in a
/// bump-pointer arena (clause_allocator.hpp) addressed by 32-bit references;
/// deleted clauses are compacted away by a deterministic garbage collector
/// once the wasted fraction crosses a threshold. A binary problem clause is
/// only its two watchers: each carries the binary_watch tag and the other
/// literal as its blocker, a reason names the other literal, and a binary
/// conflict is kept as its two literals. Problem binaries are never deleted,
/// so nothing else needs them. Learnt binaries stay in the arena because the
/// learnt-clause reduction sorts and counts them with the other learnt
/// clauses. All watch lists share one WatchPool.
///
/// The search trace (decisions, propagations, conflicts, learnt clauses and
/// models) does not depend on where a clause is kept: watchers of a literal
/// are visited in insertion order wherever they live, a binary conflict is
/// analyzed as (blocker, false literal), the order the arena clause had at
/// that point, and a binary reason contributes the one literal an arena
/// reason would.
///
/// A formula whose clauses are known in advance can be emitted once into a
/// ClauseBuffer and loaded with load(): one counting sweep over the buffer
/// gives variables, arena words, problem clauses and every watch list
/// exactly their final size, so loading the formula grows and copies
/// nothing, and the solver ends up as the same new_var()/add_clause()
/// sequence would leave it.

#pragma once

#include "core/run_control.hpp"
#include "sat/clause_allocator.hpp"
#include "sat/sat_types.hpp"

#include <cstdint>
#include <initializer_list>
#include <span>
#include <vector>

namespace bestagon::sat
{

class MemoryProofTracer;

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

/// A formula as flat literals and clause ends, for Solver::load(). It
/// takes the new_var()/add_clause() calls a solver takes and normalizes
/// each clause as Solver::add_clause() does on a solver without
/// assignments: literals sorted, duplicates dropped, a tautology dropped
/// whole. Units and the empty clause are kept as they come.
class ClauseBuffer
{
  public:
    Var new_var() { return num_vars_++; }

    [[nodiscard]] int num_vars() const noexcept { return num_vars_; }
    [[nodiscard]] std::size_t num_clauses() const noexcept { return ends_.size(); }

    void add_clause(std::span<const Lit> lits);
    void add_clause(std::initializer_list<Lit> lits)
    {
        add_clause(std::span<const Lit>{lits.begin(), lits.size()});
    }

    /// The normalized literals of clause \p i, in insertion order.
    [[nodiscard]] std::span<const Lit> clause(std::size_t i) const noexcept
    {
        const std::size_t begin = i == 0 ? 0 : ends_[i - 1];
        return {lits_.data() + begin, ends_[i] - begin};
    }

  private:
    int num_vars_{0};
    std::vector<Lit> lits_;
    std::vector<std::uint32_t> ends_;  ///< one past each clause's last literal
};

/// CDCL SAT solver with incremental assumption-based solving.
class Solver
{
  public:
    Solver();

    /// Loads \p formula into an empty solver: its variables, then its
    /// clauses in order. Every per-variable array, the arena and each watch
    /// list is sized once from one counting sweep over the buffer. From the
    /// first unit or empty clause on, clauses go through add_clause(), which
    /// simplifies them against the root assignments. The solver is left as
    /// the same new_var()/add_clause() sequence leaves it. Returns false
    /// when the formula is trivially unsatisfiable, as add_clause() does.
    bool load(const ClauseBuffer& formula);

    /// Creates a fresh variable and returns it.
    Var new_var();

    /// Number of variables created so far.
    [[nodiscard]] int num_vars() const noexcept { return static_cast<int>(assigns_.size()); }

    /// Number of problem (non-learnt) clauses currently held.
    [[nodiscard]] std::size_t num_clauses() const noexcept { return num_problem_clauses_; }

    /// Adds a clause (disjunction of literals). Returns false if the clause
    /// makes the instance trivially unsatisfiable (e.g. empty after
    /// simplification against top-level assignments).
    bool add_clause(std::span<const Lit> lits);
    bool add_clause(std::initializer_list<Lit> lits)
    {
        return add_clause(std::span<const Lit>{lits.begin(), lits.size()});
    }
    bool add_clause(Lit a) { return add_clause({a}); }
    bool add_clause(Lit a, Lit b) { return add_clause({a, b}); }
    bool add_clause(Lit a, Lit b, Lit c) { return add_clause({a, b, c}); }

    /// Solves the current formula under the given assumptions. Exceeding a
    /// limit yields Result::unknown; the stop token is polled at every
    /// decision, the deadline every few hundred decisions.
    Result solve(const std::vector<Lit>& assumptions, const SolveLimits& limits = {});
    Result solve() { return solve(std::vector<Lit>{}); }

    /// Model value of variable \p v after a satisfiable result.
    [[nodiscard]] bool model_value(Var v) const
    {
        return model_[static_cast<std::size_t>(v)] == LBool::true_;
    }

    /// Model value of a literal after a satisfiable result.
    [[nodiscard]] bool model_value(Lit l) const { return model_value(l.var()) != l.sign(); }

    [[nodiscard]] const SolverStats& stats() const noexcept { return stats_; }

    /// True once the formula was proven unsatisfiable without assumptions.
    [[nodiscard]] bool in_conflicting_state() const noexcept { return !ok_; }

    /// Attaches (or detaches, with nullptr) a DRAT proof tracer. Every learnt
    /// clause, every database deletion and — on an assumption-free UNSAT — the
    /// final empty clause are recorded in it. No tracing work happens when no
    /// tracer is attached.
    void set_proof_tracer(MemoryProofTracer* tracer) noexcept { proof_ = tracer; }

    /// After solve() returned unsatisfiable: the subset of the assumptions
    /// that the refutation depends on (the "unsat core" over assumptions).
    /// Empty when the formula itself is unsatisfiable regardless of the
    /// assumptions.
    [[nodiscard]] const std::vector<Lit>& final_conflict() const noexcept { return conflict_core_; }

    /// Snapshot of the root-level formula as the solver holds it: stored
    /// problem clauses, top-level units from clause simplification, and any
    /// clause that simplified to empty (in original form). Every returned
    /// clause is a logical consequence of the clauses passed to add_clause(),
    /// so a DRAT refutation checked against this snapshot certifies the
    /// original formula unsatisfiable. Intended for proof certification.
    [[nodiscard]] std::vector<std::vector<Lit>> root_clauses() const;

    /// Compacts the clause arena, dropping deleted clauses and stale
    /// watchers. Clause contents, metadata and all list orders are
    /// preserved, so solve traces are bit-identical with or without a
    /// collection. Runs automatically after database reductions once the
    /// wasted fraction exceeds the GC threshold; public for tests.
    void garbage_collect();

    /// Fraction of arena words that may be wasted (deleted clauses) before a
    /// database reduction triggers garbage collection. Values <= 0 collect
    /// after every reduction (useful to prove GC determinism in tests).
    /// Defaults to 0.25.
    void set_gc_wasted_fraction(double fraction) noexcept { gc_wasted_fraction_ = fraction; }

    /// The clause arena (introspection for tests and benchmarks).
    [[nodiscard]] const ClauseAllocator& clause_arena() const noexcept { return ca_; }

  private:
    using CRef = ClauseRef;
    static constexpr CRef cref_undef = clause_ref_undef;

    /// True for a reason or conflict that names a binary problem clause.
    [[nodiscard]] static bool is_binary(CRef r) noexcept
    {
        return r != cref_undef && (r & binary_watch) != 0;
    }
    /// The other, false literal of a binary reason.
    [[nodiscard]] static Lit binary_other(CRef r) noexcept
    {
        Lit l{};
        l.x = static_cast<std::int32_t>(r & ~binary_watch);
        return l;
    }

    struct VarOrderHeap
    {
        std::vector<Var> heap;
        std::vector<int> indices;  // position in heap, -1 if absent
        const std::vector<double>* activity{nullptr};

        [[nodiscard]] bool less(Var a, Var b) const
        {
            return (*activity)[static_cast<std::size_t>(a)] > (*activity)[static_cast<std::size_t>(b)];
        }
        [[nodiscard]] bool empty() const noexcept { return heap.empty(); }
        [[nodiscard]] bool contains(Var v) const { return indices[static_cast<std::size_t>(v)] >= 0; }
        void grow(Var v);
        void insert(Var v);
        void percolate_up(int i);
        void percolate_down(int i);
        Var remove_max();
        void update(Var v);
    };

    // clause management
    /// Stores a simplified clause of two or more literals and watches it.
    void store_clause(std::span<const Lit> lits);
    void attach_clause(CRef cr);
    void remove_clause(CRef cr);
    void reduce_db();
    void maybe_garbage_collect();

    // assignment / propagation
    [[nodiscard]] LBool value(Lit l) const
    {
        const auto a = assigns_[static_cast<std::size_t>(l.var())];
        if (a == LBool::undef)
        {
            return LBool::undef;
        }
        return (a == LBool::true_) != l.sign() ? LBool::true_ : LBool::false_;
    }
    [[nodiscard]] LBool value(Var v) const { return assigns_[static_cast<std::size_t>(v)]; }
    void unchecked_enqueue(Lit l, CRef from);
    CRef propagate();
    void cancel_until(int level);
    [[nodiscard]] int decision_level() const noexcept { return static_cast<int>(trail_lim_.size()); }

    // conflict analysis
    void analyze(CRef conflict, std::vector<Lit>& out_learnt, int& out_btlevel, std::uint32_t& out_lbd);
    [[nodiscard]] bool lit_redundant(Lit l, std::uint32_t abstract_levels);
    void analyze_final(Lit failed_assumption);

    // branching
    Lit pick_branch_lit();
    void var_bump_activity(Var v);
    void var_decay_activity() noexcept { var_inc_ /= var_decay_; }
    void cla_bump_activity(ClauseView c);
    void cla_decay_activity() noexcept { cla_inc_ /= cla_decay_; }

    // search
    Result search(std::int64_t conflicts_allowed);
    [[nodiscard]] static std::int64_t luby(std::int64_t i);
    [[nodiscard]] bool budget_exhausted() const;

    // data
    ClauseAllocator ca_;
    std::vector<CRef> problem_clauses_;
    std::vector<CRef> learnts_;
    std::size_t num_problem_clauses_{0};

    WatchPool watches_;  // indexed by literal code
    Lit binary_conflict_[2]{};  // (blocker, false literal) of a binary conflict
    std::vector<LBool> assigns_;
    std::vector<LBool> model_;
    std::vector<bool> polarity_;  // saved phases (true = last assigned false)
    std::vector<double> activity_;
    std::vector<CRef> reason_;
    std::vector<int> level_;
    std::vector<Lit> trail_;
    std::vector<int> trail_lim_;
    std::size_t qhead_{0};

    VarOrderHeap order_heap_;
    std::vector<Lit> assumptions_;
    std::vector<Lit> conflict_core_;  // failed assumptions of the last UNSAT solve

    // root-formula bookkeeping for proof certification: units produced by
    // add_clause simplification and clauses that simplified to empty are not
    // stored in the arena, so they are recorded here to keep root_clauses()
    // a faithful (consequence-preserving) snapshot of the input formula
    std::vector<Lit> root_units_;
    std::vector<std::vector<Lit>> root_conflict_clauses_;

    MemoryProofTracer* proof_{nullptr};

    std::vector<Lit> add_tmp_;  // add_clause()'s simplified clause

    // temporaries for analyze()
    std::vector<std::uint8_t> seen_;
    std::vector<Lit> analyze_toclear_;
    std::vector<Lit> analyze_stack_;

    bool ok_{true};
    double var_inc_{1.0};
    double var_decay_{0.95};
    double cla_inc_{1.0};
    double cla_decay_{0.999};
    double gc_wasted_fraction_{0.25};
    SolveLimits limits_{};  ///< limits of the running solve() call
    mutable std::int64_t time_check_countdown_{0};
    std::uint64_t conflicts_at_solve_start_{0};
    double max_learnts_{0.0};

    SolverStats stats_{};
};

}  // namespace bestagon::sat
