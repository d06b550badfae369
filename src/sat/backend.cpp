#include "sat/backend.hpp"

#include "sat/ipasir_backend.hpp"
#include "sat/proof.hpp"
#include "sat/solver.hpp"

#include <algorithm>
#include <cstdlib>
#include <string_view>

namespace bestagon::sat
{

// ---------------------------------------------------------------------------
// PreprocessingBackend
// ---------------------------------------------------------------------------

PreprocessingBackend::PreprocessingBackend(PreprocessorOptions options, InnerFactory inner_factory)
    : options_{options}, factory_{std::move(inner_factory)}
{
}

Var PreprocessingBackend::new_var()
{
    // new variables occur in no clause yet, so the preprocessed instance
    // stays equisatisfiable — the inner solver is widened lazily instead of
    // scheduling a rebuild
    return num_vars_++;
}

bool PreprocessingBackend::add_clause(std::vector<Lit> lits)
{
    const bool empty = lits.empty();
    if (empty)
    {
        formula_unsat_ = true;
        dirty_ = true;
    }
    else if (inner_ != nullptr && !dirty_)
    {
        // monotone-growth fast path: stream the clause into the live inner
        // solver. Sound unless it touches an eliminated variable — model
        // reconstruction only rewrites eliminated variables, so the
        // reconstructed model satisfies a streamed clause iff the inner
        // model does, and the traced proof stays checkable because root
        // clauses only strengthen unit propagation for later lemmas.
        const bool touches_eliminated =
            prep_ != nullptr && std::any_of(lits.begin(), lits.end(),
                                            [this](Lit l) { return prep_->eliminated(l.var()); });
        if (touches_eliminated)
        {
            dirty_ = true;
        }
        else
        {
            while (inner_->num_vars() < num_vars_)
            {
                inner_->new_var();
            }
            inner_->add_clause(lits);
        }
    }
    else
    {
        dirty_ = true;
    }
    original_clauses_.push_back(std::move(lits));
    return !empty;
}

void PreprocessingBackend::freeze(Var v)
{
    user_frozen_.push_back(v);
    if (inner_ != nullptr && prep_ != nullptr && prep_->eliminated(v))
    {
        dirty_ = true;  // the variable must come back for its value to matter
    }
}

void PreprocessingBackend::set_proof_tracer(ProofTracer* tracer)
{
    // the preprocessor's derivations are emitted while preprocessing runs;
    // attaching a tracer afterwards requires a fresh run so the proof is
    // complete from its first step
    if (tracer != nullptr && tracer != proof_ && inner_ != nullptr)
    {
        dirty_ = true;
    }
    proof_ = tracer;
    if (inner_ != nullptr)
    {
        inner_->set_proof_tracer(tracer);
    }
}

bool PreprocessingBackend::supports_proof_tracing() const
{
    if (inner_ != nullptr)
    {
        return inner_->supports_proof_tracing();
    }
    // the default inner backend is the in-tree solver, which traces
    return !factory_;
}

void PreprocessingBackend::rebuild(const std::vector<Lit>& assumptions, const core::Deadline& deadline)
{
    ++rebuilds_;
    prep_ = std::make_unique<Preprocessor>(options_);
    prep_->set_num_vars(num_vars_);
    prep_->set_proof_tracer(proof_);
    prep_->testkit_suppress_proof_steps(drop_prep_proof_);
    for (const auto v : user_frozen_)
    {
        prep_->freeze(v);
    }
    for (const auto a : assumptions)
    {
        prep_->freeze(a.var());
    }
    for (const auto& c : original_clauses_)
    {
        if (!prep_->add_clause(c))
        {
            formula_unsat_ = true;
        }
    }
    if (original_clauses_.size() >= options_.backend_min_clauses)
    {
        prep_->preprocess(stop_token_, deadline);
    }
    prep_stats_ = prep_->stats();

    inner_ = factory_ ? factory_() : std::make_unique<Solver>();
    while (inner_->num_vars() < num_vars_)
    {
        inner_->new_var();
    }
    inner_->set_proof_tracer(proof_);
    if (!prep_->contradiction())
    {
        for (auto& c : prep_->clauses())
        {
            inner_->add_clause(std::move(c));
        }
    }
    dirty_ = false;
}

Result PreprocessingBackend::solve(const std::vector<Lit>& assumptions)
{
    const auto start = core::now_ms();
    // the preprocessor and the inner solve share one budget: compose the
    // relative time budget into a deadline for preprocessing, then hand the
    // remaining milliseconds to the inner backend
    const auto effective_deadline =
        time_budget_ms_ >= 0 ? core::Deadline::sooner(deadline_, core::Deadline::in_ms(time_budget_ms_))
                             : deadline_;

    bool need_rebuild = dirty_ || inner_ == nullptr;
    if (!need_rebuild && prep_ != nullptr)
    {
        need_rebuild = std::any_of(assumptions.begin(), assumptions.end(),
                                   [this](Lit a) { return prep_->eliminated(a.var()); });
    }
    if (need_rebuild)
    {
        rebuild(assumptions, effective_deadline);
    }
    if (formula_unsat_ || prep_->contradiction())
    {
        return Result::unsatisfiable;  // final_conflict() is the empty core
    }

    // assumptions may reference variables created after the last rebuild
    while (inner_->num_vars() < num_vars_)
    {
        inner_->new_var();
    }

    inner_->set_conflict_budget(conflict_budget_);
    inner_->set_stop_token(stop_token_);
    inner_->set_deadline(deadline_);
    inner_->set_time_check_stride(time_check_stride_);
    if (time_budget_ms_ >= 0)
    {
        const auto elapsed = core::now_ms() - start;  // preprocessing time counts
        inner_->set_time_budget_ms(std::max<std::int64_t>(0, time_budget_ms_ - elapsed));
    }
    else
    {
        inner_->set_time_budget_ms(-1);
    }

    const auto result = inner_->solve(assumptions);
    if (result == Result::satisfiable)
    {
        model_.resize(static_cast<std::size_t>(num_vars_));
        for (Var v = 0; v < num_vars_; ++v)
        {
            model_[static_cast<std::size_t>(v)] = lbool_from(inner_->model_value(v));
        }
        if (!skip_reconstruction_)
        {
            prep_->extend_model(model_);
        }
    }
    return result;
}

bool PreprocessingBackend::model_value(Var v) const
{
    return model_[static_cast<std::size_t>(v)] == LBool::true_;
}

const std::vector<Lit>& PreprocessingBackend::final_conflict() const
{
    if (formula_unsat_ || (prep_ != nullptr && prep_->contradiction()) || inner_ == nullptr)
    {
        return empty_core_;
    }
    return inner_->final_conflict();
}

std::vector<std::vector<Lit>> PreprocessingBackend::root_clauses() const
{
    // the certification target is the formula as the caller stated it; the
    // preprocessor's transformations are part of the traced proof instead
    return original_clauses_;
}

const SolverStats& PreprocessingBackend::stats() const
{
    return inner_ != nullptr ? inner_->stats() : no_stats_;
}

// ---------------------------------------------------------------------------
// backend selection
// ---------------------------------------------------------------------------

BackendSelection backend_selection_from_env(BackendSelection fallback)
{
    // read once at backend selection, before any solver thread exists; nothing
    // in the process calls setenv
    // NOLINTNEXTLINE(concurrency-mt-unsafe)
    const char* env = std::getenv("BESTAGON_SAT_BACKEND");
    if (env == nullptr)
    {
        return fallback;
    }
    const std::string_view value{env};
    if (value == "internal")
    {
        fallback.kind = BackendKind::internal;
    }
    else if (value == "preprocess")
    {
        fallback.kind = BackendKind::internal_preprocessed;
    }
    else if (value.starts_with("ipasir:"))
    {
        fallback.kind = BackendKind::ipasir;
        fallback.ipasir_library = std::string{value.substr(7)};
    }
    return fallback;
}

std::unique_ptr<SatBackend> make_sat_backend(const BackendSelection& selection, BackendKind default_kind)
{
    BackendSelection resolved = selection;
    if (resolved.kind == BackendKind::automatic)
    {
        resolved.kind = default_kind;
        resolved = backend_selection_from_env(resolved);
    }
    switch (resolved.kind)
    {
        case BackendKind::internal_preprocessed:
        {
            return std::make_unique<PreprocessingBackend>(resolved.preprocess);
        }
        case BackendKind::ipasir:
        {
            return std::make_unique<IpasirBackend>(resolved.ipasir_library);
        }
        case BackendKind::automatic:
        case BackendKind::internal:
        default:
        {
            return std::make_unique<Solver>();
        }
    }
}

}  // namespace bestagon::sat
