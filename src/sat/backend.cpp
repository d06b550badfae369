#include "sat/backend.hpp"

#include "sat/proof.hpp"
#include "sat/solver.hpp"

#include <algorithm>

namespace bestagon::sat
{

// ---------------------------------------------------------------------------
// PreprocessingBackend
// ---------------------------------------------------------------------------

PreprocessingBackend::PreprocessingBackend(PreprocessorOptions options) : options_{options} {}

PreprocessingBackend::~PreprocessingBackend() = default;

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

void PreprocessingBackend::rebuild(const std::vector<Lit>& assumptions, const core::RunBudget& run)
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
        prep_->preprocess(run.token, run.deadline);
    }
    prep_stats_ = prep_->stats();

    inner_ = std::make_unique<Solver>();
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

Result PreprocessingBackend::solve(const std::vector<Lit>& assumptions, const SolveLimits& limits)
{
    bool need_rebuild = dirty_ || inner_ == nullptr;
    if (!need_rebuild && prep_ != nullptr)
    {
        need_rebuild = std::any_of(assumptions.begin(), assumptions.end(),
                                   [this](Lit a) { return prep_->eliminated(a.var()); });
    }
    if (need_rebuild)
    {
        rebuild(assumptions, limits.run);
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

    const auto result = inner_->solve(assumptions, limits);
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

}  // namespace bestagon::sat
