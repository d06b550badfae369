#include "sat/solver.hpp"

#include "sat/proof.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <numeric>

namespace bestagon::sat
{

namespace
{

/// Budget checks (≈ decisions) between two reads of the deadline's clock.
constexpr std::int64_t time_check_stride = 256;

/// Sorts \p lits and, in place, drops duplicate literals and those
/// \p value_of calls false. Returns the length of what is left, or -1 when
/// a literal is true or the clause is a tautology.
template <class ValueOf>
std::ptrdiff_t simplify_clause(std::span<Lit> lits, const ValueOf& value_of)
{
    std::sort(lits.begin(), lits.end());
    std::size_t kept = 0;
    Lit prev = lit_undef;
    for (std::size_t i = 0; i < lits.size(); ++i)
    {
        const Lit l = lits[i];
        if (value_of(l) == LBool::true_ || l == ~prev)
        {
            return -1;
        }
        if (value_of(l) != LBool::false_ && l != prev)
        {
            lits[kept++] = l;  // kept <= i: only read slots are overwritten
            prev = l;
        }
    }
    return static_cast<std::ptrdiff_t>(kept);
}

}  // namespace

// ---------------------------------------------------------------------------
// clause buffer
// ---------------------------------------------------------------------------

void ClauseBuffer::add_clause(std::span<const Lit> lits)
{
    assert(std::all_of(lits.begin(), lits.end(),
                       [this](Lit l) { return l.var() >= 0 && l.var() < num_vars_; }));
    const auto begin = lits_.size();
    lits_.insert(lits_.end(), lits.begin(), lits.end());
    const auto size =
        simplify_clause(std::span<Lit>{lits_}.subspan(begin), [](Lit) { return LBool::undef; });
    if (size < 0)
    {
        lits_.resize(begin);  // a tautology
        return;
    }
    lits_.resize(begin + static_cast<std::size_t>(size));
    ends_.push_back(static_cast<std::uint32_t>(lits_.size()));
}

// ---------------------------------------------------------------------------
// variable order heap
// ---------------------------------------------------------------------------

void Solver::VarOrderHeap::grow(Var v)
{
    while (static_cast<std::size_t>(v) >= indices.size())
    {
        indices.push_back(-1);
    }
}

void Solver::VarOrderHeap::percolate_up(int i)
{
    const Var x = heap[static_cast<std::size_t>(i)];
    int p = (i - 1) / 2;
    while (i != 0 && less(x, heap[static_cast<std::size_t>(p)]))
    {
        heap[static_cast<std::size_t>(i)] = heap[static_cast<std::size_t>(p)];
        indices[static_cast<std::size_t>(heap[static_cast<std::size_t>(i)])] = i;
        i = p;
        p = (p - 1) / 2;
    }
    heap[static_cast<std::size_t>(i)] = x;
    indices[static_cast<std::size_t>(x)] = i;
}

void Solver::VarOrderHeap::percolate_down(int i)
{
    const Var x = heap[static_cast<std::size_t>(i)];
    const int n = static_cast<int>(heap.size());
    while (2 * i + 1 < n)
    {
        int child = 2 * i + 1;
        if (child + 1 < n && less(heap[static_cast<std::size_t>(child + 1)], heap[static_cast<std::size_t>(child)]))
        {
            ++child;
        }
        if (!less(heap[static_cast<std::size_t>(child)], x))
        {
            break;
        }
        heap[static_cast<std::size_t>(i)] = heap[static_cast<std::size_t>(child)];
        indices[static_cast<std::size_t>(heap[static_cast<std::size_t>(i)])] = i;
        i = child;
    }
    heap[static_cast<std::size_t>(i)] = x;
    indices[static_cast<std::size_t>(x)] = i;
}

void Solver::VarOrderHeap::insert(Var v)
{
    grow(v);
    if (contains(v))
    {
        return;
    }
    indices[static_cast<std::size_t>(v)] = static_cast<int>(heap.size());
    heap.push_back(v);
    percolate_up(static_cast<int>(heap.size()) - 1);
}

Var Solver::VarOrderHeap::remove_max()
{
    const Var x = heap.front();
    heap.front() = heap.back();
    indices[static_cast<std::size_t>(heap.front())] = 0;
    indices[static_cast<std::size_t>(x)] = -1;
    heap.pop_back();
    if (heap.size() > 1)
    {
        percolate_down(0);
    }
    return x;
}

void Solver::VarOrderHeap::update(Var v)
{
    if (contains(v))
    {
        percolate_up(indices[static_cast<std::size_t>(v)]);
    }
}

// ---------------------------------------------------------------------------
// solver
// ---------------------------------------------------------------------------

Solver::Solver()
{
    order_heap_.activity = &activity_;
}

bool Solver::load(const ClauseBuffer& formula)
{
    assert(num_vars() == 0 && num_problem_clauses_ == 0 && ok_);
    const auto vars = static_cast<std::size_t>(formula.num_vars());
    const auto clauses = formula.num_clauses();

    // the variables, as new_var() leaves them; with equal activities the
    // order heap is the variables in creation order
    assigns_.assign(vars, LBool::undef);
    polarity_.assign(vars, true);
    activity_.assign(vars, 0.0);
    reason_.assign(vars, cref_undef);
    level_.assign(vars, 0);
    seen_.assign(vars, 0);
    trail_.reserve(vars);
    order_heap_.heap.resize(vars);
    std::iota(order_heap_.heap.begin(), order_heap_.heap.end(), Var{0});
    order_heap_.indices.resize(vars);
    std::iota(order_heap_.indices.begin(), order_heap_.indices.end(), 0);

    // one counting sweep: watchers per literal, arena words and clauses,
    // units; exact unless a unit comes before the last clause (its
    // propagation can shorten later clauses; the solver then grows as usual)
    std::size_t arena_words = 0;
    std::size_t arena_clauses = 0;
    std::size_t units = 0;
    {
        std::vector<std::uint32_t> watchers(2 * vars, 0);
        for (std::size_t i = 0; i < clauses; ++i)
        {
            const auto c = formula.clause(i);
            if (c.size() < 2)
            {
                units += c.size();  // 1 for a unit, 0 for the empty clause
                continue;
            }
            ++watchers[static_cast<std::size_t>((~c[0]).x)];
            ++watchers[static_cast<std::size_t>((~c[1]).x)];
            if (c.size() > 2)
            {
                arena_words += detail::clause_header_words + c.size();
                ++arena_clauses;
            }
        }
        watches_.reserve(watchers);
    }  // the counts are freed before the arena is reserved
    root_units_.reserve(units);
    ca_.reserve_words(arena_words);
    problem_clauses_.reserve(arena_clauses);

    // the clauses, in order: already simplified up to the first unit or
    // empty clause, through add_clause() from there on
    std::size_t i = 0;
    for (; i < clauses && formula.clause(i).size() >= 2; ++i)
    {
        store_clause(formula.clause(i));
    }
    for (; i < clauses; ++i)
    {
        add_clause(formula.clause(i));
    }
    return ok_;
}

Var Solver::new_var()
{
    const Var v = static_cast<Var>(assigns_.size());
    assigns_.push_back(LBool::undef);
    polarity_.push_back(true);
    activity_.push_back(0.0);
    reason_.push_back(cref_undef);
    level_.push_back(0);
    seen_.push_back(0);
    watches_.add_lists(2 * static_cast<std::size_t>(v) + 2);
    order_heap_.insert(v);
    return v;
}

void Solver::attach_clause(CRef cr)
{
    const auto c = ca_.view(cr);
    assert(c.size() >= 2);
    watches_.push(static_cast<std::size_t>((~c.lit(0)).x), {cr, c.lit(1)});
    watches_.push(static_cast<std::size_t>((~c.lit(1)).x), {cr, c.lit(0)});
}

void Solver::remove_clause(CRef cr)
{
    if (proof_ != nullptr)
    {
        proof_->delete_clause(ca_.view(cr).lits());
    }
    ca_.free_clause(cr);  // watches are cleaned lazily during propagation
    ++stats_.deleted_clauses;
}

bool Solver::add_clause(std::span<const Lit> lits)
{
    if (!ok_)
    {
        return false;
    }
    assert(decision_level() == 0);
    assert(std::all_of(lits.begin(), lits.end(),
                       [this](Lit l) { return l.var() >= 0 && l.var() < num_vars(); }));

    // simplify: sort, deduplicate, drop false literals, detect tautology
    add_tmp_.assign(lits.begin(), lits.end());
    const auto size = simplify_clause(add_tmp_, [this](Lit l) { return value(l); });
    if (size < 0)
    {
        return true;  // satisfied or tautological
    }
    if (size == 0)
    {
        // record the (sorted, untouched) clause without its duplicates, as
        // a ClauseBuffer holds it: it is not stored anywhere else, yet the
        // formula snapshot needs it to remain unsatisfiable (all its
        // literals are falsified by root-level propagation)
        add_tmp_.erase(std::unique(add_tmp_.begin(), add_tmp_.end()), add_tmp_.end());
        root_conflict_clauses_.push_back(add_tmp_);
        ok_ = false;
        return false;
    }
    const Lit first = add_tmp_[0];
    if (size == 1)
    {
        root_units_.push_back(first);
        unchecked_enqueue(first, cref_undef);
        ok_ = (propagate() == cref_undef);
        return ok_;
    }

    store_clause(std::span<const Lit>{add_tmp_.data(), static_cast<std::size_t>(size)});
    return true;
}

void Solver::store_clause(std::span<const Lit> lits)
{
    assert(lits.size() >= 2);
    ++num_problem_clauses_;
    if (lits.size() == 2)
    {
        watches_.push(static_cast<std::size_t>((~lits[0]).x), {binary_watch, lits[1]});
        watches_.push(static_cast<std::size_t>((~lits[1]).x), {binary_watch, lits[0]});
        return;
    }
    const auto cr = ca_.alloc(lits, false);
    problem_clauses_.push_back(cr);
    attach_clause(cr);
}

void Solver::unchecked_enqueue(Lit l, CRef from)
{
    assert(value(l) == LBool::undef);
    assigns_[static_cast<std::size_t>(l.var())] = lbool_from(!l.sign());
    reason_[static_cast<std::size_t>(l.var())] = from;
    level_[static_cast<std::size_t>(l.var())] = decision_level();
    trail_.push_back(l);
}

Solver::CRef Solver::propagate()
{
    CRef conflict = cref_undef;
    while (qhead_ < trail_.size())
    {
        const Lit p = trail_[qhead_++];
        ++stats_.propagations;
        const auto list = static_cast<std::size_t>(p.x);
        const Lit false_lit = ~p;
        // re-fetched after every push: a push may move any list
        Watcher* ws = watches_.list(list);

        std::size_t i = 0;
        std::size_t j = 0;
        const std::size_t n = watches_.size(list);
        while (i < n)
        {
            const Watcher w = ws[i];
            // fast path: blocker already true
            if (value(w.blocker) == LBool::true_)
            {
                ws[j++] = ws[i++];
                continue;
            }
            if (w.cref == binary_watch)
            {
                // the blocker is the clause's other literal: unit or conflicting
                ws[j++] = ws[i++];
                if (value(w.blocker) == LBool::false_)
                {
                    binary_conflict_[0] = w.blocker;
                    binary_conflict_[1] = false_lit;
                    conflict = binary_watch;
                    qhead_ = trail_.size();
                    while (i < n)
                    {
                        ws[j++] = ws[i++];
                    }
                }
                else
                {
                    unchecked_enqueue(w.blocker, binary_watch | static_cast<CRef>(false_lit.x));
                }
                continue;
            }
            auto c = ca_.view(w.cref);
            if (c.deleted())
            {
                ++i;  // drop watcher of a deleted clause
                continue;
            }
            // make sure the false literal is lit(1)
            if (c.lit(0) == false_lit)
            {
                c.swap_lits(0, 1);
            }
            assert(c.lit(1) == false_lit);

            const Lit first = c.lit(0);
            if (value(first) == LBool::true_)
            {
                ws[j++] = {w.cref, first};
                ++i;
                continue;
            }
            // look for a new watch
            bool found = false;
            const auto size = c.size();
            for (std::uint32_t k = 2; k < size; ++k)
            {
                if (value(c.lit(k)) != LBool::false_)
                {
                    c.swap_lits(1, k);
                    watches_.push(static_cast<std::size_t>((~c.lit(1)).x), {w.cref, first});
                    ws = watches_.list(list);
                    found = true;
                    break;
                }
            }
            if (found)
            {
                ++i;
                continue;
            }
            // clause is unit or conflicting
            ws[j++] = {w.cref, first};
            ++i;
            if (value(first) == LBool::false_)
            {
                conflict = w.cref;
                qhead_ = trail_.size();
                // copy remaining watchers
                while (i < n)
                {
                    ws[j++] = ws[i++];
                }
            }
            else
            {
                unchecked_enqueue(first, w.cref);
            }
        }
        watches_.truncate(list, static_cast<std::uint32_t>(j));
        if (conflict != cref_undef)
        {
            break;
        }
    }
    return conflict;
}

void Solver::cancel_until(int level)
{
    if (decision_level() <= level)
    {
        return;
    }
    const auto bound = static_cast<std::size_t>(trail_lim_[static_cast<std::size_t>(level)]);
    for (std::size_t c = trail_.size(); c > bound; --c)
    {
        const Lit l = trail_[c - 1];
        const Var v = l.var();
        assigns_[static_cast<std::size_t>(v)] = LBool::undef;
        polarity_[static_cast<std::size_t>(v)] = l.sign();
        if (!order_heap_.contains(v))
        {
            order_heap_.insert(v);
        }
    }
    trail_.resize(bound);
    trail_lim_.resize(static_cast<std::size_t>(level));
    qhead_ = trail_.size();
}

void Solver::var_bump_activity(Var v)
{
    auto& act = activity_[static_cast<std::size_t>(v)];
    act += var_inc_;
    if (act > 1e100)
    {
        for (auto& a : activity_)
        {
            a *= 1e-100;
        }
        var_inc_ *= 1e-100;
    }
    order_heap_.update(v);
}

void Solver::cla_bump_activity(ClauseView c)
{
    c.set_activity(c.activity() + static_cast<float>(cla_inc_));
    if (c.activity() > 1e20F)
    {
        for (const auto cr : learnts_)
        {
            auto lc = ca_.view(cr);
            lc.set_activity(lc.activity() * 1e-20F);
        }
        cla_inc_ *= 1e-20;
    }
}

void Solver::analyze(CRef conflict, std::vector<Lit>& out_learnt, int& out_btlevel, std::uint32_t& out_lbd)
{
    int path_count = 0;
    Lit p = lit_undef;
    out_learnt.clear();
    out_learnt.push_back(lit_undef);  // placeholder for the asserting literal
    std::size_t index = trail_.size();

    const auto visit = [&](Lit q) {
        const Var v = q.var();
        if (seen_[static_cast<std::size_t>(v)] == 0 && level_[static_cast<std::size_t>(v)] > 0)
        {
            var_bump_activity(v);
            seen_[static_cast<std::size_t>(v)] = 1;
            if (level_[static_cast<std::size_t>(v)] >= decision_level())
            {
                ++path_count;
            }
            else
            {
                out_learnt.push_back(q);
            }
        }
    };

    CRef cr = conflict;
    do
    {
        assert(cr != cref_undef);
        if (is_binary(cr))
        {
            // the conflict's two literals; a reason's other, false literal
            if (p == lit_undef)
            {
                visit(binary_conflict_[0]);
                visit(binary_conflict_[1]);
            }
            else
            {
                visit(binary_other(cr));
            }
        }
        else
        {
            const auto c = ca_.view(cr);
            if (c.learnt())
            {
                cla_bump_activity(ca_.view(cr));
            }
            const std::uint32_t start = (p == lit_undef) ? 0 : 1;
            const auto size = c.size();
            for (std::uint32_t k = start; k < size; ++k)
            {
                visit(c.lit(k));
            }
        }
        // select next literal to look at
        while (seen_[static_cast<std::size_t>(trail_[index - 1].var())] == 0)
        {
            --index;
        }
        --index;
        p = trail_[index];
        cr = reason_[static_cast<std::size_t>(p.var())];
        seen_[static_cast<std::size_t>(p.var())] = 0;
        --path_count;
    } while (path_count > 0);
    out_learnt[0] = ~p;

    // minimization
    analyze_toclear_.assign(out_learnt.begin(), out_learnt.end());
    std::uint32_t abstract_levels = 0;
    for (std::size_t k = 1; k < out_learnt.size(); ++k)
    {
        abstract_levels |= 1U << (static_cast<std::uint32_t>(level_[static_cast<std::size_t>(out_learnt[k].var())]) & 31U);
    }
    std::size_t keep = 1;
    for (std::size_t k = 1; k < out_learnt.size(); ++k)
    {
        const Lit q = out_learnt[k];
        if (reason_[static_cast<std::size_t>(q.var())] == cref_undef || !lit_redundant(q, abstract_levels))
        {
            out_learnt[keep++] = q;
        }
    }
    out_learnt.resize(keep);

    // find backtrack level
    if (out_learnt.size() == 1)
    {
        out_btlevel = 0;
    }
    else
    {
        std::size_t max_i = 1;
        for (std::size_t k = 2; k < out_learnt.size(); ++k)
        {
            if (level_[static_cast<std::size_t>(out_learnt[k].var())] >
                level_[static_cast<std::size_t>(out_learnt[max_i].var())])
            {
                max_i = k;
            }
        }
        std::swap(out_learnt[1], out_learnt[max_i]);
        out_btlevel = level_[static_cast<std::size_t>(out_learnt[1].var())];
    }

    // LBD = number of distinct decision levels
    std::vector<int> levels;
    levels.reserve(out_learnt.size());
    for (const auto l : out_learnt)
    {
        levels.push_back(level_[static_cast<std::size_t>(l.var())]);
    }
    std::sort(levels.begin(), levels.end());
    out_lbd = static_cast<std::uint32_t>(std::unique(levels.begin(), levels.end()) - levels.begin());

    for (const auto l : analyze_toclear_)
    {
        seen_[static_cast<std::size_t>(l.var())] = 0;
    }
}

bool Solver::lit_redundant(Lit l, std::uint32_t abstract_levels)
{
    analyze_stack_.clear();
    analyze_stack_.push_back(l);
    const std::size_t top = analyze_toclear_.size();
    // false: \p r is neither marked, at level 0 nor implied from marked levels
    const auto implied = [&](Lit r) {
        const Var v = r.var();
        if (seen_[static_cast<std::size_t>(v)] != 0 || level_[static_cast<std::size_t>(v)] == 0)
        {
            return true;
        }
        const bool level_ok =
            (abstract_levels & (1U << (static_cast<std::uint32_t>(level_[static_cast<std::size_t>(v)]) & 31U))) != 0;
        if (reason_[static_cast<std::size_t>(v)] != cref_undef && level_ok)
        {
            seen_[static_cast<std::size_t>(v)] = 1;
            analyze_stack_.push_back(r);
            analyze_toclear_.push_back(r);
            return true;
        }
        return false;
    };
    while (!analyze_stack_.empty())
    {
        const Lit q = analyze_stack_.back();
        analyze_stack_.pop_back();
        const CRef cr = reason_[static_cast<std::size_t>(q.var())];
        assert(cr != cref_undef);
        bool redundant = true;
        if (is_binary(cr))
        {
            redundant = implied(binary_other(cr));
        }
        else
        {
            const auto c = ca_.view(cr);
            const auto size = c.size();
            for (std::uint32_t k = 1; k < size && redundant; ++k)
            {
                redundant = implied(c.lit(k));
            }
        }
        if (!redundant)
        {
            // abort: literal not redundant; undo marks made here
            for (std::size_t j = analyze_toclear_.size(); j > top; --j)
            {
                seen_[static_cast<std::size_t>(analyze_toclear_[j - 1].var())] = 0;
            }
            analyze_toclear_.resize(top);
            return false;
        }
    }
    return true;
}

void Solver::analyze_final(Lit failed_assumption)
{
    conflict_core_.clear();
    conflict_core_.push_back(failed_assumption);
    if (decision_level() == 0)
    {
        return;  // ~failed_assumption is implied by the formula alone
    }

    std::vector<Var> to_clear;
    const Var pv = failed_assumption.var();
    seen_[static_cast<std::size_t>(pv)] = 1;
    to_clear.push_back(pv);

    const auto bound = static_cast<std::size_t>(trail_lim_[0]);
    for (std::size_t i = trail_.size(); i > bound; --i)
    {
        const Var v = trail_[i - 1].var();
        if (seen_[static_cast<std::size_t>(v)] == 0)
        {
            continue;
        }
        const CRef cr = reason_[static_cast<std::size_t>(v)];
        if (cr == cref_undef)
        {
            // a decision inside the assumption prefix is an assumption
            assert(level_[static_cast<std::size_t>(v)] > 0);
            conflict_core_.push_back(trail_[i - 1]);
        }
        else
        {
            const auto mark = [&](Lit q) {
                const Var x = q.var();
                if (seen_[static_cast<std::size_t>(x)] == 0 && level_[static_cast<std::size_t>(x)] > 0)
                {
                    seen_[static_cast<std::size_t>(x)] = 1;
                    to_clear.push_back(x);
                }
            };
            if (is_binary(cr))
            {
                mark(binary_other(cr));
            }
            else
            {
                const auto c = ca_.view(cr);
                const auto size = c.size();
                for (std::uint32_t k = 1; k < size; ++k)
                {
                    mark(c.lit(k));
                }
            }
        }
    }
    for (const auto v : to_clear)
    {
        seen_[static_cast<std::size_t>(v)] = 0;
    }
}

Lit Solver::pick_branch_lit()
{
    Var next = -1;
    while (next == -1 || value(next) != LBool::undef)
    {
        if (order_heap_.empty())
        {
            return lit_undef;
        }
        next = order_heap_.remove_max();
    }
    return Lit{next, polarity_[static_cast<std::size_t>(next)]};
}

void Solver::reduce_db()
{
    // LBD-aware reduction (Glucose-style): order candidates worst-first by
    // literal-block distance, breaking ties by activity, and delete the
    // worse half. Binary clauses, "glue" clauses (LBD <= 2) and locked
    // clauses (currently a propagation reason) are always kept.
    std::sort(learnts_.begin(), learnts_.end(), [this](CRef a, CRef b) {
        const auto va = ca_.view(a);
        const auto vb = ca_.view(b);
        if (va.lbd() != vb.lbd())
        {
            return va.lbd() > vb.lbd();
        }
        return va.activity() < vb.activity();
    });

    std::vector<CRef> kept;
    kept.reserve(learnts_.size());
    const std::size_t half = learnts_.size() / 2;
    for (std::size_t i = 0; i < learnts_.size(); ++i)
    {
        const CRef cr = learnts_[i];
        const auto c = ca_.view(cr);
        const bool locked = c.size() > 0 && value(c.lit(0)) == LBool::true_ &&
                            reason_[static_cast<std::size_t>(c.lit(0).var())] == cr;
        if (!locked && c.size() > 2 && c.lbd() > 2 && i < half)
        {
            remove_clause(cr);
        }
        else
        {
            kept.push_back(cr);
        }
    }
    learnts_ = std::move(kept);
    maybe_garbage_collect();
}

void Solver::maybe_garbage_collect()
{
    const auto wasted = ca_.wasted_words();
    if (wasted == 0)
    {
        return;
    }
    if (static_cast<double>(wasted) >= gc_wasted_fraction_ * static_cast<double>(ca_.size_words()))
    {
        garbage_collect();
    }
}

void Solver::garbage_collect()
{
    ClauseAllocator to;
    to.reserve_words(ca_.size_words() - ca_.wasted_words());

    // clause lists first: their order fixes the layout of the new arena
    const auto reloc_list = [this, &to](std::vector<CRef>& list) {
        std::size_t j = 0;
        for (const auto cr : list)
        {
            if (ca_.view(cr).deleted())
            {
                continue;
            }
            list[j++] = ca_.reloc(cr, to);
        }
        list.resize(j);
    };
    reloc_list(problem_clauses_);
    reloc_list(learnts_);

    // watcher lists: drop stale entries of deleted clauses, keep order
    for (std::size_t l = 0; l < watches_.num_lists(); ++l)
    {
        Watcher* ws = watches_.list(l);
        const std::uint32_t n = watches_.size(l);
        std::uint32_t j = 0;
        for (std::uint32_t i = 0; i < n; ++i)
        {
            auto w = ws[i];
            if (w.cref != binary_watch)
            {
                if (ca_.view(w.cref).deleted())
                {
                    continue;
                }
                w.cref = ca_.reloc(w.cref, to);
            }
            ws[j++] = w;
        }
        watches_.truncate(l, j);
    }

    // reasons: live reasons are locked (never deleted); stale slots of
    // unassigned variables are cleared instead of chased
    for (Var v = 0; v < num_vars(); ++v)
    {
        auto& r = reason_[static_cast<std::size_t>(v)];
        if (r == cref_undef)
        {
            continue;
        }
        if (value(v) != LBool::undef)
        {
            if (!is_binary(r))
            {
                r = ca_.reloc(r, to);
            }
        }
        else
        {
            r = cref_undef;
        }
    }

    ca_ = std::move(to);
}

std::int64_t Solver::luby(std::int64_t i)
{
    // Luby restart sequence: 1 1 2 1 1 2 4 1 1 2 1 1 2 4 8 ...
    ++i;  // 1-based position
    for (;;)
    {
        std::int64_t k = 1;
        while ((1LL << k) - 1 < i)
        {
            ++k;
        }
        if ((1LL << k) - 1 == i)
        {
            return 1LL << (k - 1);
        }
        i -= (1LL << (k - 1)) - 1;
    }
}

bool Solver::budget_exhausted() const
{
    if (limits_.run.token.stop_requested())
    {
        return true;
    }
    if (limits_.conflicts >= 0 &&
        static_cast<std::int64_t>(stats_.conflicts - conflicts_at_solve_start_) >= limits_.conflicts)
    {
        return true;
    }
    // Wall-clock checks are polled on a call-count stride rather than a
    // conflict-count one: this function runs roughly once per decision, so
    // propagation-heavy stretches with few conflicts still hit the clock.
    if (!limits_.run.deadline.unlimited())
    {
        if (--time_check_countdown_ <= 0)
        {
            if (limits_.run.deadline.expired())
            {
                // keep the countdown expired: the clock is monotone, so
                // every later call re-checks and confirms the exhaustion
                // (resetting the stride here would let the confirming call in
                // solve() skip the clock and resume the search)
                time_check_countdown_ = 0;
                return true;
            }
            time_check_countdown_ = time_check_stride;
        }
    }
    return false;
}

Result Solver::search(std::int64_t conflicts_allowed)
{
    std::int64_t conflicts_here = 0;
    std::vector<Lit> learnt;
    for (;;)
    {
        const CRef conflict = propagate();
        if (conflict != cref_undef)
        {
            ++stats_.conflicts;
            ++conflicts_here;
            if (decision_level() == 0)
            {
                if (proof_ != nullptr)
                {
                    proof_->add_derived_clause({});  // the refutation terminator
                }
                ok_ = false;
                return Result::unsatisfiable;
            }
            int bt_level = 0;
            std::uint32_t lbd = 0;
            analyze(conflict, learnt, bt_level, lbd);
            if (proof_ != nullptr)
            {
                proof_->add_derived_clause(learnt);
            }
            cancel_until(bt_level);
            if (learnt.size() == 1)
            {
                unchecked_enqueue(learnt[0], cref_undef);
            }
            else
            {
                const CRef cr = ca_.alloc(learnt, true);
                ca_.view(cr).set_lbd(lbd);
                learnts_.push_back(cr);
                attach_clause(cr);
                cla_bump_activity(ca_.view(cr));
                unchecked_enqueue(learnt[0], cr);
                ++stats_.learnt_clauses;
            }
            var_decay_activity();
            cla_decay_activity();
            continue;
        }

        if (conflicts_allowed >= 0 && conflicts_here >= conflicts_allowed)
        {
            cancel_until(0);
            return Result::unknown;  // restart
        }
        if (budget_exhausted())
        {
            cancel_until(0);
            return Result::unknown;
        }
        if (static_cast<double>(learnts_.size()) >= max_learnts_ + static_cast<double>(trail_.size()))
        {
            reduce_db();
        }

        // extend with assumptions first
        Lit next = lit_undef;
        while (static_cast<std::size_t>(decision_level()) < assumptions_.size())
        {
            const Lit a = assumptions_[static_cast<std::size_t>(decision_level())];
            if (value(a) == LBool::true_)
            {
                trail_lim_.push_back(static_cast<int>(trail_.size()));  // dummy level
            }
            else if (value(a) == LBool::false_)
            {
                analyze_final(a);  // conflicting assumption: extract the core
                return Result::unsatisfiable;
            }
            else
            {
                next = a;
                break;
            }
        }
        if (next == lit_undef)
        {
            next = pick_branch_lit();
            if (next == lit_undef)
            {
                return Result::satisfiable;  // all variables assigned
            }
            ++stats_.decisions;
        }
        trail_lim_.push_back(static_cast<int>(trail_.size()));
        unchecked_enqueue(next, cref_undef);
    }
}

std::vector<std::vector<Lit>> Solver::root_clauses() const
{
    std::vector<std::vector<Lit>> out;
    out.reserve(root_units_.size() + root_conflict_clauses_.size() + problem_clauses_.size());
    for (const auto l : root_units_)
    {
        out.push_back({l});
    }
    for (const auto& c : root_conflict_clauses_)
    {
        out.push_back(c);
    }
    for (const auto cr : problem_clauses_)
    {
        out.push_back(ca_.view(cr).lits());
    }
    // binary problem clauses, each once: from the list of its first literal's
    // negation, where the blocker is its second literal
    for (std::size_t l = 0; l < watches_.num_lists(); ++l)
    {
        Lit first{};
        first.x = static_cast<std::int32_t>(l ^ 1U);
        const Watcher* ws = watches_.list(l);
        for (std::uint32_t i = 0; i < watches_.size(l); ++i)
        {
            if (ws[i].cref == binary_watch && first < ws[i].blocker)
            {
                out.push_back({first, ws[i].blocker});
            }
        }
    }
    return out;
}

Result Solver::solve(const std::vector<Lit>& assumptions, const SolveLimits& limits)
{
    // copy before clearing the core: callers may pass final_conflict()
    // itself back in to re-solve under the extracted core
    assumptions_ = assumptions;
    conflict_core_.clear();
    if (!ok_)
    {
        assumptions_.clear();
        return Result::unsatisfiable;
    }
    limits_ = limits;
    time_check_countdown_ = 0;  // poll the clock on the first budget check
    conflicts_at_solve_start_ = stats_.conflicts;
    max_learnts_ = std::max(1000.0, static_cast<double>(num_problem_clauses_) * 0.4);

    Result result = Result::unknown;
    for (std::int64_t restarts = 0; result == Result::unknown; ++restarts)
    {
        const std::int64_t budget = luby(restarts) * 100;
        result = search(budget);
        if (result == Result::unknown)
        {
            ++stats_.restarts;
            max_learnts_ *= 1.02;
            if (budget_exhausted())
            {
                break;
            }
        }
    }

    if (result == Result::satisfiable)
    {
        model_.assign(assigns_.begin(), assigns_.end());
    }
    cancel_until(0);
    assumptions_.clear();
    return result;
}

}  // namespace bestagon::sat
