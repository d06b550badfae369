#include "sat/clause_allocator.hpp"

#include <algorithm>
#include <cassert>

namespace bestagon::sat
{

ClauseRef ClauseAllocator::alloc(std::span<const Lit> lits, bool learnt)
{
    const auto needed = detail::clause_header_words + lits.size();
    assert(mem_.size() + needed < binary_watch);
    const auto r = static_cast<ClauseRef>(mem_.size());
    mem_.resize(mem_.size() + needed);

    auto* w = mem_.data() + r;
    w[0] = (static_cast<std::uint32_t>(lits.size()) << detail::clause_size_shift) |
           (learnt ? detail::clause_flag_learnt : 0U);
    w[1] = 0U;                                  // lbd
    w[2] = std::bit_cast<std::uint32_t>(0.0F);  // activity
    for (std::size_t i = 0; i < lits.size(); ++i)
    {
        w[detail::clause_header_words + i] = std::bit_cast<std::uint32_t>(lits[i].x);
    }
    ++num_clauses_;
    return r;
}

void ClauseAllocator::free_clause(ClauseRef r)
{
    const auto c = view(r);
    assert(!c.deleted() && !c.relocated());
    wasted_ += detail::clause_header_words + c.size();
    mem_[r] |= detail::clause_flag_deleted;
    --num_clauses_;
}

ClauseRef ClauseAllocator::reloc(ClauseRef r, ClauseAllocator& to)
{
    assert(&to != this);
    if (view(r).relocated())
    {
        return view(r).forward();
    }
    assert(!view(r).deleted());

    const auto needed = detail::clause_header_words + view(r).size();
    const auto nr = static_cast<ClauseRef>(to.mem_.size());
    to.mem_.resize(to.mem_.size() + needed);
    // fetch the source pointer after the destination resize: the arenas are
    // distinct objects, so this ordering only matters defensively
    const auto* src = mem_.data() + r;
    std::copy(src, src + needed, to.mem_.data() + nr);
    ++to.num_clauses_;

    mem_[r] |= detail::clause_flag_relocated;
    mem_[r + 1] = nr;  // forwarding reference
    return nr;
}

void WatchPool::reserve(std::span<const std::uint32_t> capacities)
{
    assert(lists_.empty() && end_ == 0);
    lists_.resize(capacities.size());
    order_.reserve(static_cast<std::size_t>(
        std::count_if(capacities.begin(), capacities.end(), [](std::uint32_t c) { return c > 0; })));
    std::uint32_t begin = 0;
    for (std::size_t l = 0; l < capacities.size(); ++l)
    {
        lists_[l] = {begin, 0, capacities[l]};
        if (capacities[l] > 0)
        {
            order_.push_back({static_cast<std::uint32_t>(l), begin});
        }
        begin += capacities[l];
    }
    end_ = begin;
    reserved_ = begin;
    reserved_by_count_ = true;
    mem_.resize(end_ + end_ / spare_divisor);
}

void WatchPool::add_lists(std::size_t count)
{
    if (lists_.size() < count)
    {
        lists_.resize(count);
    }
}

void WatchPool::squeeze(bool trim)
{
    // order_ is buffer order, so every list slides down over holes only;
    // an entry whose begin is stale belongs to a list that moved on
    std::uint32_t to = 0;
    std::size_t kept = 0;
    for (const auto [l, begin] : order_)
    {
        auto& s = lists_[l];
        if (s.begin != begin)
        {
            continue;
        }
        std::copy_n(mem_.data() + s.begin, s.size, mem_.data() + to);
        s.begin = to;
        if (trim)
        {
            s.cap = std::min(s.cap, s.size + s.size / 2);
        }
        if (s.cap > 0)
        {
            order_[kept++] = {l, to};
        }
        to += s.cap;
    }
    order_.resize(kept);
    end_ = to;
    reserved_ = to;
}

void WatchPool::drop_moved_from_order()
{
    std::size_t kept = 0;
    for (const auto placed : order_)
    {
        if (lists_[placed.list].begin == placed.begin)
        {
            order_[kept++] = placed;
        }
    }
    order_.resize(kept);
}

void WatchPool::grow(std::size_t l)
{
    const std::uint32_t cap = std::max<std::uint32_t>(4, lists_[l].size + lists_[l].size / 2);
    // squeeze out the holes the moves left, unless the pool is still being
    // filled (little is holes or unused room); a reserved pool, sized for
    // its formula, then also takes back the room beyond what a move would
    // give each list; double the buffer when what is free after that
    // would not last a while
    const std::size_t slack = mem_.size() / min_free_divisor;
    const auto short_of_room = [&] { return end_ + cap + slack > mem_.size(); };
    if (short_of_room() && live_ + cap + mem_.size() / worth_squeezing_divisor <= mem_.size())
    {
        squeeze(false);
        if (short_of_room() && reserved_by_count_)
        {
            squeeze(true);
        }
    }
    if (short_of_room())
    {
        const auto size = 2 * (reserved_ + cap);
        if (end_ > reserved_)
        {
            squeeze(false);  // the holes are not carried into the new buffer
        }
        mem_.reserve(size);  // exactly: resize() alone could round up
        mem_.resize(size);
    }
    auto& s = lists_[l];
    assert(end_ + cap <= mem_.size());
    std::copy_n(mem_.data() + s.begin, s.size, mem_.data() + end_);
    reserved_ += cap - s.cap;
    s.begin = static_cast<std::uint32_t>(end_);
    s.cap = cap;
    if (order_.size() == order_.capacity())
    {
        // rather than let the vector double: drop the entries of moved
        // lists, and grow by half when that frees less than a quarter
        drop_moved_from_order();
        if (order_.size() > order_.capacity() - order_.capacity() / 4)
        {
            order_.reserve(order_.capacity() + order_.capacity() / 2);
        }
    }
    order_.push_back({static_cast<std::uint32_t>(l), s.begin});
    end_ += cap;
    ++moves_;
}

}  // namespace bestagon::sat
