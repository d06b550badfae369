/// \file clause_allocator.hpp
/// \brief The solver's clause memory: a bump-pointer arena of clauses with
///        32-bit references, and one pool holding every watch list.
///
/// Clauses of three or more literals, and learnt binary clauses, live
/// contiguously in one growable std::vector<std::uint32_t>; a ClauseRef is
/// the word index of a clause header inside that arena. Compared to one heap
/// vector per clause this removes a pointer chase per clause access in
/// propagation/analysis, halves the reference width, and keeps clauses
/// allocated together in the order the solver learns them. Binary problem
/// clauses are not stored here at all: each is its two watchers in the
/// WatchPool, tagged with binary_watch (see Solver).
///
/// Per-clause layout (header_words = 3):
///
///   word 0   flags | size      bit 0 = learnt, bit 1 = deleted,
///                              bit 2 = relocated, bits 3.. = literal count
///   word 1   lbd / forward     literal-block distance; after relocation this
///                              word holds the forwarding ClauseRef instead
///   word 2   activity          float, bit-cast
///   word 3+  literals          Lit::x, bit-cast per literal
///
/// Deletion is a flag (plus wasted-space accounting) so that watcher lists
/// can be cleaned lazily; garbage_collect-style compaction copies live
/// clauses into a fresh arena via reloc(), which installs a forwarding
/// reference on first visit so every alias of a clause relocates to the same
/// new address. Compaction preserves clause contents, metadata and the order
/// of all clause lists, so solver behaviour is bit-identical with or without
/// a collection (see test_clause_allocator.cpp).
///
/// The WatchPool keeps the watch list of every literal as a span of one
/// contiguous Watcher buffer instead of one heap vector per literal. A list
/// that outgrows its span moves to the end of the buffer with half as much
/// room again. Once the end is reached, the lists slide down in place over
/// the holes the moves left (a pool laid out by reserve() also takes back
/// room its lists do not use), and when that frees too little the buffer
/// doubles. Every move copies a list in order, so the watchers of each
/// literal are visited in exactly the order a vector per literal would
/// give. Solver::load() lays the lists out from exact per-literal
/// counts, so loading a buffered formula moves nothing.

#pragma once

#include "sat/sat_types.hpp"

#include <bit>
#include <cassert>
#include <cstdint>
#include <memory>
#include <new>
#include <span>
#include <vector>

namespace bestagon::sat
{

/// Index of a clause header inside a ClauseAllocator arena.
using ClauseRef = std::uint32_t;

inline constexpr ClauseRef clause_ref_undef = 0xFFFF'FFFFU;

/// Tag bit of a reference that names a binary problem clause instead of an
/// arena clause; arena references stay below it. A watcher carries the bare
/// tag (its blocker is the clause's other literal); a reason carries the tag
/// with the code of the clause's other, false literal in the low bits.
inline constexpr ClauseRef binary_watch = 0x8000'0000U;

namespace detail
{
inline constexpr std::uint32_t clause_header_words = 3;
inline constexpr std::uint32_t clause_flag_learnt = 1U;
inline constexpr std::uint32_t clause_flag_deleted = 2U;
inline constexpr std::uint32_t clause_flag_relocated = 4U;
inline constexpr std::uint32_t clause_size_shift = 3U;
}  // namespace detail

/// Read-only handle to a clause inside an arena. Invalidated by any
/// allocation (the arena vector may grow) — re-fetch after alloc().
class ConstClauseView
{
  public:
    explicit ConstClauseView(const std::uint32_t* words) noexcept : w_{words} {}

    [[nodiscard]] std::uint32_t size() const noexcept { return w_[0] >> detail::clause_size_shift; }
    [[nodiscard]] bool learnt() const noexcept { return (w_[0] & detail::clause_flag_learnt) != 0; }
    [[nodiscard]] bool deleted() const noexcept { return (w_[0] & detail::clause_flag_deleted) != 0; }
    [[nodiscard]] bool relocated() const noexcept { return (w_[0] & detail::clause_flag_relocated) != 0; }
    [[nodiscard]] std::uint32_t lbd() const noexcept { return w_[1]; }
    [[nodiscard]] ClauseRef forward() const noexcept { return w_[1]; }
    [[nodiscard]] float activity() const noexcept { return std::bit_cast<float>(w_[2]); }
    [[nodiscard]] Lit lit(std::uint32_t i) const noexcept
    {
        Lit l{};
        l.x = std::bit_cast<std::int32_t>(w_[detail::clause_header_words + i]);
        return l;
    }
    /// Copies the literals out into a std::vector (proof emission, snapshots).
    [[nodiscard]] std::vector<Lit> lits() const
    {
        std::vector<Lit> out;
        out.reserve(size());
        for (std::uint32_t i = 0; i < size(); ++i)
        {
            out.push_back(lit(i));
        }
        return out;
    }

  protected:
    const std::uint32_t* w_;
};

/// Mutable handle to a clause inside an arena (same invalidation rule).
class ClauseView : public ConstClauseView
{
  public:
    explicit ClauseView(std::uint32_t* words) noexcept : ConstClauseView{words}, mw_{words} {}

    void set_lbd(std::uint32_t lbd) noexcept { mw_[1] = lbd; }
    void set_activity(float a) noexcept { mw_[2] = std::bit_cast<std::uint32_t>(a); }
    void set_lit(std::uint32_t i, Lit l) noexcept
    {
        mw_[detail::clause_header_words + i] = std::bit_cast<std::uint32_t>(l.x);
    }
    void swap_lits(std::uint32_t i, std::uint32_t j) noexcept
    {
        std::swap(mw_[detail::clause_header_words + i], mw_[detail::clause_header_words + j]);
    }

  private:
    std::uint32_t* mw_;
};

/// Bump-pointer arena owning every clause of one solver instance.
class ClauseAllocator
{
  public:
    /// Appends a clause; returns its reference. References of previously
    /// allocated clauses stay valid (the arena is index-, not
    /// pointer-addressed) even when the underlying vector reallocates.
    ClauseRef alloc(std::span<const Lit> lits, bool learnt);

    [[nodiscard]] ClauseView view(ClauseRef r) noexcept
    {
        assert(r < mem_.size());
        return ClauseView{mem_.data() + r};
    }
    [[nodiscard]] ConstClauseView view(ClauseRef r) const noexcept
    {
        assert(r < mem_.size());
        return ConstClauseView{mem_.data() + r};
    }

    /// Marks a clause deleted and accounts its words as wasted. Watcher
    /// entries pointing at it are dropped lazily by the owner.
    void free_clause(ClauseRef r);

    /// Copies the clause into \p to on first visit and installs a forwarding
    /// reference so later visits (other watcher lists, reason slots) resolve
    /// to the same new address. The clause must not be deleted.
    ClauseRef reloc(ClauseRef r, ClauseAllocator& to);

    /// Total words in use (including deleted clauses).
    [[nodiscard]] std::size_t size_words() const noexcept { return mem_.size(); }
    /// Words held by deleted clauses, reclaimable by compaction.
    [[nodiscard]] std::size_t wasted_words() const noexcept { return wasted_; }
    [[nodiscard]] std::size_t num_clauses() const noexcept { return num_clauses_; }

    void reserve_words(std::size_t words) { mem_.reserve(words); }

  private:
    std::vector<std::uint32_t> mem_;
    std::size_t wasted_{0};
    std::size_t num_clauses_{0};
};

/// One entry of a watch list: the watched clause and a literal of it whose
/// truth makes visiting the clause unnecessary.
struct Watcher
{
    ClauseRef cref;
    Lit blocker;
};

/// The watch lists of all literals, as spans of one Watcher buffer (see the
/// file comment). list() pointers are invalidated by push(), which may move
/// any list, and by add_lists(); re-fetch them after either call.
class WatchPool
{
  public:
    /// Lays out one list per entry of \p capacities, each with exactly that
    /// many slots, and keeps the usual spare room at the end for lists that
    /// outgrow their span. Requires an empty pool.
    void reserve(std::span<const std::uint32_t> capacities);

    /// Adds empty lists until there are \p count of them.
    void add_lists(std::size_t count);

    [[nodiscard]] std::size_t num_lists() const noexcept { return lists_.size(); }

    [[nodiscard]] Watcher* list(std::size_t l) noexcept
    {
        assert(l < lists_.size());
        return mem_.get() + lists_[l].begin;
    }
    [[nodiscard]] const Watcher* list(std::size_t l) const noexcept
    {
        assert(l < lists_.size());
        return mem_.get() + lists_[l].begin;
    }
    [[nodiscard]] std::uint32_t size(std::size_t l) const noexcept { return lists_[l].size; }

    /// Drops the watchers of list \p l from position \p size on.
    void truncate(std::size_t l, std::uint32_t size) noexcept
    {
        assert(size <= lists_[l].size);
        live_ -= lists_[l].size - size;
        lists_[l].size = size;
    }

    /// Appends \p w to list \p l; may move lists (see the class comment).
    void push(std::size_t l, Watcher w)
    {
        auto& s = lists_[l];
        if (s.size == s.cap)
        {
            grow(l);
        }
        mem_.get()[lists_[l].begin + lists_[l].size++] = w;
        ++live_;
    }

    /// Times a list outgrew its span and moved (introspection).
    [[nodiscard]] std::uint64_t moves() const noexcept { return moves_; }

  private:
    struct Span
    {
        std::uint32_t begin{0};
        std::uint32_t size{0};
        std::uint32_t cap{0};
    };

    /// Moves list \p l to the end of the buffer with half as much room
    /// again, squeezing first when the end is full and doubling the buffer
    /// when that is not enough.
    void grow(std::size_t l);
    /// Slides every list down over the holes, in buffer order; with \p trim
    /// each list keeps at most the room a move would give it.
    void squeeze(bool trim);
    /// Drops the order_ entries of lists that moved on since.
    void drop_moved_from_order();
    /// Replaces the buffer by one of \p size slots that starts with the
    /// first \p keep slots of the old one. The other slots are left
    /// unwritten: push() writes a slot before anything reads it.
    void allocate(std::size_t size, std::size_t keep);

    /// Spare room at the end after reserve(), as a fraction of the counted
    /// watchers.
    static constexpr std::size_t spare_divisor = 2;
    /// The buffer is squeezed, then doubled, when less than this fraction
    /// of it would be free after a move.
    static constexpr std::size_t min_free_divisor = 16;
    /// A squeeze runs only when at least this fraction of the buffer is
    /// holes or room the lists do not use.
    static constexpr std::size_t worth_squeezing_divisor = 4;

    struct Placed
    {
        std::uint32_t list;
        std::uint32_t begin;
    };

    struct FreeBuffer
    {
        void operator()(Watcher* buffer) const noexcept { ::operator delete(buffer); }
    };

    std::unique_ptr<Watcher, FreeBuffer> mem_;
    std::size_t mem_size_{0};   ///< slots in mem_
    std::vector<Span> lists_;
    /// Lists with room, in buffer order, each with the begin it had when
    /// placed; entries of lists that moved on are stale until squeeze().
    std::vector<Placed> order_;
    std::size_t end_{0};        ///< first slot past the last list
    std::size_t reserved_{0};   ///< sum of the lists' capacities
    std::size_t live_{0};       ///< sum of the lists' sizes
    /// Laid out by reserve(): trim the lists' room before growing, where an
    /// unreserved pool doubles as a vector per list would.
    bool reserved_by_count_{false};
    std::uint64_t moves_{0};
};

}  // namespace bestagon::sat
