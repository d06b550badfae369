#include "layout/exact_physical_design.hpp"

#include "layout/aspect_ratio_ladder.hpp"
#include "layout/defect_map.hpp"
#include "sat/dimacs.hpp"
#include "sat/encodings.hpp"
#include "sat/proof.hpp"
#include "sat/proof_check.hpp"
#include "sat/solver.hpp"
#include "core/thread_annotations.hpp"
#include "core/thread_pool.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cassert>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <initializer_list>
#include <limits>
#include <optional>
#include <span>
#include <stdexcept>
#include <system_error>
#include <thread>
#include <utility>
#include <vector>

namespace bestagon::layout
{

namespace
{

using logic::GateType;
using logic::LogicNetwork;
using sat::Lit;
using NodeId = LogicNetwork::NodeId;

struct Edge
{
    NodeId source;
    NodeId target;
};

/// Rows every layout must leave above and below each node (the lemma of
/// minimum_height): a node lies in rows [lo, h - 1 - tail] of any w x h
/// layout.
struct RowWindows
{
    std::vector<unsigned> lo;    ///< max(|PI(v)| - 1, max over fan-ins u of lo(u) + 1)
    std::vector<unsigned> tail;  ///< max(|PO(v)| - 1, max over fan-outs w of tail(w) + 1)
    unsigned min_height{1};      ///< max over v of lo(v) + tail(v) + 1
};

/// One topological pass each way; |PI(v)| and |PO(v)| are counted on a
/// bitset per node over the PIs of its fan-in cone and the POs of its
/// fan-out cone.
RowWindows row_windows(const LogicNetwork& network)
{
    const auto size = network.size();
    const auto order = network.topological_order();
    RowWindows windows{std::vector<unsigned>(size, 0), std::vector<unsigned>(size, 0)};

    const std::size_t pi_words = (network.num_pis() + 63) / 64;
    const std::size_t po_words = (network.num_pos() + 63) / 64;
    std::vector<std::uint64_t> pis_above(size * pi_words, 0);
    std::vector<std::uint64_t> pos_below(size * po_words, 0);
    for (std::size_t i = 0; i < network.pis().size(); ++i)
    {
        pis_above[network.pis()[i] * pi_words + i / 64] |= std::uint64_t{1} << (i % 64);
    }
    for (std::size_t i = 0; i < network.pos().size(); ++i)
    {
        pos_below[network.pos()[i] * po_words + i / 64] |= std::uint64_t{1} << (i % 64);
    }
    // cone span: terminals on distinct tiles of one row, less one
    const auto span = [](const std::uint64_t* bits, std::size_t words) {
        unsigned count = 0;
        for (std::size_t k = 0; k < words; ++k)
        {
            count += static_cast<unsigned>(std::popcount(bits[k]));
        }
        return count > 0 ? count - 1 : 0U;
    };

    for (const auto v : order)
    {
        const auto& n = network.node(v);
        for (unsigned i = 0; i < gate_arity(n.type); ++i)
        {
            const auto u = n.fanin[i];
            windows.lo[v] = std::max(windows.lo[v], windows.lo[u] + 1);
            for (std::size_t k = 0; k < pi_words; ++k)
            {
                pis_above[v * pi_words + k] |= pis_above[u * pi_words + k];
            }
        }
        windows.lo[v] = std::max(windows.lo[v], span(&pis_above[v * pi_words], pi_words));
    }
    for (auto it = order.rbegin(); it != order.rend(); ++it)
    {
        const auto v = *it;
        windows.tail[v] = std::max(windows.tail[v], span(&pos_below[v * po_words], po_words));
        windows.min_height = std::max(windows.min_height, windows.lo[v] + windows.tail[v] + 1);
        const auto& n = network.node(v);
        for (unsigned i = 0; i < gate_arity(n.type); ++i)
        {
            const auto u = n.fanin[i];
            windows.tail[u] = std::max(windows.tail[u], windows.tail[v] + 1);
            for (std::size_t k = 0; k < po_words; ++k)
            {
                pos_below[u * po_words + k] |= pos_below[v * po_words + k];
            }
        }
    }
    return windows;
}

/// What the encoder needs of the network, computed once per
/// exact_physical_design call and shared by every aspect ratio.
struct PnrNetwork
{
    explicit PnrNetwork(const LogicNetwork& n) : network{n}, windows{row_windows(n)}
    {
        for (const auto id : network.topological_order())
        {
            const auto type = network.type_of(id);
            if (type == GateType::const0 || type == GateType::const1)
            {
                throw std::invalid_argument{"exact_physical_design: constant nodes unsupported"};
            }
            nodes.push_back(id);
            const auto& node = network.node(id);
            for (unsigned i = 0; i < gate_arity(type); ++i)
            {
                edges.push_back(Edge{node.fanin[i], id});
            }
        }
    }

    const LogicNetwork& network;
    RowWindows windows;
    /// Topological order, which is ascending node id (LogicNetwork creates
    /// nodes in topological order).
    std::vector<NodeId> nodes;
    std::vector<Edge> edges;  ///< fanin edges, in node order
};

/// Names of the guard-selectable constraint groups, in guard order.
/// I/O pinning is part of "placement" (pinned rows restrict the placement
/// domain); "clocking" infeasibility is structural (empty row ranges) and is
/// detected without solving. "defects" holds the unit clauses forbidding
/// placements and wires on defect-blocked tiles.
constexpr std::array<const char*, 5> group_names{"placement", "exclusivity", "routing",
                                                 "capacity", "defects"};

// constraint-group indices into the guard array / group_names
constexpr std::size_t grp_placement = 0;
constexpr std::size_t grp_exclusivity = 1;
constexpr std::size_t grp_routing = 2;
constexpr std::size_t grp_capacity = 3;
constexpr std::size_t grp_defects = 4;

/// Marks an absent entry of the flat variable tables.
constexpr sat::Var absent = -1;

/// Arc directions out of a tile, in down_neighbors() order, with the port a
/// signal leaves its source through and the port it enters its target by.
constexpr std::array<Port, 2> arc_exit{Port::sw, Port::se};
constexpr std::array<Port, 2> arc_entry{Port::ne, Port::nw};

/// What a certified UNSAT verdict's proof check gave.
enum class ProofCheck : std::uint8_t
{
    none,
    valid,
    invalid
};

/// SAT verdict of one aspect ratio, with the decoded layout when
/// satisfiable, the work the solve spent and its proof check.
struct Outcome
{
    sat::Result result{sat::Result::unknown};
    std::optional<GateLevelLayout> layout{};
    std::uint64_t conflicts{0};
    std::uint64_t decisions{0};
    std::uint64_t propagations{0};
    ProofCheck proof{ProofCheck::none};
};

/// Encoder and decoder of one aspect ratio w x h on its own solver.
///
/// Variables live in flat tables indexed by (node, tile), (edge, tile) and
/// (edge, tile, sw|se), with `absent` for variables outside a domain. Tiles
/// are numbered column-major (x * h + y), so walking a table in index order
/// visits tiles by x, then y: the order of HexCoord's operator<=>. Every
/// clause family that is keyed by tile is emitted in that order, so the
/// clause sequence is fixed by the network and the size alone
/// (DESIGN.md §14).
///
/// In guarded mode every clause of constraint group g is weakened by the
/// group's guard literal, and refuting_groups() extracts which groups an
/// UNSAT verdict depends on. Without guards no extra variable or literal is
/// created.
class SizeEncoding
{
  public:
    SizeEncoding(const PnrNetwork& net, unsigned w, unsigned h,
                 const phys::DefectSurface& defects, bool guarded = false)
        : net_{net}, w_{w}, h_{h}, tiles_{static_cast<std::size_t>(w) * h}, guarded_{guarded}
    {
        blocked_.assign(tiles_, false);
        if (!defects.empty())
        {
            for (const auto t : blocked_tiles(w, h, defects))
            {
                blocked_[tile(t)] = true;
            }
        }
        // feasibility: below the structural bound some row window is empty
        if (h_ < net_.windows.min_height)
        {
            trivially_unsat_ = true;
            return;
        }
        // one pass into a buffer, one sized load; the buffer is freed
        // before the solve
        solver_.load(build());
    }

    /// Solves the size within \p limits. With \p certify, every UNSAT
    /// verdict is DRAT-certified by the independent checker.
    Outcome solve(const sat::SolveLimits& limits, bool certify)
    {
        Outcome out;
        if (trivially_unsat_)
        {
            out.result = sat::Result::unsatisfiable;
            return out;
        }
        sat::MemoryProofTracer tracer;
        if (certify)
        {
            solver_.set_proof_tracer(&tracer);
        }
        out.result = solver_.solve({}, limits);
        solver_.set_proof_tracer(nullptr);
        out.conflicts = solver_.stats().conflicts;
        out.decisions = solver_.stats().decisions;
        out.propagations = solver_.stats().propagations;
        if (certify && out.result == sat::Result::unsatisfiable)
        {
            const auto check =
                sat::check_drat_proof(sat::to_cnf(solver_.root_clauses()), tracer.proof());
            out.proof = check.valid ? ProofCheck::valid : ProofCheck::invalid;
        }
        if (out.result == sat::Result::satisfiable)
        {
            out.layout = decode_layout();
        }
        return out;
    }

    /// Solves under all group guards and, on UNSAT, shrinks the guard core
    /// by deletion (one re-solve on this solver per dropped group) and
    /// returns the refuting group names, sorted. Requires guarded mode.
    /// Returns std::nullopt when the verdict is not UNSAT (budget, or
    /// satisfiable).
    std::optional<std::vector<std::string>> refuting_groups(const sat::SolveLimits& limits)
    {
        assert(guarded_);
        if (trivially_unsat_)
        {
            return std::vector<std::string>{"clocking"};
        }
        const std::vector<Lit> all(guards_.begin(), guards_.end());
        if (solver_.solve(all, limits) != sat::Result::unsatisfiable)
        {
            return std::nullopt;
        }
        auto core = guards_in(solver_.final_conflict());

        // deletion-based minimization in a fixed drop order, so the reported
        // groups are deterministic and minimal rather than whatever the
        // solver's final conflict happened to contain
        constexpr std::array<std::size_t, 5> drop_order{grp_defects, grp_capacity, grp_routing,
                                                        grp_exclusivity, grp_placement};
        for (const auto g : drop_order)
        {
            if (limits.run.stopped() || !core[g])
            {
                continue;
            }
            std::vector<Lit> trial;
            for (std::size_t i = 0; i < guards_.size(); ++i)
            {
                if (core[i] && i != g)
                {
                    trial.push_back(guards_[i]);
                }
            }
            const auto r = solver_.solve(trial, limits);
            if (r == sat::Result::unsatisfiable)
            {
                core = guards_in(solver_.final_conflict());
            }
            else if (r == sat::Result::unknown)
            {
                break;  // keep the current (sound) core on a budget cut
            }
        }
        std::vector<std::string> names;
        for (std::size_t g = 0; g < guards_.size(); ++g)
        {
            if (core[g])
            {
                names.emplace_back(group_names[g]);
            }
        }
        std::sort(names.begin(), names.end());
        return names;
    }

  private:
    [[nodiscard]] std::size_t tile(HexCoord c) const
    {
        return static_cast<std::size_t>(c.x) * h_ + static_cast<std::size_t>(c.y);
    }

    [[nodiscard]] HexCoord coord(std::size_t t) const
    {
        return HexCoord{static_cast<std::int32_t>(t / h_), static_cast<std::int32_t>(t % h_)};
    }

    [[nodiscard]] bool in_bounds(HexCoord c) const
    {
        return c.x >= 0 && c.y >= 0 && c.x < static_cast<std::int32_t>(w_) &&
               c.y < static_cast<std::int32_t>(h_);
    }

    /// The rows \p v may take: its window, narrowed to row 0 for PIs and to
    /// the last row for POs. Non-empty once h_ >= min_height.
    [[nodiscard]] std::pair<unsigned, unsigned> row_range(NodeId v) const
    {
        const auto type = net_.network.type_of(v);
        if (type == GateType::pi)
        {
            return {0, 0};
        }
        if (type == GateType::po)
        {
            return {h_ - 1, h_ - 1};
        }
        return {net_.windows.lo[v], h_ - 1 - net_.windows.tail[v]};
    }

    /// The rows [first, second) edge \p e may run a wire through: strictly
    /// between its source's first row and its target's last.
    [[nodiscard]] std::pair<unsigned, unsigned> wire_rows(std::size_t e) const
    {
        return {row_range(net_.edges[e].source).first + 1, row_range(net_.edges[e].target).second};
    }

    /// Calls \p f with each tile of rows [lo, hi), in tile order.
    template <class F>
    void for_rows(unsigned lo, unsigned hi, const F& f) const
    {
        for (unsigned x = 0; x < w_; ++x)
        {
            for (unsigned y = lo; y < hi; ++y)
            {
                f(static_cast<std::size_t>(x) * h_ + y);
            }
        }
    }

    [[nodiscard]] sat::Var& place_var(NodeId v, std::size_t t)
    {
        return place_[static_cast<std::size_t>(v) * tiles_ + t];
    }
    [[nodiscard]] sat::Var& wire_var(std::size_t e, std::size_t t)
    {
        return wire_[e * tiles_ + t];
    }
    [[nodiscard]] sat::Var& arc_var(std::size_t e, std::size_t t, std::size_t d)
    {
        return arc_[(e * tiles_ + t) * 2 + d];
    }

    /// Appends the positive literal of \p v to \p lits unless it is absent.
    static void push_if(std::vector<Lit>& lits, sat::Var v)
    {
        if (v != absent)
        {
            lits.push_back(sat::pos(v));
        }
    }

    [[nodiscard]] std::optional<Lit> guard(std::size_t group) const
    {
        if (!guarded_)
        {
            return std::nullopt;
        }
        return guards_[group];
    }

    /// Adds \p clause to \p sink, weakened by the group's guard in guarded
    /// mode.
    void emit(sat::ClauseBuffer& sink, std::size_t group, std::span<const Lit> clause)
    {
        if (!guarded_)
        {
            sink.add_clause(clause);
            return;
        }
        guarded_clause_.assign(clause.begin(), clause.end());
        guarded_clause_.push_back(~guards_[group]);
        sink.add_clause(guarded_clause_);
    }
    void emit(sat::ClauseBuffer& sink, std::size_t group, std::initializer_list<Lit> clause)
    {
        emit(sink, group, std::span<const Lit>{clause.begin(), clause.size()});
    }

    /// trigger -> at least one of options (the AMO part is added separately).
    void require_one_of(sat::ClauseBuffer& sink, std::size_t group, sat::Var trigger,
                        const std::vector<Lit>& options)
    {
        one_of_.assign(1, ~sat::pos(trigger));
        one_of_.insert(one_of_.end(), options.begin(), options.end());
        emit(sink, group, one_of_);
    }

    /// Creates the variables, fills the tables and returns the clauses of
    /// the size, in their fixed order. The loops of an edge run over the
    /// rows [ulo, vhi] it can occupy, from its source's first row to its
    /// target's last: no clause of the edge lies outside them.
    sat::ClauseBuffer build()
    {
        const auto& nodes = net_.nodes;
        const auto& edges = net_.edges;
        sat::ClauseBuffer sink;

        if (guarded_)
        {
            for (auto& g : guards_)
            {
                g = sat::pos(sink.new_var());
            }
        }

        // placement variables; nodes_in_row[y] lists the nodes whose row
        // range contains y, in node order
        place_.assign(net_.network.size() * tiles_, absent);
        std::vector<std::vector<NodeId>> nodes_in_row(h_);
        std::vector<Lit> lits;
        for (const auto v : nodes)
        {
            const auto [lo, hi] = row_range(v);
            lits.clear();
            for (unsigned y = lo; y <= hi; ++y)
            {
                nodes_in_row[y].push_back(v);
                for (unsigned x = 0; x < w_; ++x)
                {
                    const auto var = sink.new_var();
                    place_var(v, x * h_ + y) = var;
                    lits.push_back(sat::pos(var));
                }
            }
            sat::add_exactly_one(sink, lits, guard(grp_placement));
        }

        // at most one node per tile
        for (unsigned y = 0; y < h_; ++y)
        {
            for (unsigned x = 0; x < w_; ++x)
            {
                lits.clear();
                for (const auto v : nodes_in_row[y])
                {
                    push_if(lits, place_var(v, x * h_ + y));
                }
                sat::add_at_most_one(sink, lits, guard(grp_exclusivity));
            }
        }

        // routing variables per edge: wire tiles strictly between the
        // endpoints' row ranges, arcs out of rows [ulo, vhi-1]
        wire_.assign(edges.size() * tiles_, absent);
        arc_.assign(edges.size() * tiles_ * 2, absent);
        for (std::size_t e = 0; e < edges.size(); ++e)
        {
            const unsigned ulo = row_range(edges[e].source).first;
            const unsigned vhi = row_range(edges[e].target).second;
            for (unsigned y = ulo + 1; y + 1 <= vhi; ++y)
            {
                for (unsigned x = 0; x < w_; ++x)
                {
                    wire_var(e, x * h_ + y) = sink.new_var();
                }
            }
            for (unsigned y = ulo; y + 1 <= vhi; ++y)
            {
                for (unsigned x = 0; x < w_; ++x)
                {
                    const HexCoord t{static_cast<std::int32_t>(x), static_cast<std::int32_t>(y)};
                    const auto down = down_neighbors(t);
                    for (std::size_t d = 0; d < down.size(); ++d)
                    {
                        if (in_bounds(down[d]))
                        {
                            arc_var(e, tile(t), d) = sink.new_var();
                        }
                    }
                }
            }
        }

        // edge structure clauses
        std::vector<Lit> outgoing;
        std::vector<Lit> incoming;
        std::vector<Lit> clause;
        for (std::size_t e = 0; e < edges.size(); ++e)
        {
            const auto u = edges[e].source;
            const auto v = edges[e].target;
            const unsigned ulo = row_range(u).first;
            const unsigned vhi = row_range(v).second;
            for (unsigned y = ulo; y <= vhi; ++y)
            {
                for (unsigned x = 0; x < w_; ++x)
                {
                    const HexCoord t{static_cast<std::int32_t>(x), static_cast<std::int32_t>(y)};
                    const auto ti = tile(t);
                    outgoing.clear();
                    push_if(outgoing, arc_var(e, ti, 0));
                    push_if(outgoing, arc_var(e, ti, 1));
                    // t is the SE target of its NW neighbor, the SW target
                    // of its NE neighbor
                    incoming.clear();
                    const auto up = up_neighbors(t);
                    for (std::size_t i = 0; i < up.size(); ++i)
                    {
                        if (in_bounds(up[i]))
                        {
                            push_if(incoming, arc_var(e, tile(up[i]), 1 - i));
                        }
                    }

                    // "e at t needing a successor" -> exactly one outgoing arc
                    if (const auto pu = place_var(u, ti); pu != absent)
                    {
                        require_one_of(sink, grp_routing, pu, outgoing);
                    }
                    if (const auto wt = wire_var(e, ti); wt != absent)
                    {
                        require_one_of(sink, grp_routing, wt, outgoing);
                        require_one_of(sink, grp_routing, wt, incoming);
                    }
                    if (const auto pv = place_var(v, ti); pv != absent)
                    {
                        require_one_of(sink, grp_routing, pv, incoming);
                    }
                    sat::add_at_most_one(sink, outgoing, guard(grp_routing));
                    sat::add_at_most_one(sink, incoming, guard(grp_routing));
                }
            }

            // arc endpoints must carry the edge
            for_rows(ulo, vhi, [&](std::size_t from) {
                const auto down = down_neighbors(coord(from));
                for (std::size_t d = 0; d < down.size(); ++d)
                {
                    const auto a = arc_var(e, from, d);
                    if (a == absent)
                    {
                        continue;
                    }
                    const auto to = tile(down[d]);
                    clause.assign(1, ~sat::pos(a));  // tail
                    push_if(clause, place_var(u, from));
                    push_if(clause, wire_var(e, from));
                    emit(sink, grp_routing, clause);
                    clause.assign(1, ~sat::pos(a));  // head
                    push_if(clause, place_var(v, to));
                    push_if(clause, wire_var(e, to));
                    emit(sink, grp_routing, clause);
                }
            });
        }

        // arc capacity: each arc used by at most one edge
        for (std::size_t from = 0; from < tiles_; ++from)
        {
            for (std::size_t d = 0; d < 2; ++d)
            {
                lits.clear();
                for (std::size_t e = 0; e < edges.size(); ++e)
                {
                    push_if(lits, arc_var(e, from, d));
                }
                sat::add_at_most_one(sink, lits, guard(grp_capacity));
            }
        }

        // wires and placed nodes never share a tile
        for (std::size_t e = 0; e < edges.size(); ++e)
        {
            const auto rows = wire_rows(e);
            for_rows(rows.first, rows.second, [&](std::size_t t) {
                const auto wt = wire_var(e, t);
                for (const auto v : nodes_in_row[t % h_])
                {
                    if (const auto p = place_var(v, t); p != absent)
                    {
                        emit(sink, grp_exclusivity, {~sat::pos(wt), ~sat::pos(p)});
                    }
                }
            });
        }

        // defect avoidance: unit clauses forbid any placement or wire on a
        // blocked tile
        for (const auto v : nodes)
        {
            for (std::size_t t = 0; t < tiles_; ++t)
            {
                if (const auto p = place_var(v, t); p != absent && blocked_[t])
                {
                    emit(sink, grp_defects, {~sat::pos(p)});
                }
            }
        }
        for (std::size_t e = 0; e < edges.size(); ++e)
        {
            const auto rows = wire_rows(e);
            for_rows(rows.first, rows.second, [&](std::size_t t) {
                if (blocked_[t])
                {
                    emit(sink, grp_defects, {~sat::pos(wire_var(e, t))});
                }
            });
        }
        return sink;
    }

    /// Reads the model off the solver and assembles the w x h gate-level
    /// layout. Arcs are read by edge, then source tile, then direction, which
    /// fixes the order ports are assigned in.
    GateLevelLayout decode_layout()
    {
        const auto& network = net_.network;
        GateLevelLayout layout{w_, h_, ClockingScheme::row_columnar};

        // node placements and occupants
        constexpr std::size_t unplaced = ~std::size_t{0};
        std::vector<std::size_t> position(network.size(), unplaced);
        std::vector<Occupant> occupants(network.size());
        for (const auto v : net_.nodes)
        {
            for (std::size_t t = 0; t < tiles_; ++t)
            {
                if (const auto p = place_var(v, t); p != absent && solver_.model_value(p))
                {
                    position[v] = t;
                }
            }
            auto& occ = occupants[v];
            occ.type = network.type_of(v);
            occ.node = v;
            occ.label = network.node(v).name;
        }

        // wire occupants, in (edge, tile) order; wire_slot maps (edge, tile)
        // to its entry
        std::vector<std::pair<std::size_t, Occupant>> wires;
        std::vector<std::int32_t> wire_slot(wire_.size(), -1);
        for (std::size_t i = 0; i < wire_.size(); ++i)
        {
            if (wire_[i] != absent && solver_.model_value(wire_[i]))
            {
                Occupant occ;
                occ.type = GateType::buf;
                occ.node = static_cast<std::uint32_t>(i / tiles_);
                wire_slot[i] = static_cast<std::int32_t>(wires.size());
                wires.emplace_back(i % tiles_, std::move(occ));
            }
        }
        const auto wire_at = [&](std::size_t e, std::size_t t) -> Occupant& {
            const auto slot = wire_slot[e * tiles_ + t];
            if (slot < 0)
            {
                throw std::runtime_error{"exact_physical_design: decode failed: arc end without wire"};
            }
            return wires[static_cast<std::size_t>(slot)].second;
        };

        const auto set_in = [](Occupant& occ, Port p) {
            if (!occ.in_a.has_value())
            {
                occ.in_a = p;
            }
            else
            {
                occ.in_b = p;
            }
        };
        const auto set_out = [](Occupant& occ, Port p) {
            if (!occ.out_a.has_value())
            {
                occ.out_a = p;
            }
            else
            {
                occ.out_b = p;
            }
        };

        for (std::size_t e = 0; e < net_.edges.size(); ++e)
        {
            const auto u = net_.edges[e].source;
            const auto v = net_.edges[e].target;
            for (std::size_t from = 0; from < tiles_; ++from)
            {
                for (std::size_t d = 0; d < 2; ++d)
                {
                    const auto a = arc_var(e, from, d);
                    if (a == absent || !solver_.model_value(a))
                    {
                        continue;
                    }
                    const auto to = tile(down_neighbors(coord(from))[d]);
                    set_out(position[u] == from ? occupants[u] : wire_at(e, from), arc_exit[d]);
                    set_in(position[v] == to ? occupants[v] : wire_at(e, to), arc_entry[d]);
                }
            }
        }

        std::string err;
        for (const auto v : net_.nodes)
        {
            if (position[v] == unplaced)
            {
                throw std::runtime_error{"exact_physical_design: decode failed: unplaced node"};
            }
            if (!layout.add_occupant(coord(position[v]), occupants[v], &err))
            {
                throw std::runtime_error{"exact_physical_design: decode failed: " + err};
            }
        }
        for (const auto& [t, occ] : wires)
        {
            if (!layout.add_occupant(coord(t), occ, &err))
            {
                throw std::runtime_error{"exact_physical_design: decode failed: " + err};
            }
        }
        return layout;
    }

    /// Which group guards occur in \p conflict, as a per-group flag array.
    [[nodiscard]] std::array<bool, group_names.size()> guards_in(
        const std::vector<Lit>& conflict) const
    {
        std::array<bool, group_names.size()> present{};
        for (const auto l : conflict)
        {
            for (std::size_t g = 0; g < guards_.size(); ++g)
            {
                if (l == guards_[g])
                {
                    present[g] = true;
                }
            }
        }
        return present;
    }

    const PnrNetwork& net_;
    unsigned w_;
    unsigned h_;
    std::size_t tiles_;
    bool guarded_;
    bool trivially_unsat_{false};
    std::vector<bool> blocked_;  ///< per tile: defect-blocked
    std::array<Lit, group_names.size()> guards_{};

    sat::Solver solver_;
    std::vector<Lit> one_of_;          ///< require_one_of()'s clause
    std::vector<Lit> guarded_clause_;  ///< emit()'s clause in guarded mode
    std::vector<sat::Var> place_;  ///< (node, tile) -> placement variable
    std::vector<sat::Var> wire_;   ///< (edge, tile) -> wire variable
    std::vector<sat::Var> arc_;    ///< (edge, tile, sw|se) -> arc variable
};

/// The aspect ratios of one exact_physical_design call, decided up to two
/// at a time: the calling thread and one helper each take the next
/// undecided rung in ladder order. The rungs are booked in ladder order by
/// the calling thread alone (book()), which stops where the one-at-a-time
/// walk stops, so what it records does not depend on which thread decided
/// which rung, or when (DESIGN.md section 14).
class RungScheduler
{
  public:
    RungScheduler(const PnrNetwork& net, const ExactPDOptions& options, const core::RunBudget& budget,
                  const sat::SolveLimits& limits, std::vector<AspectRatio> sizes)
        : net_{net}, options_{options}, budget_{budget}, limits_{limits}
    {
        rungs_.reserve(sizes.size());  // never reallocated: helpers hold Rung*
        for (const auto size : sizes)
        {
            rungs_.emplace_back(size, budget.token);
        }
    }

    RungScheduler(const RungScheduler&) = delete;
    RungScheduler& operator=(const RungScheduler&) = delete;

    /// Stops the helper's rung and waits for the helper.
    ~RungScheduler()
    {
        {
            core::MutexLock lock{mutex_};
            closed_ = true;
            for (auto& rung : rungs_)
            {
                rung.stop.request_stop();
            }
        }
        if (helper_.joinable())
        {
            helper_.join();
        }
    }

    /// Decides and books the rungs in ladder order; returns the layout of
    /// the first satisfiable one. The helper starts once the first rung is
    /// refuted, when \p two_at_a_time.
    std::optional<GateLevelLayout> run(bool two_at_a_time, ExactPDStats* stats)
    {
        for (std::size_t i = 0; i < rungs_.size(); ++i)
        {
            if (i == 1 && two_at_a_time)
            {
                try
                {
                    helper_ = std::thread{[this] {
                        while (decide_next())
                        {
                        }
                    }};
                }
                catch (const std::system_error&)
                {
                    // no thread to be had: go on one rung at a time
                }
            }
            // decide rungs on this thread until rung i is decided
            for (;;)
            {
                {
                    core::MutexLock lock{mutex_};
                    // rung i is the helper's: take the next one, or wait
                    while (rungs_[i].state == State::claimed && !can_claim())
                    {
                        decided_.wait(lock.native());
                    }
                    if (rungs_[i].state != State::open && rungs_[i].state != State::claimed)
                    {
                        break;
                    }
                }
                decide_next();
            }
            if (!book(i, helper_.joinable() ? 2U : 1U, stats))
            {
                break;
            }
            if (rungs_[i].outcome.layout.has_value())
            {
                return std::move(rungs_[i].outcome.layout);
            }
        }
        return std::nullopt;
    }

  private:
    enum class State : std::uint8_t
    {
        open,       ///< not taken yet
        claimed,    ///< being solved
        decided,    ///< outcome holds the verdict
        cancelled,  ///< not started: the run was stopped
        expired,    ///< not started: the deadline had passed
        failed      ///< solving threw; error holds the exception
    };

    struct Rung
    {
        Rung(AspectRatio s, const core::StopToken& parent) : size{s}, stop{parent} {}

        AspectRatio size;
        /// Stops this rung's solve; linked to the caller's token.
        core::StopSource stop;
        State state{State::open};
        Outcome outcome{};
        std::exception_ptr error{};
    };

    /// False once no rung may be taken: all are taken, the calling thread
    /// has finished, or a satisfiable rung precedes the next one.
    [[nodiscard]] bool can_claim() const REQUIRES(mutex_)
    {
        return !closed_ && next_ < rungs_.size() && next_ <= winner_;
    }

    /// Takes the next rung and decides it on this thread. Returns false when
    /// there was none to take.
    bool decide_next() EXCLUDES(mutex_)
    {
        Rung* rung = nullptr;
        std::size_t index = 0;
        {
            core::MutexLock lock{mutex_};
            if (!can_claim())
            {
                return false;
            }
            index = next_++;
            rung = &rungs_[index];
            // the checks the one-at-a-time walk makes before every rung
            const bool stopped = budget_.token.stop_requested();
            if (stopped || budget_.deadline.remaining_ms() <= 0)
            {
                rung->state = stopped ? State::cancelled : State::expired;
                closed_ = true;
                decided_.notify_all();
                return false;
            }
            rung->state = State::claimed;
        }

        Outcome outcome;
        std::exception_ptr error;
        try
        {
            auto limits = limits_;
            limits.run.token = rung->stop.token();
            SizeEncoding encoding{net_, rung->size.width, rung->size.height, options_.defects};
            outcome = encoding.solve(limits, options_.certify_unsat);
        }
        catch (...)
        {
            error = std::current_exception();
        }

        core::MutexLock lock{mutex_};
        rung->outcome = std::move(outcome);
        rung->error = error;
        rung->state = error ? State::failed : State::decided;
        if (rung->outcome.result == sat::Result::satisfiable && index < winner_)
        {
            // every later rung is moot: stop the ones being solved
            winner_ = index;
            for (std::size_t j = index + 1; j < rungs_.size(); ++j)
            {
                rungs_[j].stop.request_stop();
            }
        }
        decided_.notify_all();
        return true;
    }

    /// Books rung \p i, decided or not started, into \p stats as the
    /// one-at-a-time walk does; returns false where that walk stops.
    bool book(std::size_t i, unsigned in_flight, ExactPDStats* stats)
    {
        const auto& rung = rungs_[i];
        if (rung.state == State::failed)
        {
            std::rethrow_exception(rung.error);
        }
        if (rung.state == State::cancelled)
        {
            if (stats != nullptr)
            {
                stats->cancelled = true;
                stats->message = "cancelled";
            }
            return false;
        }
        if (rung.state == State::expired)
        {
            if (stats != nullptr)
            {
                stats->budget_exhausted = true;
                stats->message = "time budget exhausted";
            }
            return false;
        }
        const auto& outcome = rung.outcome;
        if (stats != nullptr)
        {
            ++stats->sizes_tried;
            stats->rungs_in_flight = std::max(stats->rungs_in_flight, in_flight);
            stats->total_conflicts += outcome.conflicts;
            stats->size_verdicts.push_back(
                {rung.size, outcome.result, outcome.conflicts, outcome.decisions, outcome.propagations});
            stats->proofs_checked += outcome.proof == ProofCheck::valid ? 1U : 0U;
            stats->proof_failures += outcome.proof == ProofCheck::invalid ? 1U : 0U;
            if (outcome.result == sat::Result::unknown)
            {
                stats->budget_exhausted = true;
            }
            if (budget_.token.stop_requested())
            {
                stats->cancelled = true;
                stats->message = "cancelled";
            }
        }
        return outcome.layout.has_value() || !budget_.token.stop_requested();
    }

    const PnrNetwork& net_;
    const ExactPDOptions& options_;
    const core::RunBudget& budget_;
    const sat::SolveLimits& limits_;

    core::Mutex mutex_;
    std::condition_variable decided_;
    /// The rungs in ladder order. A rung's state, outcome and error are
    /// written under mutex_; book() reads them after it saw the rung
    /// decided under mutex_, when nothing writes them any more. stop is
    /// thread-safe on its own.
    std::vector<Rung> rungs_;
    std::size_t next_ GUARDED_BY(mutex_){0};
    std::size_t winner_ GUARDED_BY(mutex_){std::numeric_limits<std::size_t>::max()};
    bool closed_ GUARDED_BY(mutex_){false};
    std::thread helper_;
};

/// Walks the ladder with a fresh encoding per aspect ratio and keeps the
/// budget, cancellation and per-size bookkeeping. After the first refuted
/// rung, two rungs are solved at a time unless the machine has one CPU or
/// the call comes from a core::ThreadPool worker.
std::optional<GateLevelLayout> run_ladder(const PnrNetwork& net, const ExactPDOptions& options,
                                          const core::RunBudget& budget,
                                          const sat::SolveLimits& limits,
                                          AspectRatioLadder& ladder, ExactPDStats* stats)
{
    std::vector<AspectRatio> sizes;
    AspectRatio size;
    while (ladder.next(size))
    {
        sizes.push_back(size);
    }
    const bool two_at_a_time = core::resolve_thread_count(0) > 1 && !core::ThreadPool::inside_worker();
    RungScheduler scheduler{net, options, budget, limits, std::move(sizes)};
    return scheduler.run(two_at_a_time, stats);
}

}  // namespace

unsigned minimum_height(const logic::LogicNetwork& network)
{
    return row_windows(network).min_height;
}

std::optional<GateLevelLayout> exact_physical_design(const logic::LogicNetwork& network,
                                                     const ExactPDOptions& options, ExactPDStats* stats)
{
    std::string why;
    if (!network.is_bestagon_compliant(&why))
    {
        throw std::invalid_argument{"exact_physical_design: network not Bestagon-compliant: " + why};
    }

    const PnrNetwork net{network};
    const unsigned w_min =
        std::max<unsigned>(1, std::max(network.num_pis(), network.num_pos()));

    // the engine's own wall-clock budget composes with (is clipped by) the
    // caller's run deadline; all paths below poll the one composed budget
    const auto budget = options.run.clipped_ms(options.time_budget_ms);
    AspectRatioLadder ladder{w_min, options.max_width, net.windows.min_height, options.max_height};

    const sat::SolveLimits limits{options.conflicts_per_size, budget};

    auto layout = run_ladder(net, options, budget, limits, ladder, stats);
    if (layout.has_value())
    {
        return layout;
    }
    if (stats != nullptr && stats->message.empty())
    {
        stats->message = "no layout within size limits";
    }

    // infeasibility diagnosis: only meaningful when every size was genuinely
    // refuted (a budget-truncated or cancelled decline proves nothing); an
    // empty ladder, with limits below the structural bounds, is diagnosed too
    if (options.diagnose_infeasibility && stats != nullptr && !stats->budget_exhausted &&
        !stats->cancelled && budget.deadline.remaining_ms() > 0)
    {
        // the most permissive aspect ratio, encoded once with group guards;
        // the core minimization re-solves on that one solver
        SizeEncoding diagnosis{net, options.max_width, options.max_height, options.defects,
                               /*guarded=*/true};
        if (auto groups = diagnosis.refuting_groups(limits); groups.has_value())
        {
            stats->refuting_groups = std::move(*groups);
            stats->message += "; refuted by constraint groups:";
            for (const auto& g : stats->refuting_groups)
            {
                stats->message += ' ' + g;
            }
        }
    }
    return std::nullopt;
}

}  // namespace bestagon::layout
