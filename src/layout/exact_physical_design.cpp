#include "layout/exact_physical_design.hpp"

#include "layout/aspect_ratio_ladder.hpp"
#include "layout/defect_map.hpp"
#include "sat/dimacs.hpp"
#include "sat/encodings.hpp"
#include "sat/proof.hpp"
#include "sat/proof_check.hpp"
#include "sat/solver.hpp"

#include <algorithm>
#include <array>
#include <cassert>
#include <optional>
#include <stdexcept>
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

/// Longest path from any PI, counted in nodes (PIs have level 0).
std::vector<unsigned> node_levels(const LogicNetwork& network)
{
    std::vector<unsigned> level(network.size(), 0);
    for (const auto id : network.topological_order())
    {
        const auto& n = network.node(id);
        for (unsigned i = 0; i < gate_arity(n.type); ++i)
        {
            level[id] = std::max(level[id], level[n.fanin[i]] + 1);
        }
    }
    return level;
}

/// Longest path to any PO, counted in nodes (POs have 0).
std::vector<unsigned> node_depths_to_po(const LogicNetwork& network)
{
    std::vector<unsigned> depth(network.size(), 0);
    const auto order = network.topological_order();
    for (auto it = order.rbegin(); it != order.rend(); ++it)
    {
        const auto& n = network.node(*it);
        for (unsigned i = 0; i < gate_arity(n.type); ++i)
        {
            depth[n.fanin[i]] = std::max(depth[n.fanin[i]], depth[*it] + 1);
        }
    }
    return depth;
}

/// What the encoder needs of the network, computed once per
/// exact_physical_design call and shared by every aspect ratio.
struct PnrNetwork
{
    explicit PnrNetwork(const LogicNetwork& n)
        : network{n}, levels{node_levels(n)}, depths{node_depths_to_po(n)}
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
    std::vector<unsigned> levels;
    std::vector<unsigned> depths;
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

/// SAT verdict of one aspect ratio, with the decoded layout when satisfiable
/// and the conflicts the solve spent.
struct Outcome
{
    sat::Result result{sat::Result::unknown};
    std::optional<GateLevelLayout> layout{};
    std::uint64_t conflicts{0};
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
        build();
    }

    /// Solves the size within \p limits. With \p certify, every UNSAT
    /// verdict is DRAT-certified by the independent checker and recorded in
    /// \p stats.
    Outcome solve(const sat::SolveLimits& limits, bool certify, ExactPDStats* stats)
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
        if (certify && stats != nullptr && out.result == sat::Result::unsatisfiable)
        {
            const auto check =
                sat::check_drat_proof(sat::to_cnf(solver_.root_clauses()), tracer.proof());
            if (check.valid)
            {
                ++stats->proofs_checked;
            }
            else
            {
                ++stats->proof_failures;
            }
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
        const unsigned lo = net_.levels[v];
        const unsigned hi = h_ - 1 - std::min<unsigned>(h_ - 1, net_.depths[v]);
        return {lo, hi};
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

    /// Adds \p clause, weakened by the group's guard in guarded mode.
    void emit(std::size_t group, std::vector<Lit> clause)
    {
        if (guarded_)
        {
            clause.push_back(~guards_[group]);
        }
        solver_.add_clause(std::move(clause));
    }

    /// trigger -> at least one of options (the AMO part is added separately).
    void require_one_of(std::size_t group, sat::Var trigger, const std::vector<Lit>& options)
    {
        std::vector<Lit> clause{~sat::pos(trigger)};
        clause.insert(clause.end(), options.begin(), options.end());
        emit(group, std::move(clause));
    }

    void build()
    {
        const auto& nodes = net_.nodes;
        const auto& edges = net_.edges;

        // feasibility: node row ranges must be non-empty
        for (const auto v : nodes)
        {
            const auto [lo, hi] = row_range(v);
            if (lo > hi)
            {
                trivially_unsat_ = true;
                return;
            }
        }
        if (guarded_)
        {
            for (auto& g : guards_)
            {
                g = sat::pos(solver_.new_var());
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
                    const auto var = solver_.new_var();
                    place_var(v, x * h_ + y) = var;
                    lits.push_back(sat::pos(var));
                }
            }
            sat::add_exactly_one(solver_, lits, guard(grp_placement));
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
                sat::add_at_most_one(solver_, lits, guard(grp_exclusivity));
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
                    wire_var(e, x * h_ + y) = solver_.new_var();
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
                            arc_var(e, tile(t), d) = solver_.new_var();
                        }
                    }
                }
            }
        }

        // edge structure clauses
        std::vector<Lit> outgoing;
        std::vector<Lit> incoming;
        for (std::size_t e = 0; e < edges.size(); ++e)
        {
            const auto u = edges[e].source;
            const auto v = edges[e].target;
            for (unsigned y = 0; y < h_; ++y)
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
                        require_one_of(grp_routing, pu, outgoing);
                    }
                    if (const auto wt = wire_var(e, ti); wt != absent)
                    {
                        require_one_of(grp_routing, wt, outgoing);
                        require_one_of(grp_routing, wt, incoming);
                    }
                    if (const auto pv = place_var(v, ti); pv != absent)
                    {
                        require_one_of(grp_routing, pv, incoming);
                    }
                    sat::add_at_most_one(solver_, outgoing, guard(grp_routing));
                    sat::add_at_most_one(solver_, incoming, guard(grp_routing));
                }
            }

            // arc endpoints must carry the edge
            for (std::size_t from = 0; from < tiles_; ++from)
            {
                const auto down = down_neighbors(coord(from));
                for (std::size_t d = 0; d < down.size(); ++d)
                {
                    const auto a = arc_var(e, from, d);
                    if (a == absent)
                    {
                        continue;
                    }
                    const auto to = tile(down[d]);
                    std::vector<Lit> tail{~sat::pos(a)};
                    push_if(tail, place_var(u, from));
                    push_if(tail, wire_var(e, from));
                    emit(grp_routing, std::move(tail));
                    std::vector<Lit> head{~sat::pos(a)};
                    push_if(head, place_var(v, to));
                    push_if(head, wire_var(e, to));
                    emit(grp_routing, std::move(head));
                }
            }
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
                sat::add_at_most_one(solver_, lits, guard(grp_capacity));
            }
        }

        // wires and placed nodes never share a tile
        for (std::size_t e = 0; e < edges.size(); ++e)
        {
            for (std::size_t t = 0; t < tiles_; ++t)
            {
                const auto wt = wire_var(e, t);
                if (wt == absent)
                {
                    continue;
                }
                for (const auto v : nodes_in_row[t % h_])
                {
                    if (const auto p = place_var(v, t); p != absent)
                    {
                        emit(grp_exclusivity, {~sat::pos(wt), ~sat::pos(p)});
                    }
                }
            }
        }

        // defect avoidance: unit clauses forbid any placement or wire on a
        // blocked tile
        for (const auto v : nodes)
        {
            for (std::size_t t = 0; t < tiles_; ++t)
            {
                if (const auto p = place_var(v, t); p != absent && blocked_[t])
                {
                    emit(grp_defects, {~sat::pos(p)});
                }
            }
        }
        for (std::size_t e = 0; e < edges.size(); ++e)
        {
            for (std::size_t t = 0; t < tiles_; ++t)
            {
                if (const auto wt = wire_var(e, t); wt != absent && blocked_[t])
                {
                    emit(grp_defects, {~sat::pos(wt)});
                }
            }
        }
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
    std::vector<sat::Var> place_;  ///< (node, tile) -> placement variable
    std::vector<sat::Var> wire_;   ///< (edge, tile) -> wire variable
    std::vector<sat::Var> arc_;    ///< (edge, tile, sw|se) -> arc variable
};

/// Walks the ladder with a fresh encoding per aspect ratio and keeps the
/// budget, cancellation and per-size bookkeeping.
std::optional<GateLevelLayout> run_ladder(const PnrNetwork& net, const ExactPDOptions& options,
                                          const core::RunBudget& budget,
                                          const sat::SolveLimits& limits,
                                          AspectRatioLadder& ladder, ExactPDStats* stats)
{
    AspectRatio size;
    while (ladder.next(size))
    {
        if (budget.token.stop_requested())
        {
            if (stats != nullptr)
            {
                stats->cancelled = true;
                stats->message = "cancelled";
            }
            return std::nullopt;
        }
        if (budget.deadline.remaining_ms() <= 0)
        {
            if (stats != nullptr)
            {
                stats->budget_exhausted = true;
                stats->message = "time budget exhausted";
            }
            return std::nullopt;
        }
        if (stats != nullptr)
        {
            ++stats->sizes_tried;
        }
        SizeEncoding encoding{net, size.width, size.height, options.defects};
        auto outcome = encoding.solve(limits, options.certify_unsat, stats);
        if (stats != nullptr)
        {
            stats->total_conflicts += outcome.conflicts;
            stats->size_verdicts.push_back({size, outcome.result, outcome.conflicts});
            if (outcome.result == sat::Result::unknown)
            {
                stats->budget_exhausted = true;
            }
            if (budget.token.stop_requested())
            {
                stats->cancelled = true;
                stats->message = "cancelled";
            }
        }
        if (outcome.layout.has_value())
        {
            return std::move(outcome.layout);
        }
        if (budget.token.stop_requested())
        {
            return std::nullopt;
        }
    }
    return std::nullopt;
}

}  // namespace

unsigned minimum_height(const logic::LogicNetwork& network)
{
    const auto levels = node_levels(network);
    unsigned h = 0;
    for (const auto po : network.pos())
    {
        h = std::max(h, levels[po]);
    }
    return h + 1;
}

std::optional<GateLevelLayout> exact_physical_design(const logic::LogicNetwork& network,
                                                     const ExactPDOptions& options, ExactPDStats* stats)
{
    std::string why;
    if (!network.is_bestagon_compliant(&why))
    {
        throw std::invalid_argument{"exact_physical_design: network not Bestagon-compliant: " + why};
    }

    const unsigned h_min = minimum_height(network);
    const unsigned w_min =
        std::max<unsigned>(1, std::max(network.num_pis(), network.num_pos()));

    // the engine's own wall-clock budget composes with (is clipped by) the
    // caller's run deadline; all paths below poll the one composed budget
    const auto budget = options.run.clipped_ms(options.time_budget_ms);
    AspectRatioLadder ladder{w_min, options.max_width, h_min, options.max_height};

    const sat::SolveLimits limits{options.conflicts_per_size, budget};
    const PnrNetwork net{network};

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
    // refuted (a budget-truncated or cancelled decline proves nothing)
    if (options.diagnose_infeasibility && stats != nullptr && !stats->budget_exhausted &&
        !stats->cancelled && stats->sizes_tried > 0 && budget.deadline.remaining_ms() > 0)
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
