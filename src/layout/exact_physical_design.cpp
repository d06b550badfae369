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
#include <functional>
#include <map>
#include <optional>
#include <set>
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

using PlaceMap = std::map<std::pair<NodeId, HexCoord>, Lit>;
using WireMap = std::map<std::pair<std::size_t, HexCoord>, Lit>;
using ArcMap = std::map<std::tuple<std::size_t, HexCoord, HexCoord>, Lit>;

/// Reads the model off \p solver and assembles the w x h gate-level layout.
/// Shared by the fresh and the incremental encodings: in the incremental
/// case, variables outside the assumed size are forced false by the bound
/// clauses, so iterating the full union-grid maps is safe.
GateLevelLayout decode_layout(const LogicNetwork& network, const std::vector<NodeId>& nodes,
                              const std::vector<Edge>& edges, const PlaceMap& place,
                              const WireMap& wire, const ArcMap& arc,
                              const sat::Solver& solver, unsigned w, unsigned h)
{
    GateLevelLayout layout{w, h, ClockingScheme::row_columnar};

    // node placements
    std::map<NodeId, HexCoord> position;
    for (const auto& [k, lit] : place)
    {
        if (solver.model_value(lit))
        {
            position[k.first] = k.second;
        }
    }

    // per node: gather in/out ports from arcs of incident edges
    std::map<NodeId, Occupant> occupants;
    for (const auto v : nodes)
    {
        Occupant occ;
        occ.type = network.type_of(v);
        occ.node = v;
        occ.label = network.node(v).name;
        occupants[v] = occ;
    }

    // wire occupants per (edge, tile)
    std::map<std::pair<std::size_t, std::pair<int, int>>, Occupant> wires;
    for (const auto& [k, lit] : wire)
    {
        if (solver.model_value(lit))
        {
            Occupant occ;
            occ.type = GateType::buf;
            occ.node = static_cast<std::uint32_t>(k.first);
            wires[{k.first, {k.second.x, k.second.y}}] = occ;
        }
    }

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

    for (const auto& [k, lit] : arc)
    {
        if (!solver.model_value(lit))
        {
            continue;
        }
        const auto e = std::get<0>(k);
        const auto& from = std::get<1>(k);
        const auto& to = std::get<2>(k);
        const auto out_p = exit_port(from, to);
        const auto in_p = entry_port(from, to);
        assert(out_p.has_value() && in_p.has_value());

        const auto u = edges[e].source;
        const auto v = edges[e].target;

        // tail side
        if (const auto pu = position.find(u); pu != position.end() && pu->second == from)
        {
            set_out(occupants[u], *out_p);
        }
        else
        {
            set_out(wires.at({e, {from.x, from.y}}), *out_p);
        }
        // head side
        if (const auto pv = position.find(v); pv != position.end() && pv->second == to)
        {
            set_in(occupants[v], *in_p);
        }
        else
        {
            set_in(wires.at({e, {to.x, to.y}}), *in_p);
        }
    }

    std::string err;
    for (const auto& [v, occ] : occupants)
    {
        if (!layout.add_occupant(position.at(v), occ, &err))
        {
            throw std::runtime_error{"exact_physical_design: decode failed: " + err};
        }
    }
    for (const auto& [k, occ] : wires)
    {
        const HexCoord t{k.second.first, k.second.second};
        if (!layout.add_occupant(t, occ, &err))
        {
            throw std::runtime_error{"exact_physical_design: decode failed: " + err};
        }
    }
    return layout;
}

/// SAT verdict of one aspect ratio, with the decoded layout when satisfiable
/// and the conflicts the solve spent.
struct Outcome
{
    sat::Result result{sat::Result::unknown};
    std::optional<GateLevelLayout> layout{};
    std::uint64_t conflicts{0};
};

/// Encoder + decoder for one aspect ratio — the legacy fresh-per-size path,
/// kept alive behind ExactPDOptions::incremental = false as the differential
/// oracle's reference lane. Each size gets its own solver.
class SizeEncoding
{
  public:
    SizeEncoding(const LogicNetwork& network, unsigned w, unsigned h,
                 const phys::DefectSurface& defects)
        : network_{network}, w_{w}, h_{h}, levels_{node_levels(network)},
          depths_{node_depths_to_po(network)}
    {
        if (!defects.empty())
        {
            blocked_tiles_ = blocked_tiles(w, h, defects);
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
            out.layout = decode_layout(network_, nodes_, edges_, place_, wire_, arc_, solver_, w_, h_);
        }
        return out;
    }

  private:
    [[nodiscard]] bool in_bounds(HexCoord c) const
    {
        return c.x >= 0 && c.y >= 0 && c.x < static_cast<std::int32_t>(w_) &&
               c.y < static_cast<std::int32_t>(h_);
    }

    [[nodiscard]] std::pair<unsigned, unsigned> row_range(NodeId v) const
    {
        const auto type = network_.type_of(v);
        if (type == GateType::pi)
        {
            return {0, 0};
        }
        if (type == GateType::po)
        {
            return {h_ - 1, h_ - 1};
        }
        const unsigned lo = levels_[v];
        const unsigned hi = h_ - 1 - std::min<unsigned>(h_ - 1, depths_[v]);
        return {lo, hi};
    }

    void build()
    {
        // collect nodes and edges
        for (const auto id : network_.topological_order())
        {
            const auto type = network_.type_of(id);
            if (type == GateType::const0 || type == GateType::const1)
            {
                throw std::invalid_argument{"exact_physical_design: constant nodes unsupported"};
            }
            nodes_.push_back(id);
            const auto& n = network_.node(id);
            for (unsigned i = 0; i < gate_arity(type); ++i)
            {
                edges_.push_back(Edge{n.fanin[i], id});
            }
        }

        // feasibility: node row ranges must be non-empty
        for (const auto v : nodes_)
        {
            const auto [lo, hi] = row_range(v);
            if (lo > hi)
            {
                trivially_unsat_ = true;
                return;
            }
        }

        // placement variables
        for (const auto v : nodes_)
        {
            const auto [lo, hi] = row_range(v);
            std::vector<Lit> options;
            for (unsigned y = lo; y <= hi; ++y)
            {
                for (unsigned x = 0; x < w_; ++x)
                {
                    const HexCoord t{static_cast<std::int32_t>(x), static_cast<std::int32_t>(y)};
                    const auto var = solver_.new_var();
                    place_[{v, t}] = sat::pos(var);
                    options.push_back(sat::pos(var));
                }
            }
            sat::add_exactly_one(solver_, options);
        }

        // at most one node per tile
        for (unsigned y = 0; y < h_; ++y)
        {
            for (unsigned x = 0; x < w_; ++x)
            {
                const HexCoord t{static_cast<std::int32_t>(x), static_cast<std::int32_t>(y)};
                std::vector<Lit> here;
                for (const auto v : nodes_)
                {
                    if (const auto it = place_.find({v, t}); it != place_.end())
                    {
                        here.push_back(it->second);
                    }
                }
                sat::add_at_most_one(solver_, here);
            }
        }

        // routing variables per edge
        for (std::size_t e = 0; e < edges_.size(); ++e)
        {
            const auto [ulo, uhi] = row_range(edges_[e].source);
            const auto [vlo, vhi] = row_range(edges_[e].target);
            // wire tiles may exist strictly between the endpoints' row ranges
            for (unsigned y = ulo + 1; y + 1 <= vhi && y < h_; ++y)
            {
                if (y > static_cast<unsigned>(vhi) - 1)
                {
                    break;
                }
                for (unsigned x = 0; x < w_; ++x)
                {
                    const HexCoord t{static_cast<std::int32_t>(x), static_cast<std::int32_t>(y)};
                    wire_[{e, t}] = sat::pos(solver_.new_var());
                }
            }
            // arcs from rows [ulo, vhi-1]
            for (unsigned y = ulo; y + 1 <= vhi; ++y)
            {
                for (unsigned x = 0; x < w_; ++x)
                {
                    const HexCoord t{static_cast<std::int32_t>(x), static_cast<std::int32_t>(y)};
                    for (const auto& t2 : down_neighbors(t))
                    {
                        if (in_bounds(t2))
                        {
                            arc_[{e, t, t2}] = sat::pos(solver_.new_var());
                        }
                    }
                }
            }
        }

        // edge structure clauses
        for (std::size_t e = 0; e < edges_.size(); ++e)
        {
            const auto u = edges_[e].source;
            const auto v = edges_[e].target;
            for (unsigned y = 0; y < h_; ++y)
            {
                for (unsigned x = 0; x < w_; ++x)
                {
                    const HexCoord t{static_cast<std::int32_t>(x), static_cast<std::int32_t>(y)};

                    std::vector<Lit> outgoing;
                    for (const auto& t2 : down_neighbors(t))
                    {
                        if (const auto it = arc_.find({e, t, t2}); it != arc_.end())
                        {
                            outgoing.push_back(it->second);
                        }
                    }
                    std::vector<Lit> incoming;
                    for (const auto& t0 : up_neighbors(t))
                    {
                        if (const auto it = arc_.find({e, t0, t}); it != arc_.end())
                        {
                            incoming.push_back(it->second);
                        }
                    }

                    // "e at t needing a successor" -> exactly one outgoing arc
                    if (const auto pu = lit_of_place(u, t); pu.has_value())
                    {
                        require_one_of(*pu, outgoing);
                    }
                    if (const auto wt = lit_of_wire(e, t); wt.has_value())
                    {
                        require_one_of(*wt, outgoing);
                        require_one_of(*wt, incoming);
                    }
                    if (const auto pv = lit_of_place(v, t); pv.has_value())
                    {
                        require_one_of(*pv, incoming);
                    }
                    sat::add_at_most_one(solver_, outgoing);
                    sat::add_at_most_one(solver_, incoming);
                }
            }

            // arc endpoints must carry the edge
            for (const auto& [k, lit] : arc_)
            {
                if (std::get<0>(k) != e)
                {
                    continue;
                }
                const auto& from = std::get<1>(k);
                const auto& to = std::get<2>(k);
                std::vector<Lit> tail{~lit};
                if (const auto pu = lit_of_place(u, from); pu.has_value())
                {
                    tail.push_back(*pu);
                }
                if (const auto wt = lit_of_wire(e, from); wt.has_value())
                {
                    tail.push_back(*wt);
                }
                solver_.add_clause(std::move(tail));
                std::vector<Lit> head{~lit};
                if (const auto pv = lit_of_place(v, to); pv.has_value())
                {
                    head.push_back(*pv);
                }
                if (const auto wt = lit_of_wire(e, to); wt.has_value())
                {
                    head.push_back(*wt);
                }
                solver_.add_clause(std::move(head));
            }
        }

        // arc capacity: each arc used by at most one edge
        {
            std::map<std::pair<std::pair<int, int>, std::pair<int, int>>, std::vector<Lit>> by_arc;
            for (const auto& [k, lit] : arc_)
            {
                const auto& from = std::get<1>(k);
                const auto& to = std::get<2>(k);
                by_arc[{{from.x, from.y}, {to.x, to.y}}].push_back(lit);
            }
            for (const auto& [arc, lits] : by_arc)
            {
                static_cast<void>(arc);
                sat::add_at_most_one(solver_, lits);
            }
        }

        // wires and placed nodes never share a tile
        for (const auto& [k, wlit] : wire_)
        {
            const auto& t = k.second;
            for (const auto v : nodes_)
            {
                if (const auto it = place_.find({v, t}); it != place_.end())
                {
                    solver_.add_clause({~wlit, ~it->second});
                }
            }
        }

        // defect avoidance: unit clauses forbid any placement or wire on a
        // blocked tile
        if (!blocked_tiles_.empty())
        {
            const auto is_blocked = [&](HexCoord t) {
                return std::find(blocked_tiles_.begin(), blocked_tiles_.end(), t) !=
                       blocked_tiles_.end();
            };
            for (const auto& [k, lit] : place_)
            {
                if (is_blocked(k.second))
                {
                    solver_.add_clause({~lit});
                }
            }
            for (const auto& [k, lit] : wire_)
            {
                if (is_blocked(k.second))
                {
                    solver_.add_clause({~lit});
                }
            }
        }
    }

    [[nodiscard]] std::optional<Lit> lit_of_place(NodeId v, HexCoord t) const
    {
        const auto it = place_.find({v, t});
        if (it == place_.end())
        {
            return std::nullopt;
        }
        return it->second;
    }

    [[nodiscard]] std::optional<Lit> lit_of_wire(std::size_t e, HexCoord t) const
    {
        const auto it = wire_.find({e, t});
        if (it == wire_.end())
        {
            return std::nullopt;
        }
        return it->second;
    }

    /// trigger -> at least one of options (the AMO part is added separately).
    void require_one_of(Lit trigger, const std::vector<Lit>& options)
    {
        std::vector<Lit> clause{~trigger};
        clause.insert(clause.end(), options.begin(), options.end());
        solver_.add_clause(std::move(clause));
    }

    const LogicNetwork& network_;
    unsigned w_;
    unsigned h_;
    std::vector<unsigned> levels_;
    std::vector<unsigned> depths_;
    std::vector<NodeId> nodes_;
    std::vector<Edge> edges_;
    std::vector<HexCoord> blocked_tiles_;  ///< defect-blocked tiles of this w x h grid
    bool trivially_unsat_{false};

    sat::Solver solver_;
    PlaceMap place_;
    WireMap wire_;
    ArcMap arc_;
};

/// The tentpole: one persistent solver across the whole aspect-ratio ladder.
///
/// The encoding covers the union grid of every size explored so far and only
/// ever GROWS — new tiles bring new variables and clauses, nothing is
/// retracted — so learned clauses, phase saving, and the clause arena carry
/// across ratios. Individual sizes are selected purely through assumptions:
///
///   * wle_c / hle_c chain literals ("width <= c" / "height <= c") bound
///     every grid variable to its per-size domain — a variable outside the
///     assumed (w, h) is forced false, exactly mirroring its non-existence
///     in the fresh per-size encoding;
///   * at-most-one constraints grow monotonically (IncrementalAtMostOne) and
///     hold for every size because they only ever relate coexisting tiles;
///   * at-least-one (completeness) clauses are the single non-monotone piece:
///     each grid growth re-emits them over the new union under a fresh
///     activation literal gen_k, and a solve assumes only the newest gen —
///     older generations' clauses remain in the formula but stay inert.
///
/// Every solve is solve({wle_w, hle_h, ~hle_{h-1}, gen_k [, group guards]}),
/// and each rejected ratio is certified UNSAT under those assumptions: the
/// assumptions join the root clauses as units and the cumulative DRAT proof
/// plus the closing empty clause must check against them (DESIGN.md §14).
class IncrementalSizeEncoding
{
  public:
    IncrementalSizeEncoding(const LogicNetwork& network, const ExactPDOptions& options,
                            bool with_groups)
        : network_{network}, levels_{node_levels(network)}, depths_{node_depths_to_po(network)},
          max_w_{std::max(1U, options.max_width)}, max_h_{std::max(1U, options.max_height)},
          with_groups_{with_groups},
          leak_stale_activation_{options.testkit_leak_stale_activation},
          certify_{options.certify_unsat}
    {
        for (const auto id : network_.topological_order())
        {
            const auto type = network_.type_of(id);
            if (type == GateType::const0 || type == GateType::const1)
            {
                throw std::invalid_argument{"exact_physical_design: constant nodes unsupported"};
            }
            nodes_.push_back(id);
            const auto& n = network_.node(id);
            for (unsigned i = 0; i < gate_arity(type); ++i)
            {
                edges_.push_back(Edge{n.fanin[i], id});
            }
            if (type == GateType::po)
            {
                h_min_ = std::max(h_min_, levels_[id] + 1);
            }
        }
        if (with_groups_)
        {
            for (auto& g : group_guards_)
            {
                g = sat::pos(solver_.new_var());
            }
        }
        // symbolic size: implication chains "width <= c -> width <= c+1"
        wle_.reserve(max_w_ + 1);
        for (unsigned c = 0; c <= max_w_; ++c)
        {
            wle_.push_back(sat::pos(solver_.new_var()));
        }
        hle_.reserve(max_h_ + 1);
        for (unsigned c = 0; c <= max_h_; ++c)
        {
            hle_.push_back(sat::pos(solver_.new_var()));
        }
        for (unsigned c = 0; c < max_w_; ++c)
        {
            solver_.add_clause(~wle_[c], wle_[c + 1]);
        }
        for (unsigned c = 0; c < max_h_; ++c)
        {
            solver_.add_clause(~hle_[c], hle_[c + 1]);
        }
        if (!options.defects.empty())
        {
            for (const auto t : blocked_tiles(max_w_, max_h_, options.defects))
            {
                blocked_.insert(t);
            }
        }
        if (certify_)
        {
            solver_.set_proof_tracer(&tracer_);
        }
    }

    /// Solves one aspect ratio on the persistent solver.
    Outcome solve_size(AspectRatio size, const sat::SolveLimits& limits, ExactPDStats* stats)
    {
        Outcome out;
        if (structurally_unsat(size.height))
        {
            out.result = sat::Result::unsatisfiable;
            return out;
        }
        ensure_grid(size.width, size.height);
        const auto assumptions = base_assumptions(size);
        const auto before = solver_.stats().conflicts;
        out.result = solver_.solve(with_guards(assumptions), limits);
        const auto after = solver_.stats().conflicts;
        out.conflicts = after >= before ? after - before : after;
        if (out.result == sat::Result::unsatisfiable && certify_ && stats != nullptr)
        {
            certify(with_guards(assumptions), *stats);
        }
        if (out.result == sat::Result::satisfiable)
        {
            out.layout = decode_layout(network_, nodes_, edges_, place_, wire_, arc_, solver_,
                                       size.width, size.height);
        }
        return out;
    }

    /// Solves \p size under all group guards and, on UNSAT, minimizes the
    /// guard core by deletion on the persistent solver (each drop is one
    /// cheap incremental re-solve) and returns the refuting group names.
    /// Requires with_groups construction. Returns std::nullopt when the
    /// verdict is not UNSAT (budget, or satisfiable).
    std::optional<std::vector<std::string>> refuting_groups(AspectRatio size,
                                                            const sat::SolveLimits& limits)
    {
        assert(with_groups_);
        if (structurally_unsat(size.height))
        {
            return std::vector<std::string>{"clocking"};
        }
        ensure_grid(size.width, size.height);
        const auto base = base_assumptions(size);
        if (solver_.solve(with_guards(base), limits) != sat::Result::unsatisfiable)
        {
            return std::nullopt;
        }
        auto core = guards_in(solver_.final_conflict());

        // deletion-based minimization in a fixed drop order, so the reported
        // groups are deterministic and minimal rather than whatever noise the
        // persistent solver's final conflict happened to contain
        constexpr std::array<std::size_t, 5> drop_order{grp_defects, grp_capacity, grp_routing,
                                                        grp_exclusivity, grp_placement};
        for (const auto g : drop_order)
        {
            if (limits.run.stopped() || !core[g])
            {
                continue;
            }
            auto trial = base;
            for (std::size_t i = 0; i < group_guards_.size(); ++i)
            {
                if (core[i] && i != g)
                {
                    trial.push_back(group_guards_[i]);
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
        for (std::size_t g = 0; g < group_guards_.size(); ++g)
        {
            if (core[g])
            {
                names.emplace_back(group_names[g]);
            }
        }
        std::sort(names.begin(), names.end());
        return names;
    }

    [[nodiscard]] unsigned generations() const noexcept
    {
        return static_cast<unsigned>(gen_.size());
    }

  private:
    /// Union-grid row range of node \p v at grid height \p H — the fresh
    /// per-size range of the largest size, which contains every smaller
    /// size's range (out-of-size rows are cut off by the bound clauses).
    [[nodiscard]] std::pair<unsigned, unsigned> union_row_range(NodeId v, unsigned H) const
    {
        const auto type = network_.type_of(v);
        if (type == GateType::pi)
        {
            return {0, 0};
        }
        if (type == GateType::po)
        {
            return {h_min_ - 1, H - 1};
        }
        const unsigned lo = levels_[v];
        const unsigned hi = H - 1 - std::min<unsigned>(H - 1, depths_[v]);
        return {lo, hi};
    }

    /// Defensive feasibility check (never fires for h >= minimum_height: any
    /// PI->v->PO path gives levels[v] + depths[v] + 1 <= h_min).
    [[nodiscard]] bool structurally_unsat(unsigned h) const
    {
        for (const auto v : nodes_)
        {
            if (network_.type_of(v) != GateType::pi && network_.type_of(v) != GateType::po &&
                levels_[v] > h - 1 - std::min<unsigned>(h - 1, depths_[v]))
            {
                return true;
            }
        }
        return h < h_min_;
    }

    /// Grows the union grid to cover (w, h) and re-emits the completeness
    /// clauses under a fresh activation literal when it grew.
    void ensure_grid(unsigned w, unsigned h)
    {
        if (w <= grid_w_ && h <= grid_h_ && !gen_.empty())
        {
            return;
        }
        grid_w_ = std::max(grid_w_, w);
        grid_h_ = std::max(grid_h_, h);
        const unsigned W = grid_w_;
        const unsigned H = grid_h_;

        // --- placement variables over the union domains ---
        for (const auto v : nodes_)
        {
            const auto [lo, hi] = union_row_range(v, H);
            for (unsigned y = lo; y <= hi && lo <= hi; ++y)
            {
                for (unsigned x = 0; x < W; ++x)
                {
                    const HexCoord t{static_cast<std::int32_t>(x), static_cast<std::int32_t>(y)};
                    if (place_.contains({v, t}))
                    {
                        continue;
                    }
                    const Lit p = sat::pos(solver_.new_var());
                    place_[{v, t}] = p;
                    node_place_[v].push_back(p);
                    // bound clauses mirror the fresh per-size domain: outside
                    // the assumed size the variable is forced false. They are
                    // deliberately group-unguarded — in the fresh encoding
                    // the variable would simply not exist.
                    solver_.add_clause(~p, ~wle_[x]);
                    switch (network_.type_of(v))
                    {
                        case GateType::pi:
                            break;  // row 0 exists at every height
                        case GateType::po:
                            // a PO at row y exists exactly at height y+1
                            solver_.add_clause(~p, hle_[y + 1]);
                            solver_.add_clause(~p, ~hle_[y]);
                            break;
                        default:
                            // room for the fanout cone: h >= y+1+depth
                            solver_.add_clause(~p, ~hle_[y + depths_[v]]);
                            break;
                    }
                    if (blocked_.contains(t))
                    {
                        emit(grp_defects, {~p});
                    }
                    for (const auto wl : wire_at_tile_[t])
                    {
                        emit(grp_exclusivity, {~wl, ~p});
                    }
                    place_at_tile_[t].push_back(p);
                    node_amo_.try_emplace(v, guard_of(grp_placement))
                        .first->second.add(solver_, p);
                    tile_amo_.try_emplace(t, guard_of(grp_exclusivity))
                        .first->second.add(solver_, p);
                }
            }
        }

        // --- wire and arc variables per edge ---
        for (std::size_t e = 0; e < edges_.size(); ++e)
        {
            const auto v = edges_[e].target;
            const unsigned ulo = union_row_range(edges_[e].source, H).first;
            const unsigned vhi = union_row_range(v, H).second;
            // wire tiles strictly between the endpoints' row ranges
            for (unsigned y = ulo + 1; y + 1 <= vhi; ++y)
            {
                for (unsigned x = 0; x < W; ++x)
                {
                    const HexCoord t{static_cast<std::int32_t>(x), static_cast<std::int32_t>(y)};
                    if (wire_.contains({e, t}))
                    {
                        continue;
                    }
                    const Lit wl = sat::pos(solver_.new_var());
                    wire_[{e, t}] = wl;
                    edge_wires_[e].emplace_back(t, wl);
                    solver_.add_clause(~wl, ~wle_[x]);
                    solver_.add_clause(~wl, ~hle_[y + 1 + depths_[v]]);
                    if (blocked_.contains(t))
                    {
                        emit(grp_defects, {~wl});
                    }
                    for (const auto p : place_at_tile_[t])
                    {
                        emit(grp_exclusivity, {~wl, ~p});
                    }
                    wire_at_tile_[t].push_back(wl);
                }
            }
            // arcs from rows [ulo, vhi-1]
            for (unsigned y = ulo; y + 1 <= vhi; ++y)
            {
                for (unsigned x = 0; x < W; ++x)
                {
                    const HexCoord t{static_cast<std::int32_t>(x), static_cast<std::int32_t>(y)};
                    for (const auto& t2 : down_neighbors(t))
                    {
                        if (t2.x < 0 || t2.x >= static_cast<std::int32_t>(W) ||
                            t2.y >= static_cast<std::int32_t>(H) || arc_.contains({e, t, t2}))
                        {
                            continue;
                        }
                        const Lit a = sat::pos(solver_.new_var());
                        arc_[{e, t, t2}] = a;
                        edge_arcs_[e].emplace_back(t, t2, a);
                        solver_.add_clause(~a, ~wle_[std::max(t.x, t2.x)]);
                        solver_.add_clause(~a, ~hle_[y + 1 + depths_[v]]);
                        out_lits_[{e, t}].push_back(a);
                        in_lits_[{e, t2}].push_back(a);
                        out_amo_.try_emplace(std::pair{e, t}, guard_of(grp_routing))
                            .first->second.add(solver_, a);
                        in_amo_.try_emplace(std::pair{e, t2}, guard_of(grp_routing))
                            .first->second.add(solver_, a);
                        cap_amo_.try_emplace(std::pair{t, t2}, guard_of(grp_capacity))
                            .first->second.add(solver_, a);
                    }
                }
            }
        }

        // --- new generation: completeness clauses over the grown union ---
        // These are the only non-monotone constraints (an at-least-one over a
        // grown domain must offer the new options), so each generation
        // re-emits them behind a fresh activation literal; older generations
        // stay in the formula but are never assumed again.
        gen_.push_back(sat::pos(solver_.new_var()));
        for (const auto v : nodes_)
        {
            emit_gen(grp_placement, node_place_[v]);  // place v somewhere
        }
        for (std::size_t e = 0; e < edges_.size(); ++e)
        {
            const auto u = edges_[e].source;
            const auto v = edges_[e].target;
            // placed/wired tail needs an outgoing arc; head an incoming one.
            // An empty option list degenerates to "this tile is unusable".
            for (const auto& [t, p] : placements_of(u))
            {
                emit_gen(grp_routing, with_trigger(p, out_lits_[{e, t}]));
            }
            for (const auto& [t, wl] : edge_wires_[e])
            {
                emit_gen(grp_routing, with_trigger(wl, out_lits_[{e, t}]));
                emit_gen(grp_routing, with_trigger(wl, in_lits_[{e, t}]));
            }
            for (const auto& [t, p] : placements_of(v))
            {
                emit_gen(grp_routing, with_trigger(p, in_lits_[{e, t}]));
            }
            // arc endpoints must carry the edge
            for (const auto& [from, to, a] : edge_arcs_[e])
            {
                std::vector<Lit> tail{~a};
                if (const auto it = place_.find({u, from}); it != place_.end())
                {
                    tail.push_back(it->second);
                }
                if (const auto it = wire_.find({e, from}); it != wire_.end())
                {
                    tail.push_back(it->second);
                }
                emit_gen(grp_routing, std::move(tail));
                std::vector<Lit> head{~a};
                if (const auto it = place_.find({v, to}); it != place_.end())
                {
                    head.push_back(it->second);
                }
                if (const auto it = wire_.find({e, to}); it != wire_.end())
                {
                    head.push_back(it->second);
                }
                emit_gen(grp_routing, std::move(head));
            }
        }
    }

    /// Tiles node \p v may occupy, with their placement literals.
    [[nodiscard]] std::vector<std::pair<HexCoord, Lit>> placements_of(NodeId v) const
    {
        std::vector<std::pair<HexCoord, Lit>> out;
        for (auto it = place_.lower_bound({v, HexCoord{INT32_MIN, INT32_MIN}});
             it != place_.end() && it->first.first == v; ++it)
        {
            out.emplace_back(it->first.second, it->second);
        }
        return out;
    }

    [[nodiscard]] std::vector<Lit> base_assumptions(AspectRatio size) const
    {
        std::size_t g = gen_.size() - 1;
        if (leak_stale_activation_ && gen_.size() > 1)
        {
            g = 0;  // seeded fault: the activation selector never advances
        }
        return {wle_[size.width], hle_[size.height], ~hle_[size.height - 1], gen_[g]};
    }

    [[nodiscard]] std::vector<Lit> with_guards(std::vector<Lit> assumptions) const
    {
        if (with_groups_)
        {
            assumptions.insert(assumptions.end(), group_guards_.begin(), group_guards_.end());
        }
        return assumptions;
    }

    /// Which group guards occur in \p conflict, as a per-group flag array.
    [[nodiscard]] std::array<bool, group_names.size()> guards_in(
        const std::vector<Lit>& conflict) const
    {
        std::array<bool, group_names.size()> present{};
        for (const auto l : conflict)
        {
            for (std::size_t g = 0; g < group_guards_.size(); ++g)
            {
                if (l == group_guards_[g])
                {
                    present[g] = true;
                }
            }
        }
        return present;
    }

    [[nodiscard]] std::optional<Lit> guard_of(std::size_t group) const
    {
        if (!with_groups_)
        {
            return std::nullopt;
        }
        return group_guards_[group];
    }

    /// Adds \p clause, weakened by the group's guard when in group mode.
    void emit(std::size_t group, std::vector<Lit> clause)
    {
        if (with_groups_)
        {
            clause.push_back(~group_guards_[group]);
        }
        solver_.add_clause(std::move(clause));
    }

    /// Adds \p clause additionally weakened by the current generation.
    void emit_gen(std::size_t group, std::vector<Lit> clause)
    {
        clause.push_back(~gen_.back());
        emit(group, std::move(clause));
    }

    [[nodiscard]] static std::vector<Lit> with_trigger(Lit trigger, const std::vector<Lit>& options)
    {
        std::vector<Lit> clause{~trigger};
        clause.insert(clause.end(), options.begin(), options.end());
        return clause;
    }

    /// Certifies the last UNSAT-under-assumptions verdict: the assumptions
    /// join the original clauses as units, and the cumulative proof plus the
    /// closing empty clause must refute that formula.
    void certify(const std::vector<Lit>& assumptions, ExactPDStats& stats)
    {
        auto cnf = sat::to_cnf(solver_.root_clauses());
        for (const auto a : assumptions)
        {
            cnf.num_vars = std::max(cnf.num_vars, a.var() + 1);
            cnf.clauses.push_back({a.sign() ? -(a.var() + 1) : a.var() + 1});
        }
        auto proof = tracer_.proof();
        proof.steps.push_back(sat::DratStep{});  // the refutation terminator
        const auto check = sat::check_drat_proof(cnf, proof);
        if (check.valid)
        {
            ++stats.proofs_checked;
        }
        else
        {
            ++stats.proof_failures;
        }
    }

    const LogicNetwork& network_;
    std::vector<unsigned> levels_;
    std::vector<unsigned> depths_;
    std::vector<NodeId> nodes_;
    std::vector<Edge> edges_;
    unsigned max_w_;
    unsigned max_h_;
    unsigned h_min_{1};
    bool with_groups_{false};
    bool leak_stale_activation_{false};
    bool certify_{false};
    std::array<Lit, group_names.size()> group_guards_{};
    std::set<HexCoord> blocked_;  ///< defect-blocked tiles of the maximal grid

    sat::Solver solver_;
    sat::MemoryProofTracer tracer_;

    unsigned grid_w_{0};
    unsigned grid_h_{0};
    std::vector<Lit> wle_;  ///< wle_[c] == "layout width <= c"
    std::vector<Lit> hle_;  ///< hle_[c] == "layout height <= c"
    std::vector<Lit> gen_;  ///< activation literal per grid generation

    PlaceMap place_;
    WireMap wire_;
    ArcMap arc_;
    std::map<NodeId, std::vector<Lit>> node_place_;
    std::map<HexCoord, std::vector<Lit>> place_at_tile_;
    std::map<HexCoord, std::vector<Lit>> wire_at_tile_;
    std::map<std::size_t, std::vector<std::pair<HexCoord, Lit>>> edge_wires_;
    std::map<std::size_t, std::vector<std::tuple<HexCoord, HexCoord, Lit>>> edge_arcs_;
    std::map<std::pair<std::size_t, HexCoord>, std::vector<Lit>> out_lits_;
    std::map<std::pair<std::size_t, HexCoord>, std::vector<Lit>> in_lits_;

    std::map<NodeId, sat::IncrementalAtMostOne> node_amo_;
    std::map<HexCoord, sat::IncrementalAtMostOne> tile_amo_;
    std::map<std::pair<std::size_t, HexCoord>, sat::IncrementalAtMostOne> out_amo_;
    std::map<std::pair<std::size_t, HexCoord>, sat::IncrementalAtMostOne> in_amo_;
    std::map<std::pair<HexCoord, HexCoord>, sat::IncrementalAtMostOne> cap_amo_;
};

/// Walks the ladder, answering each aspect ratio with \p solve_size, and
/// keeps the budget, cancellation and per-size bookkeeping of both encoders.
std::optional<GateLevelLayout> run_ladder(const core::RunBudget& budget, AspectRatioLadder& ladder,
                                          ExactPDStats* stats,
                                          const std::function<Outcome(AspectRatio)>& solve_size)
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
        auto outcome = solve_size(size);
        if (stats != nullptr)
        {
            stats->total_conflicts += outcome.conflicts;
            stats->size_verdicts.push_back({size, outcome.result});
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
        if (outcome.result == sat::Result::unsatisfiable)
        {
            ladder.record_refuted(size);
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

    std::optional<GateLevelLayout> layout;
    if (options.incremental)
    {
        // one persistent solver for the whole ladder (DESIGN.md §14)
        IncrementalSizeEncoding encoding{network, options, /*with_groups=*/false};
        layout = run_ladder(budget, ladder, stats, [&](AspectRatio size) {
            auto outcome = encoding.solve_size(size, limits, stats);
            if (stats != nullptr)
            {
                stats->grid_generations = encoding.generations();
            }
            return outcome;
        });
    }
    else
    {
        // the pre-incremental reference lane: a fresh encoding per size
        layout = run_ladder(budget, ladder, stats, [&](AspectRatio size) {
            SizeEncoding encoding{network, size.width, size.height, options.defects};
            return encoding.solve(limits, options.certify_unsat, stats);
        });
    }
    if (stats != nullptr)
    {
        stats->sizes_skipped = static_cast<unsigned>(ladder.skipped());
    }
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
        // the most permissive aspect ratio, diagnosed on a persistent
        // group-guarded encoding so the core minimization re-solves are
        // cheap incremental calls
        IncrementalSizeEncoding diagnosis{network, options, /*with_groups=*/true};
        if (auto groups = diagnosis.refuting_groups({options.max_width, options.max_height}, limits);
            groups.has_value())
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
