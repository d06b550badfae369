#include "layout/scalable_physical_design.hpp"

#include "layout/defect_map.hpp"
#include "phys/defect.hpp"

#include <algorithm>
#include <cassert>
#include <map>
#include <stdexcept>
#include <vector>

namespace bestagon::layout
{

namespace
{

using logic::GateType;
using logic::LogicNetwork;
using NodeId = LogicNetwork::NodeId;

/// A tile under construction (columns may be negative until normalization).
struct ProtoOcc
{
    Occupant occ;
    int col{0};
    int row{0};
};

/// One live signal: the producing network node and the head occupant index.
struct Signal
{
    NodeId node;
    int col;
    std::size_t head;
};

/// Constructive "signal march" placer. Signals advance one row per step.
/// Two signals may share a tile (a crossing / parallel-wires tile); sharing
/// pairs are forced apart on the next step, which realizes wire crossings
/// without any global routing.
/// Thrown (internally) when the run budget stops the march; the wrapper
/// translates it into a cancelled ScalablePDStats + nullopt.
struct StopRequested
{
};

class Marcher
{
  public:
    explicit Marcher(const LogicNetwork& network, const core::RunBudget& run)
        : network_{network}, run_{run}
    {
    }

    GateLevelLayout run()
    {
        int col = 0;
        const auto fanouts = network_.fanout_counts();
        for (const auto pi : network_.pis())
        {
            ProtoOcc p;
            p.occ.type = GateType::pi;
            p.occ.node = pi;
            p.occ.label = network_.node(pi).name;
            p.col = col;
            p.row = 0;
            if (fanouts[pi] != 0)
            {
                // a PI nothing reads keeps its tile but opens no signal
                signals_.push_back(Signal{pi, col, occupants_.size()});
            }
            occupants_.push_back(p);
            col += 1;
        }

        for (const auto id : network_.topological_order())
        {
            check_stop();
            const auto type = network_.type_of(id);
            switch (type)
            {
                case GateType::pi:
                case GateType::po:
                case GateType::none: continue;
                case GateType::const0:
                case GateType::const1:
                    throw std::invalid_argument{"scalable_physical_design: constants unsupported"};
                default: break;
            }
            if (gate_arity(type) == 1)
            {
                place_unary(id);
            }
            else
            {
                place_binary(id);
            }
        }

        // separate any still-shared signals so POs get distinct tiles
        unsigned po_guard = 0;
        while (has_shared_pair())
        {
            check_stop();
            if (++po_guard > 1000)
            {
                throw std::logic_error{"scalable_physical_design: de-sharing diverged"};
            }
            advance(desharing_steer(), {});
        }
        for (const auto po : network_.pos())
        {
            const auto si = take_signal(network_.node(po).fanin[0]);
            ProtoOcc p;
            p.occ.type = GateType::po;
            p.occ.node = po;
            p.occ.label = network_.node(po).name;
            p.col = signals_[si].col;
            p.row = row_ + 1;
            const auto idx = occupants_.size();
            occupants_.push_back(p);
            connect(signals_[si], idx, signals_[si].col);
            signals_.erase(signals_.begin() + static_cast<long>(si));
        }
        if (!signals_.empty())
        {
            throw std::logic_error{"scalable_physical_design: dangling signals"};
        }
        return materialize();
    }

  private:
    /// Steering that breaks de-sharing ping-pong. A forced split can only
    /// target the two parity-determined down-neighbor columns; if a single
    /// signal is parked in one of them and holds, the split re-pairs with it
    /// and the configuration oscillates between two columns forever. Pushing
    /// every such single one step further in the parity-legal drift
    /// direction makes room, so the split resolves instead of bouncing.
    [[nodiscard]] std::map<std::size_t, int> desharing_steer() const
    {
        std::map<std::size_t, int> steer;
        const bool odd = (row_ & 1) != 0;
        const int d = odd ? 1 : -1;
        std::map<int, unsigned> load;
        for (const auto& s : signals_)
        {
            ++load[s.col];
        }
        std::vector<int> escape_cols;  // split-target columns of shared pairs
        for (const auto& [c, l] : load)
        {
            if (l >= 2)
            {
                escape_cols.push_back(odd ? c : c - 1);
                escape_cols.push_back(odd ? c + 1 : c);
            }
        }
        for (std::size_t i = 0; i < signals_.size(); ++i)
        {
            const auto c = signals_[i].col;
            if (load[c] == 1 &&
                std::find(escape_cols.begin(), escape_cols.end(), c) != escape_cols.end())
            {
                steer[i] = d;
            }
        }
        // cascade: a steered single landing on another single would only
        // re-pair (a period-2 cycle at larger scale) — push the whole
        // contiguous run of singles so the block drifts into empty space
        for (bool changed = true; changed;)
        {
            changed = false;
            for (const auto& [i, dir] : steer)
            {
                const int t = signals_[i].col + dir;
                for (std::size_t j = 0; j < signals_.size(); ++j)
                {
                    if (signals_[j].col == t && load[t] == 1 && steer.find(j) == steer.end())
                    {
                        steer[j] = d;
                        changed = true;
                    }
                }
                if (changed)
                {
                    break;  // the map changed: restart iteration
                }
            }
        }
        return steer;
    }

    [[nodiscard]] bool has_shared_pair() const
    {
        for (std::size_t i = 0; i < signals_.size(); ++i)
        {
            for (std::size_t j = i + 1; j < signals_.size(); ++j)
            {
                if (signals_[i].col == signals_[j].col)
                {
                    return true;
                }
            }
        }
        return false;
    }

    std::size_t take_signal(NodeId node) const
    {
        for (std::size_t i = 0; i < signals_.size(); ++i)
        {
            if (signals_[i].node == node)
            {
                return i;
            }
        }
        throw std::logic_error{"scalable_physical_design: missing signal"};
    }

    /// Attaches ports for a step of \p sig into occupant \p target_index.
    void connect(Signal& sig, std::size_t target_index, int to_col)
    {
        auto& head = occupants_[sig.head];
        const HexCoord from{head.col, head.row};
        const HexCoord to{to_col, head.row + 1};
        const auto out = exit_port(from, to);
        const auto in = entry_port(from, to);
        if (!out.has_value() || !in.has_value())
        {
            throw std::logic_error{"scalable_physical_design: illegal step"};
        }
        if (!head.occ.out_a.has_value())
        {
            head.occ.out_a = *out;
        }
        else if (!head.occ.out_b.has_value())
        {
            head.occ.out_b = *out;
        }
        else
        {
            throw std::logic_error{"scalable_physical_design: occupant out-port overflow"};
        }
        auto& tgt = occupants_[target_index].occ;
        if (!tgt.in_a.has_value())
        {
            tgt.in_a = *in;
        }
        else if (!tgt.in_b.has_value())
        {
            tgt.in_b = *in;
        }
        else
        {
            throw std::logic_error{"scalable_physical_design: occupant in-port overflow"};
        }
    }

    /// Core row step. \p steer maps signal index -> column delta (+-1).
    /// \p gate_sinks maps signal index -> (occupant index, column) of a
    /// freshly created gate occupant in row_+1 absorbing that signal.
    /// Signals sharing a tile are forced apart onto the two down-neighbors.
    void advance(const std::map<std::size_t, int>& steer,
                 const std::map<std::size_t, std::pair<std::size_t, int>>& gate_sinks)
    {
        const int y = row_;
        const bool odd = (y & 1) != 0;
        const auto legal = [&](int d) { return d == 0 || (odd ? d == 1 : d == -1); };
        // down-neighbor columns of column c in this row
        const auto down_lo = [&](int c) { return odd ? c : c - 1; };
        const auto down_hi = [&](int c) { return odd ? c + 1 : c; };

        const std::size_t n = signals_.size();
        std::vector<int> target(n);
        std::vector<bool> fixed(n, false);  // splits and gate sinks are not cancellable
        std::vector<int> gate_cols;
        for (const auto& [i, sink] : gate_sinks)
        {
            static_cast<void>(i);
            gate_cols.push_back(sink.second);
        }
        const auto is_gate_col = [&](int c) {
            return std::find(gate_cols.begin(), gate_cols.end(), c) != gate_cols.end();
        };

        // find shared pairs (same column)
        std::map<int, std::vector<std::size_t>> by_col;
        for (std::size_t i = 0; i < n; ++i)
        {
            by_col[signals_[i].col].push_back(i);
        }

        for (const auto& [c, idxs] : by_col)
        {
            if (idxs.size() > 2)
            {
                throw std::logic_error{"scalable_physical_design: tile holds >2 signals"};
            }
            if (idxs.size() == 2)
            {
                // forced split onto the two down-neighbors; honor a steered
                // member's preferred side if any
                std::size_t lo_taker = idxs[0];
                std::size_t hi_taker = idxs[1];
                for (const auto i : idxs)
                {
                    if (const auto it = steer.find(i); it != steer.end())
                    {
                        if (it->second > 0)
                        {
                            hi_taker = i;
                            lo_taker = (i == idxs[0]) ? idxs[1] : idxs[0];
                        }
                        else if (it->second < 0)
                        {
                            lo_taker = i;
                            hi_taker = (i == idxs[0]) ? idxs[1] : idxs[0];
                        }
                    }
                }
                target[lo_taker] = down_lo(c);
                target[hi_taker] = down_hi(c);
                fixed[lo_taker] = true;
                fixed[hi_taker] = true;
                if (is_gate_col(target[lo_taker]) || is_gate_col(target[hi_taker]))
                {
                    // callers de-share all pairs before placing gates
                    throw std::logic_error{"scalable_physical_design: split collides with gate tile"};
                }
                continue;
            }
            const auto i = idxs[0];
            if (const auto gs = gate_sinks.find(i); gs != gate_sinks.end())
            {
                target[i] = gs->second.second;
                fixed[i] = true;
                continue;
            }
            int d = 0;
            if (const auto it = steer.find(i); it != steer.end() && legal(it->second))
            {
                d = it->second;
            }
            if (d != 0 && is_gate_col(signals_[i].col + d))
            {
                d = 0;  // never drift into a gate tile
            }
            target[i] = signals_[i].col + d;
        }

        // cancel steered moves that overload a target column (capacity 2)
        for (bool changed = true; changed;)
        {
            changed = false;
            std::map<int, unsigned> load;
            for (std::size_t i = 0; i < n; ++i)
            {
                ++load[target[i]];
            }
            for (std::size_t i = 0; i < n; ++i)
            {
                if (!fixed[i] && target[i] != signals_[i].col && load[target[i]] > 2)
                {
                    target[i] = signals_[i].col;  // hold instead
                    changed = true;
                    break;
                }
            }
        }
        {
            std::map<int, unsigned> load;
            for (std::size_t i = 0; i < n; ++i)
            {
                ++load[target[i]];
            }
            for (const auto& [c, l] : load)
            {
                static_cast<void>(c);
                if (l > 2)
                {
                    throw std::logic_error{"scalable_physical_design: unresolvable congestion"};
                }
            }
        }

        // materialize moves
        for (std::size_t i = 0; i < n; ++i)
        {
            auto& sig = signals_[i];
            if (const auto gs = gate_sinks.find(i); gs != gate_sinks.end())
            {
                connect(sig, gs->second.first, gs->second.second);
                sig.head = gs->second.first;
                sig.col = gs->second.second;
                continue;
            }
            ProtoOcc wire;
            wire.occ.type = GateType::buf;
            wire.col = target[i];
            wire.row = y + 1;
            const auto wi = occupants_.size();
            occupants_.push_back(wire);
            connect(sig, wi, target[i]);
            sig.head = wi;
            sig.col = target[i];
        }
        ++row_;
    }

    void place_unary(NodeId id)
    {
        const auto fi = network_.node(id).fanin[0];
        const auto si = take_signal(fi);
        // gates are only placed when no tile is shared anywhere, so that the
        // forced splits can never collide with the fresh gate tile
        unsigned guard = 0;
        while (has_shared_pair())
        {
            check_stop();
            if (++guard > 1000)
            {
                throw std::logic_error{"scalable_physical_design: de-sharing diverged"};
            }
            advance(desharing_steer(), {});
        }
        ProtoOcc p;
        p.occ.type = network_.type_of(id);
        p.occ.node = id;
        p.col = signals_[si].col;
        p.row = row_ + 1;
        const auto gate_idx = occupants_.size();
        occupants_.push_back(p);
        advance({}, {{si, {gate_idx, signals_[si].col}}});
        signals_[si].node = id;  // the signal now carries the gate's output

        if (network_.type_of(id) == GateType::fanout)
        {
            // duplicate the signal; both now share the fan-out tile and the
            // next advance() forces them onto the two output ports
            signals_.push_back(Signal{id, signals_[si].col, signals_[si].head});
        }
    }

    void place_binary(NodeId id)
    {
        const auto& node = network_.node(id);
        const auto ia = take_signal(node.fanin[0]);
        std::size_t ib = signals_.size();
        for (std::size_t i = 0; i < signals_.size(); ++i)
        {
            if (i != ia && signals_[i].node == node.fanin[1])
            {
                ib = i;
                break;
            }
        }
        if (ib == signals_.size())
        {
            throw std::logic_error{"scalable_physical_design: missing second fan-in"};
        }

        // steer the two fan-ins until they sit in adjacent columns
        unsigned guard = 0;
        while (std::abs(signals_[ia].col - signals_[ib].col) != 1 || has_shared_pair())
        {
            check_stop();
            if (++guard > 10000)
            {
                throw std::logic_error{"scalable_physical_design: convergence diverged"};
            }
            // de-share steering for bystanders, convergence steering on top
            auto steer = desharing_steer();
            if (signals_[ia].col == signals_[ib].col)
            {
                // sharing a tile: the forced split separates them
                steer.erase(ia);
                steer.erase(ib);
            }
            else if (signals_[ia].col < signals_[ib].col)
            {
                steer[ia] = 1;
                steer[ib] = -1;
            }
            else
            {
                steer[ia] = -1;
                steer[ib] = 1;
            }
            advance(steer, {});
        }

        const int xl = std::min(signals_[ia].col, signals_[ib].col);
        const bool odd = (row_ & 1) != 0;
        const int gx = odd ? xl + 1 : xl;

        ProtoOcc p;
        p.occ.type = network_.type_of(id);
        p.occ.node = id;
        p.col = gx;
        p.row = row_ + 1;
        const auto gate_idx = occupants_.size();
        occupants_.push_back(p);
        advance({}, {{ia, {gate_idx, gx}}, {ib, {gate_idx, gx}}});

        // both fan-in signals merged into the gate; keep one as the output
        const auto out_node = id;
        const auto hi = std::max(ia, ib);
        const auto lo = std::min(ia, ib);
        signals_.erase(signals_.begin() + static_cast<long>(hi));
        signals_.erase(signals_.begin() + static_cast<long>(lo));
        signals_.push_back(Signal{out_node, gx, gate_idx});
    }

    [[nodiscard]] GateLevelLayout materialize() const
    {
        int min_col = 0;
        int max_col = 0;
        int max_row = 0;
        for (const auto& p : occupants_)
        {
            min_col = std::min(min_col, p.col);
            max_col = std::max(max_col, p.col);
            max_row = std::max(max_row, p.row);
        }
        const int shift = -min_col;
        GateLevelLayout layout{static_cast<unsigned>(max_col - min_col + 1),
                               static_cast<unsigned>(max_row + 1), ClockingScheme::row_columnar};
        std::string err;
        for (const auto& p : occupants_)
        {
            if (!layout.add_occupant(HexCoord{p.col + shift, p.row}, p.occ, &err))
            {
                throw std::logic_error{"scalable_physical_design: materialize failed: " + err};
            }
        }
        return layout;
    }

    /// Polled at every loop head; bodies between polls only mutate the
    /// marcher's own state, so a stop never leaves shared data half-updated.
    void check_stop() const
    {
        if (run_.stopped())
        {
            throw StopRequested{};
        }
    }

    const LogicNetwork& network_;
    core::RunBudget run_;
    std::vector<ProtoOcc> occupants_;
    std::vector<Signal> signals_;
    int row_{0};
};

/// True when some occupied tile of \p layout, translated by (dx, dy),
/// collides with a defect.
bool translated_layout_collides(const GateLevelLayout& layout, int dx, int dy,
                                const phys::DefectSurface& defects)
{
    for (const auto& t : layout.all_tiles())
    {
        if (!layout.occupants(t).empty() && tile_blocked(HexCoord{t.x + dx, t.y + dy}, defects))
        {
            return true;
        }
    }
    return false;
}

/// Rebuilds \p layout translated by (dx, dy) tiles. dy must be a multiple
/// of 4: row parity (the odd-row half-tile shift that port geometry depends
/// on) and the 4-phase columnar clock assignment are then both invariant,
/// so the translated layout is functionally identical.
GateLevelLayout translate_layout(const GateLevelLayout& layout, int dx, int dy)
{
    assert(dy % 4 == 0);
    GateLevelLayout shifted{layout.width() + static_cast<unsigned>(dx),
                            layout.height() + static_cast<unsigned>(dy),
                            ClockingScheme::row_columnar};
    std::string err;
    for (const auto& t : layout.all_tiles())
    {
        for (const auto& occ : layout.occupants(t))
        {
            if (!shifted.add_occupant(HexCoord{t.x + dx, t.y + dy}, occ, &err))
            {
                throw std::logic_error{"scalable_physical_design: translate failed: " + err};
            }
        }
    }
    return shifted;
}

/// Searches tile translations (x free, y in multiples of 4) until the
/// layout clears every defect. Returns std::nullopt when no translation in
/// the search window works (or the run was stopped mid-search).
std::optional<GateLevelLayout> avoid_defects(const GateLevelLayout& layout,
                                             const phys::DefectSurface& defects,
                                             const core::RunBudget& run, ScalablePDStats* stats)
{
    // window: sliding the layout by its own extent in either axis passes
    // every defect that can overlap it, so a wider search cannot help more
    const int max_dx = static_cast<int>(layout.width()) + 1;
    const int max_dy = static_cast<int>(layout.height()) + 4;
    for (int dy = 0; dy <= max_dy; dy += 4)
    {
        for (int dx = 0; dx <= max_dx; ++dx)
        {
            if (run.stopped())
            {
                return std::nullopt;
            }
            if (!translated_layout_collides(layout, dx, dy, defects))
            {
                if (stats != nullptr)
                {
                    stats->defect_shift_x = static_cast<unsigned>(dx);
                    stats->defect_shift_y = static_cast<unsigned>(dy);
                }
                return dx == 0 && dy == 0 ? layout : translate_layout(layout, dx, dy);
            }
        }
    }
    return std::nullopt;
}

}  // namespace

std::optional<GateLevelLayout> scalable_physical_design(const logic::LogicNetwork& network,
                                                        const core::RunBudget& run,
                                                        ScalablePDStats* stats,
                                                        const phys::DefectSurface* defects)
{
    std::string why;
    if (!network.is_bestagon_compliant(&why))
    {
        throw std::invalid_argument{"scalable_physical_design: network not Bestagon-compliant: " + why};
    }
    Marcher marcher{network, run};
    try
    {
        auto layout = marcher.run();
        if (defects == nullptr || defects->empty())
        {
            return layout;
        }
        auto cleared = avoid_defects(layout, *defects, run, stats);
        if (!cleared.has_value() && stats != nullptr)
        {
            if (run.stopped())
            {
                stats->cancelled = true;
                stats->message = "cancelled";
            }
            else
            {
                stats->message = "no defect-free translation of the marched layout exists";
            }
        }
        return cleared;
    }
    catch (const StopRequested&)
    {
        if (stats != nullptr)
        {
            stats->cancelled = true;
            stats->message = run.token.stop_requested() ? "cancelled" : "deadline expired";
        }
        return std::nullopt;
    }
    catch (const std::logic_error& e)
    {
        // the constructive march can fail on densely reconvergent networks
        // (crossing splits displace neighbors indefinitely); callers fall
        // back to exact physical design in that case
        if (stats != nullptr)
        {
            stats->message = e.what();
        }
        return std::nullopt;
    }
}

}  // namespace bestagon::layout
