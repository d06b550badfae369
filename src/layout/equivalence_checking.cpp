#include "layout/equivalence_checking.hpp"

#include "sat/encodings.hpp"
#include "sat/solver.hpp"

#include <stdexcept>
#include <unordered_map>
#include <vector>

namespace bestagon::layout
{

namespace
{

using logic::GateType;
using logic::LogicNetwork;
using sat::Lit;

/// Tseitin-encodes a network over the given PI literals; returns PO literals.
std::vector<Lit> encode_network(sat::Solver& solver, const LogicNetwork& net, const std::vector<Lit>& pi_lits)
{
    std::unordered_map<LogicNetwork::NodeId, Lit> lit_of;
    unsigned pi_index = 0;
    for (const auto id : net.topological_order())
    {
        const auto& node = net.node(id);
        switch (node.type)
        {
            case GateType::pi: lit_of[id] = pi_lits[pi_index++]; break;
            case GateType::const0:
            {
                const Lit l = sat::pos(solver.new_var());
                solver.add_clause(~l);
                lit_of[id] = l;
                break;
            }
            case GateType::const1:
            {
                const Lit l = sat::pos(solver.new_var());
                solver.add_clause(l);
                lit_of[id] = l;
                break;
            }
            case GateType::po:
            case GateType::buf:
            case GateType::fanout: lit_of[id] = lit_of.at(node.fanin[0]); break;
            case GateType::inv: lit_of[id] = ~lit_of.at(node.fanin[0]); break;
            case GateType::and2:
                lit_of[id] = sat::tseitin_and(solver, lit_of.at(node.fanin[0]), lit_of.at(node.fanin[1]));
                break;
            case GateType::or2:
                lit_of[id] = sat::tseitin_or(solver, lit_of.at(node.fanin[0]), lit_of.at(node.fanin[1]));
                break;
            case GateType::nand2:
                lit_of[id] = ~sat::tseitin_and(solver, lit_of.at(node.fanin[0]), lit_of.at(node.fanin[1]));
                break;
            case GateType::nor2:
                lit_of[id] = ~sat::tseitin_or(solver, lit_of.at(node.fanin[0]), lit_of.at(node.fanin[1]));
                break;
            case GateType::xor2:
                lit_of[id] = sat::tseitin_xor(solver, lit_of.at(node.fanin[0]), lit_of.at(node.fanin[1]));
                break;
            case GateType::xnor2:
                lit_of[id] = ~sat::tseitin_xor(solver, lit_of.at(node.fanin[0]), lit_of.at(node.fanin[1]));
                break;
            case GateType::maj3:
            {
                const Lit out = sat::pos(solver.new_var());
                sat::encode_maj(solver, out, lit_of.at(node.fanin[0]), lit_of.at(node.fanin[1]),
                                lit_of.at(node.fanin[2]));
                lit_of[id] = out;
                break;
            }
            case GateType::none: break;
        }
    }
    std::vector<Lit> pos;
    pos.reserve(net.pos().size());
    for (const auto po : net.pos())
    {
        pos.push_back(lit_of.at(po));
    }
    return pos;
}

}  // namespace

EquivalenceResult check_equivalence(const LogicNetwork& spec, const LogicNetwork& impl,
                                    EquivalenceStats* stats, const core::RunBudget& run)
{
    if (spec.num_pis() != impl.num_pis() || spec.num_pos() != impl.num_pos())
    {
        return EquivalenceResult::not_equivalent;
    }
    if (run.stopped())
    {
        return EquivalenceResult::unknown;
    }

    sat::Solver solver;
    std::vector<Lit> pis;
    pis.reserve(spec.num_pis());
    for (unsigned i = 0; i < spec.num_pis(); ++i)
    {
        pis.push_back(sat::pos(solver.new_var()));
    }

    const auto spec_pos = encode_network(solver, spec, pis);
    const auto impl_pos = encode_network(solver, impl, pis);

    // miter: at least one output pair differs
    std::vector<Lit> differences;
    differences.reserve(spec_pos.size());
    for (std::size_t i = 0; i < spec_pos.size(); ++i)
    {
        differences.push_back(sat::tseitin_xor(solver, spec_pos[i], impl_pos[i]));
    }
    solver.add_clause(differences);

    const auto result = solver.solve({}, {.run = run});
    if (stats != nullptr)
    {
        stats->conflicts = solver.stats().conflicts;
        if (result == sat::Result::satisfiable)
        {
            stats->counterexample = 0;
            for (unsigned i = 0; i < pis.size(); ++i)
            {
                if (solver.model_value(pis[i]))
                {
                    stats->counterexample |= 1ULL << i;
                }
            }
        }
    }
    switch (result)
    {
        case sat::Result::unsatisfiable: return EquivalenceResult::equivalent;
        case sat::Result::satisfiable: return EquivalenceResult::not_equivalent;
        case sat::Result::unknown: return EquivalenceResult::unknown;
    }
    return EquivalenceResult::unknown;
}

EquivalenceResult check_layout_equivalence(const LogicNetwork& spec, const GateLevelLayout& layout,
                                           EquivalenceStats* stats, const core::RunBudget& run)
{
    // Note: the layout was synthesized from a mapped network whose PI/PO node
    // ids the occupants carry, but functionally it must match ANY equivalent
    // specification with matching interface; extraction needs the mapped
    // network only to order PIs/POs, so a reference with the same interface
    // works as long as occupant node ids came from it. Here the caller passes
    // the same network used for physical design.
    // a layout that does not even realize the interface (e.g. an empty
    // layout, or one with missing I/O pins) cannot be equivalent; extraction
    // signals that by throwing rather than producing a partial network
    try
    {
        const auto extracted = layout.extract_network(spec);
        return check_equivalence(spec, extracted, stats, run);
    }
    catch (const std::exception&)
    {
        return EquivalenceResult::not_equivalent;
    }
}

}  // namespace bestagon::layout
