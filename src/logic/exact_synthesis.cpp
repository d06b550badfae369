#include "logic/exact_synthesis.hpp"

#include "sat/dimacs.hpp"
#include "sat/encodings.hpp"
#include "sat/proof.hpp"
#include "sat/proof_check.hpp"
#include "sat/solver.hpp"

#include <algorithm>
#include <cassert>
#include <charconv>
#include <iterator>
#include <stdexcept>
#include <vector>

namespace bestagon::logic
{

namespace
{

using sat::Lit;
using sat::Result;
using sat::neg;
using sat::pos;

/// One row of the committed NPN table: input count, canonical truth table
/// (hex, MSB first) and the implementation as encode_network text.
struct NpnTableRow
{
    unsigned num_vars;
    const char* function;
    const char* nodes;
};

constexpr NpnTableRow npn_table_rows[] = {
#include "logic/npn_table.inc"
};
static_assert(std::size(npn_table_rows) == 4 + 14 + 222,
              "one row per canonical NPN class of 2, 3 and 4 inputs");

/// Table order (the generator writes the rows in it; lookup bisects it):
/// by input count, then by truth table.
bool table_precedes(const TruthTable& a, const TruthTable& b)
{
    return a.num_vars() != b.num_vars() ? a.num_vars() < b.num_vars() : a.compare(b) < 0;
}

GateType gate_type_from_name(std::string_view name)
{
    for (auto t = static_cast<unsigned>(GateType::none); t <= static_cast<unsigned>(GateType::fanout); ++t)
    {
        const auto type = static_cast<GateType>(t);
        if (name == gate_type_name(type))
        {
            return type;
        }
    }
    throw std::invalid_argument{"decode_network: unknown gate type '" + std::string{name} + "'"};
}

/// One synthesis attempt with exactly \p r two-input steps. \p verdict
/// reports the solver outcome so callers can tell a refuted gate count
/// (minimality evidence) from a budget-exhausted one.
std::optional<LogicNetwork> synthesize_with_r_steps(const TruthTable& f, unsigned r,
                                                    std::int64_t conflict_budget, Result& verdict,
                                                    SynthesisStats* stats, bool certify_unsat)
{
    const unsigned n = f.num_vars();
    const unsigned num_patterns = 1U << n;
    const unsigned total = n + r;

    sat::Solver solver;
    sat::MemoryProofTracer tracer;
    if (certify_unsat)
    {
        solver.set_proof_tracer(&tracer);
    }

    // selection variables s[i][(j,k)] for steps i in [n, total)
    struct Selection
    {
        unsigned j, k;
        Lit lit;
    };
    std::vector<std::vector<Selection>> selections(r);
    for (unsigned i = n; i < total; ++i)
    {
        auto& sel = selections[i - n];
        for (unsigned j = 0; j < i; ++j)
        {
            for (unsigned k = j + 1; k < i; ++k)
            {
                sel.push_back({j, k, pos(solver.new_var())});
            }
        }
        std::vector<Lit> lits;
        lits.reserve(sel.size());
        for (const auto& s : sel)
        {
            lits.push_back(s.lit);
        }
        sat::add_exactly_one(solver, lits);
    }

    // operator bits: o1 = f(0,1), o2 = f(1,0), o3 = f(1,1); f(0,0) = 0
    std::vector<Lit> o1(r), o2(r), o3(r);
    for (unsigned i = 0; i < r; ++i)
    {
        o1[i] = pos(solver.new_var());
        o2[i] = pos(solver.new_var());
        o3[i] = pos(solver.new_var());
        solver.add_clause(o1[i], o2[i], o3[i]);        // not const 0
        solver.add_clause(o1[i], ~o2[i], ~o3[i]);      // not projection on first operand
        solver.add_clause(~o1[i], o2[i], ~o3[i]);      // not projection on second operand
    }

    // simulation variables x[i][t] for steps; operand helpers a[i][t], b[i][t]
    std::vector<std::vector<Lit>> x(r), av(r), bv(r);
    for (unsigned i = 0; i < r; ++i)
    {
        x[i].resize(num_patterns);
        av[i].resize(num_patterns);
        bv[i].resize(num_patterns);
        for (unsigned t = 0; t < num_patterns; ++t)
        {
            x[i][t] = pos(solver.new_var());
            av[i][t] = pos(solver.new_var());
            bv[i][t] = pos(solver.new_var());
        }
    }

    const auto input_value = [&](unsigned idx, unsigned t) -> bool { return ((t >> idx) & 1U) != 0; };

    for (unsigned i = 0; i < r; ++i)
    {
        for (const auto& s : selections[i])
        {
            for (unsigned t = 0; t < num_patterns; ++t)
            {
                // link operand a to operand j's value under selection s
                if (s.j < n)
                {
                    solver.add_clause(~s.lit, input_value(s.j, t) ? av[i][t] : ~av[i][t]);
                }
                else
                {
                    solver.add_clause(~s.lit, ~av[i][t], x[s.j - n][t]);
                    solver.add_clause(~s.lit, av[i][t], ~x[s.j - n][t]);
                }
                if (s.k < n)
                {
                    solver.add_clause(~s.lit, input_value(s.k, t) ? bv[i][t] : ~bv[i][t]);
                }
                else
                {
                    solver.add_clause(~s.lit, ~bv[i][t], x[s.k - n][t]);
                    solver.add_clause(~s.lit, bv[i][t], ~x[s.k - n][t]);
                }
            }
        }
        for (unsigned t = 0; t < num_patterns; ++t)
        {
            const Lit a = av[i][t], b = bv[i][t], xi = x[i][t];
            solver.add_clause(a, b, ~xi);                       // f(0,0) = 0
            solver.add_clause(std::vector<Lit>{a, ~b, ~xi, o1[i]});
            solver.add_clause(std::vector<Lit>{a, ~b, xi, ~o1[i]});
            solver.add_clause(std::vector<Lit>{~a, b, ~xi, o2[i]});
            solver.add_clause(std::vector<Lit>{~a, b, xi, ~o2[i]});
            solver.add_clause(std::vector<Lit>{~a, ~b, ~xi, o3[i]});
            solver.add_clause(std::vector<Lit>{~a, ~b, xi, ~o3[i]});
        }
    }

    // output: x[r-1][t] == f(t) ^ out_complement
    const Lit c = pos(solver.new_var());
    for (unsigned t = 0; t < num_patterns; ++t)
    {
        const Lit xo = x[r - 1][t];
        if (f.get_bit(t))
        {
            solver.add_clause(xo, c);
            solver.add_clause(~xo, ~c);
        }
        else
        {
            solver.add_clause(xo, ~c);
            solver.add_clause(~xo, c);
        }
    }

    verdict = solver.solve({}, {.conflicts = conflict_budget});
    if (verdict != Result::satisfiable)
    {
        if (verdict == Result::unsatisfiable && certify_unsat && stats != nullptr)
        {
            const auto check =
                sat::check_drat_proof(sat::to_cnf(solver.root_clauses()), tracer.proof());
            if (check.valid)
            {
                ++stats->proofs_checked;
            }
            else
            {
                ++stats->proof_failures;
            }
        }
        return std::nullopt;
    }

    // decode the model into a network
    LogicNetwork net;
    std::vector<LogicNetwork::NodeId> signal(total);
    for (unsigned i = 0; i < n; ++i)
    {
        signal[i] = net.create_pi("x" + std::to_string(i));
    }
    for (unsigned i = 0; i < r; ++i)
    {
        unsigned j = 0, k = 0;
        for (const auto& s : selections[i])
        {
            if (solver.model_value(s.lit))
            {
                j = s.j;
                k = s.k;
                break;
            }
        }
        const bool b1 = solver.model_value(o1[i]);
        const bool b2 = solver.model_value(o2[i]);
        const bool b3 = solver.model_value(o3[i]);
        const auto sa = signal[j];
        const auto sb = signal[k];
        LogicNetwork::NodeId out;
        if (!b1 && !b2 && b3)
        {
            out = net.create_and(sa, sb);
        }
        else if (b1 && b2 && !b3)
        {
            out = net.create_xor(sa, sb);
        }
        else if (b1 && b2 && b3)
        {
            out = net.create_or(sa, sb);
        }
        else if (!b1 && b2 && !b3)
        {
            out = net.create_and(sa, net.create_not(sb));  // a & ~b
        }
        else if (b1 && !b2 && !b3)
        {
            out = net.create_and(net.create_not(sa), sb);  // ~a & b
        }
        else
        {
            return std::nullopt;  // excluded by constraints; defensive
        }
        signal[n + i] = out;
    }
    auto root = signal[total - 1];
    if (solver.model_value(c))
    {
        root = net.create_not(root);
    }
    net.create_po(root, "f");
    return net;
}

}  // namespace

std::optional<LogicNetwork> exact_synthesize(const TruthTable& f, unsigned max_gates,
                                             std::int64_t conflict_budget, SynthesisStats* stats,
                                             bool certify_unsat)
{
    const unsigned n = f.num_vars();

    // trivial cases first
    if (f.is_const0() || f.is_const1())
    {
        LogicNetwork net;
        for (unsigned i = 0; i < n; ++i)
        {
            net.create_pi("x" + std::to_string(i));
        }
        net.create_po(net.create_const(f.is_const1()), "f");
        return net;
    }
    unsigned var = 0;
    bool complemented = false;
    if (f.is_projection(var, complemented))
    {
        LogicNetwork net;
        std::vector<LogicNetwork::NodeId> inputs;
        for (unsigned i = 0; i < n; ++i)
        {
            inputs.push_back(net.create_pi("x" + std::to_string(i)));
        }
        const auto sig = complemented ? net.create_not(inputs[var]) : net.create_buf(inputs[var]);
        net.create_po(sig, "f");
        return net;
    }

    for (unsigned r = 1; r <= max_gates; ++r)
    {
        auto verdict = Result::unknown;
        if (auto net = synthesize_with_r_steps(f, r, conflict_budget, verdict, stats, certify_unsat))
        {
            return net;
        }
        if (stats != nullptr)
        {
            if (verdict == Result::unsatisfiable)
            {
                ++stats->unsat_steps;
            }
            else
            {
                ++stats->unknown_steps;
            }
        }
    }
    return std::nullopt;
}

std::string encode_network(const LogicNetwork& network)
{
    std::string text;
    for (LogicNetwork::NodeId id = 0; id < network.size(); ++id)
    {
        const auto& node = network.node(id);
        if (node.type == GateType::none)
        {
            throw std::invalid_argument{"encode_network: deleted node " + std::to_string(id)};
        }
        if (node.name.find_first_of(" \t\n(=") != std::string::npos)
        {
            throw std::invalid_argument{"encode_network: unencodable name '" + node.name + "'"};
        }
        if (id > 0)
        {
            text += ' ';
        }
        text += gate_type_name(node.type);
        for (unsigned i = 0; i < gate_arity(node.type); ++i)
        {
            text += i == 0 ? '(' : ',';
            text += std::to_string(node.fanin[i]);
        }
        if (gate_arity(node.type) > 0)
        {
            text += ')';
        }
        if (!node.name.empty())
        {
            text += '=';
            text += node.name;
        }
    }
    return text;
}

LogicNetwork decode_network(std::string_view text)
{
    LogicNetwork net;
    const auto malformed = [&](std::string_view token) {
        return std::invalid_argument{"decode_network: malformed node '" + std::string{token} + "'"};
    };
    while (!text.empty())
    {
        const auto end = std::min(text.find(' '), text.size());
        const auto token = text.substr(0, end);
        text.remove_prefix(std::min(end + 1, text.size()));
        if (token.empty())
        {
            continue;
        }

        auto head = token;
        std::string name;
        if (const auto eq = head.find('='); eq != std::string_view::npos)
        {
            name = head.substr(eq + 1);
            head = head.substr(0, eq);
        }
        std::vector<LogicNetwork::NodeId> fanins;
        if (const auto open = head.find('('); open != std::string_view::npos)
        {
            if (head.back() != ')')
            {
                throw malformed(token);
            }
            auto list = head.substr(open + 1, head.size() - open - 2);
            head = head.substr(0, open);
            while (true)
            {
                LogicNetwork::NodeId fanin = 0;
                const auto [ptr, ec] = std::from_chars(list.data(), list.data() + list.size(), fanin);
                if (ec != std::errc{} || fanin >= net.size())
                {
                    throw malformed(token);
                }
                fanins.push_back(fanin);
                list.remove_prefix(static_cast<std::size_t>(ptr - list.data()));
                if (list.empty())
                {
                    break;
                }
                if (list.front() != ',')
                {
                    throw malformed(token);
                }
                list.remove_prefix(1);
            }
        }

        const auto type = gate_type_from_name(head);
        const bool nameable = type == GateType::pi || type == GateType::po;
        if (type == GateType::none || fanins.size() != gate_arity(type) || (!name.empty() && !nameable))
        {
            throw malformed(token);
        }
        const auto expected = static_cast<LogicNetwork::NodeId>(net.size());
        LogicNetwork::NodeId id = 0;
        switch (type)
        {
            case GateType::pi: id = net.create_pi(std::move(name)); break;
            case GateType::po: id = net.create_po(fanins[0], std::move(name)); break;
            case GateType::const0:
            case GateType::const1: id = net.create_const(type == GateType::const1); break;
            default: id = net.create_gate(type, fanins); break;
        }
        if (id != expected)  // a repeated constant
        {
            throw malformed(token);
        }
    }
    return net;
}

const std::vector<NpnTableEntry>& npn_table()
{
    static const std::vector<NpnTableEntry> table = [] {
        std::vector<NpnTableEntry> entries;
        entries.reserve(std::size(npn_table_rows));
        for (const auto& row : npn_table_rows)
        {
            entries.push_back({TruthTable::from_hex(row.num_vars, row.function), decode_network(row.nodes)});
        }
        return entries;
    }();
    return table;
}

const LogicNetwork* NpnDatabase::lookup(const TruthTable& canonical)
{
    if (canonical.num_vars() > npn_table_max_inputs)
    {
        throw std::invalid_argument{"NpnDatabase::lookup: the NPN table covers at most " +
                                    std::to_string(npn_table_max_inputs) + " inputs"};
    }
    if (const auto it = served_.find(canonical); it != served_.end())
    {
        return it->second;
    }
    const auto& table = npn_table();
    const auto it = std::lower_bound(
        table.begin(), table.end(), canonical,
        [](const NpnTableEntry& entry, const TruthTable& f) { return table_precedes(entry.canonical, f); });
    const LogicNetwork* impl = it != table.end() && it->canonical == canonical ? &it->implementation : nullptr;
    if (impl == nullptr)
    {
        ++failures_;
    }
    served_.emplace(canonical, impl);
    return impl;
}

std::size_t count_two_input_gates(const LogicNetwork& network)
{
    std::size_t count = 0;
    for (const auto id : network.topological_order())
    {
        if (gate_arity(network.type_of(id)) == 2)
        {
            ++count;
        }
    }
    return count;
}

}  // namespace bestagon::logic
