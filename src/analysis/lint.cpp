#include "analysis/lint.hpp"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <unordered_set>

namespace bestagon::analysis
{

namespace
{

// ---------------------------------------------------------------------------
// token-stream helpers
// ---------------------------------------------------------------------------

[[nodiscard]] bool is_ident(const Token& t, std::string_view text) noexcept
{
    return t.kind == TokenKind::identifier && t.text == text;
}

[[nodiscard]] bool is_punct(const Token& t, std::string_view text) noexcept
{
    return t.kind == TokenKind::punct && t.text == text;
}

/// Parameter types that carry a run budget; C1 checks that engine loops poll
/// parameters of these types.
[[nodiscard]] bool is_budget_type(const Token& t) noexcept
{
    return is_ident(t, "RunBudget") || is_ident(t, "StopToken") || is_ident(t, "Deadline") ||
           is_ident(t, "SolveLimits");
}

/// Index of the token matching the opener at \p open (which must be "(",
/// "[" or "{"); tokens.size() when unbalanced.
[[nodiscard]] std::size_t matching_close(const std::vector<Token>& tokens, std::size_t open)
{
    const std::string_view opener = tokens[open].text;
    const std::string_view closer = opener == "(" ? ")" : (opener == "[" ? "]" : "}");
    int depth = 0;
    for (std::size_t i = open; i < tokens.size(); ++i)
    {
        if (is_punct(tokens[i], opener))
        {
            ++depth;
        }
        else if (is_punct(tokens[i], closer))
        {
            if (--depth == 0)
            {
                return i;
            }
        }
    }
    return tokens.size();
}

/// Skips a template argument list starting at \p i (which must point at
/// "<"); returns the index just past the matching ">". Treats ">>" as two
/// closes. Gives up (returns \p i) when no close is found — callers then
/// fall back to treating "<" as a comparison.
[[nodiscard]] std::size_t skip_template_args(const std::vector<Token>& tokens, std::size_t i)
{
    int depth = 0;
    for (std::size_t j = i; j < tokens.size(); ++j)
    {
        const auto& t = tokens[j];
        if (is_punct(t, "<"))
        {
            ++depth;
        }
        else if (is_punct(t, ">"))
        {
            if (--depth == 0)
            {
                return j + 1;
            }
        }
        else if (is_punct(t, ">>"))
        {
            depth -= 2;
            if (depth <= 0)
            {
                return j + 1;
            }
        }
        else if (is_punct(t, ";") || is_punct(t, "{"))
        {
            return i;  // statement ended before the list closed: not a template
        }
    }
    return i;
}

[[nodiscard]] std::string normalize_path(std::string_view path)
{
    std::string out{path};
    std::replace(out.begin(), out.end(), '\\', '/');
    return out;
}

[[nodiscard]] bool path_in_dirs(std::string_view normalized_path,
                                const std::vector<std::string>& dirs)
{
    return std::any_of(dirs.begin(), dirs.end(), [&](const std::string& d) {
        return normalized_path.find(d) != std::string::npos;
    });
}

// calls whose presence alone does not make a loop an "engine" loop
const std::unordered_set<std::string>& trivial_calls()
{
    static const std::unordered_set<std::string> names{
        "size",    "empty",  "push_back", "pop_back", "emplace_back", "emplace", "reserve",
        "clear",   "begin",  "end",       "cbegin",   "cend",         "rbegin",  "rend",
        "front",   "back",   "at",        "count",    "find",         "contains", "insert",
        "erase",   "data",   "min",       "max",      "abs",          "swap",    "move",
        "get",     "first",  "second",    "to_string", "c_str",       "str",     "assign",
        "resize",  "test",   "set",       "reset",    "top",          "pop",     "push",
        "push_front"};
    return names;
}

// callee names after which every live arena handle must be considered
// dangling (allocation may grow the arena vector; GC relocates clauses)
const std::unordered_set<std::string>& may_allocate_calls()
{
    static const std::unordered_set<std::string> names{
        "alloc",        "garbage_collect", "add_clause",  "add_learnt_clause",
        "learn_clause", "reduce_db",       "new_clause",  "attach_clause",
        "record_learnt"};
    return names;
}

/// Calls that may grow or repack a watch pool (sat::WatchPool), moving
/// every list: a pointer into a list dangles after them.
const std::unordered_set<std::string>& pool_growing_calls()
{
    static const std::unordered_set<std::string> names{"push", "add_lists"};
    return names;
}

struct Checker
{
    const std::vector<Token>& tokens;
    const LintOptions& options;
    FileReport& report;
    std::string norm_path;

    void diag(CheckId id, unsigned line, std::string message)
    {
        report.diagnostics.push_back({id, report.file, line, std::move(message), false});
    }

    // -- D1: banned nondeterministic sources --------------------------------

    void check_banned_rng()
    {
        for (std::size_t i = 0; i < tokens.size(); ++i)
        {
            const auto& t = tokens[i];
            if (t.kind != TokenKind::identifier)
            {
                continue;
            }
            if (t.text == "random_device")
            {
                diag(CheckId::d_banned_rng, t.line,
                     "std::random_device in result-affecting code: results must be "
                     "reproducible from an explicit seed (use testing::Rng / derive_seed)");
            }
            else if (t.text == "system_clock")
            {
                diag(CheckId::d_banned_rng, t.line,
                     "system_clock in result-affecting code: wall-clock values are "
                     "nondeterministic (seed explicitly; budgets use steady_clock "
                     "Deadlines)");
            }
            else if ((t.text == "rand" || t.text == "srand") && i + 1 < tokens.size() &&
                     is_punct(tokens[i + 1], "(") &&
                     (i == 0 || (!is_punct(tokens[i - 1], ".") && !is_punct(tokens[i - 1], "->"))))
            {
                diag(CheckId::d_banned_rng, t.line,
                     "std::" + t.text +
                         " in result-affecting code: global hidden-state RNG is "
                         "nondeterministic under threads (use testing::Rng / derive_seed)");
            }
        }
    }

    // -- D2: traversal of unordered containers ------------------------------

    void check_unordered_iteration()
    {
        // pass 1: names of variables/members declared with an unordered type
        std::unordered_set<std::string> unordered_vars;
        for (std::size_t i = 0; i < tokens.size(); ++i)
        {
            const auto& t = tokens[i];
            if (t.kind != TokenKind::identifier ||
                (t.text != "unordered_map" && t.text != "unordered_set" &&
                 t.text != "unordered_multimap" && t.text != "unordered_multiset"))
            {
                continue;
            }
            std::size_t j = i + 1;
            if (j < tokens.size() && is_punct(tokens[j], "<"))
            {
                const std::size_t past = skip_template_args(tokens, j);
                if (past == j)
                {
                    continue;
                }
                j = past;
            }
            // skip reference/pointer declarators
            while (j < tokens.size() &&
                   (is_punct(tokens[j], "&") || is_punct(tokens[j], "*") ||
                    is_ident(tokens[j], "const")))
            {
                ++j;
            }
            if (j < tokens.size() && tokens[j].kind == TokenKind::identifier)
            {
                // a following "(" means a function declaration returning the
                // container — the call site, not this name, is the variable
                if (j + 1 < tokens.size() && is_punct(tokens[j + 1], "("))
                {
                    continue;
                }
                unordered_vars.insert(tokens[j].text);
            }
        }
        if (unordered_vars.empty())
        {
            return;
        }

        // pass 2a: range-for over an unordered variable
        for (std::size_t i = 0; i + 1 < tokens.size(); ++i)
        {
            if (!is_ident(tokens[i], "for") || !is_punct(tokens[i + 1], "("))
            {
                continue;
            }
            const std::size_t close = matching_close(tokens, i + 1);
            std::size_t colon = tokens.size();
            int inner = 0;
            for (std::size_t j = i + 2; j < close; ++j)
            {
                if (is_punct(tokens[j], "(") || is_punct(tokens[j], "[") ||
                    is_punct(tokens[j], "{"))
                {
                    ++inner;
                }
                else if (is_punct(tokens[j], ")") || is_punct(tokens[j], "]") ||
                         is_punct(tokens[j], "}"))
                {
                    --inner;
                }
                else if (inner == 0 && is_punct(tokens[j], ":"))
                {
                    colon = j;
                    break;
                }
                else if (inner == 0 && is_punct(tokens[j], ";"))
                {
                    break;  // classic for, not a range-for
                }
            }
            if (colon == tokens.size())
            {
                continue;
            }
            for (std::size_t j = colon + 1; j < close; ++j)
            {
                if (tokens[j].kind == TokenKind::identifier &&
                    unordered_vars.count(tokens[j].text) != 0)
                {
                    diag(CheckId::d_unordered_iter, tokens[i].line,
                         "range-for over unordered container '" + tokens[j].text +
                             "': iteration order is implementation-defined and can leak "
                             "into results (iterate a sorted snapshot, or waive with "
                             "ordered-ok if order provably cannot reach any output)");
                    break;
                }
            }
        }

        // pass 2b: iterator traversal via .begin()/.cbegin()/.rbegin(). A
        // begin()/end() pair passed together to a constructor or algorithm
        // (std::vector v(m.begin(), m.end()), std::copy, ...) is the
        // sanctioned snapshot remediation, not a traversal — skip it.
        for (std::size_t i = 0; i + 3 < tokens.size(); ++i)
        {
            if (tokens[i].kind == TokenKind::identifier &&
                unordered_vars.count(tokens[i].text) != 0 &&
                (is_punct(tokens[i + 1], ".") || is_punct(tokens[i + 1], "->")) &&
                (is_ident(tokens[i + 2], "begin") || is_ident(tokens[i + 2], "cbegin") ||
                 is_ident(tokens[i + 2], "rbegin")) &&
                is_punct(tokens[i + 3], "("))
            {
                const bool snapshot_pair =
                    i + 9 < tokens.size() && is_punct(tokens[i + 4], ")") &&
                    is_punct(tokens[i + 5], ",") &&
                    tokens[i + 6].kind == TokenKind::identifier &&
                    tokens[i + 6].text == tokens[i].text &&
                    (is_punct(tokens[i + 7], ".") || is_punct(tokens[i + 7], "->")) &&
                    (is_ident(tokens[i + 8], "end") || is_ident(tokens[i + 8], "cend") ||
                     is_ident(tokens[i + 8], "rend")) &&
                    is_punct(tokens[i + 9], "(");
                if (snapshot_pair)
                {
                    continue;
                }
                diag(CheckId::d_unordered_iter, tokens[i].line,
                     "iterator traversal of unordered container '" + tokens[i].text +
                         "': iteration order is implementation-defined and can leak into "
                         "results (iterate a sorted snapshot, or waive with ordered-ok)");
            }
        }
    }

    // -- C1: engine loops must poll the budget ------------------------------

    struct Loop
    {
        std::size_t header_begin;  ///< first token inside the loop parens
        std::size_t header_end;    ///< one past the last header token
        std::size_t body_begin;
        std::size_t body_end;  ///< one past the last body token
        unsigned line;
    };

    /// Collects for/while/do loops inside [begin, end).
    [[nodiscard]] std::vector<Loop> loops_in(std::size_t begin, std::size_t end) const
    {
        std::vector<Loop> out;
        for (std::size_t i = begin; i < end; ++i)
        {
            const bool is_for = is_ident(tokens[i], "for");
            const bool is_while = is_ident(tokens[i], "while");
            const bool is_do = is_ident(tokens[i], "do");
            if (!is_for && !is_while && !is_do)
            {
                continue;
            }
            if (is_do)
            {
                if (i + 1 >= end || !is_punct(tokens[i + 1], "{"))
                {
                    continue;
                }
                const std::size_t body_close = matching_close(tokens, i + 1);
                // trailing while-condition belongs to the loop header
                std::size_t hb = body_close;
                std::size_t he = body_close;
                if (body_close + 2 < tokens.size() && is_ident(tokens[body_close + 1], "while") &&
                    is_punct(tokens[body_close + 2], "("))
                {
                    hb = body_close + 3;
                    he = matching_close(tokens, body_close + 2);
                }
                out.push_back({hb, he, i + 2, body_close, tokens[i].line});
                continue;
            }
            if (i + 1 >= end || !is_punct(tokens[i + 1], "("))
            {
                continue;  // e.g. the 'while' of a do-while, handled above
            }
            const std::size_t header_close = matching_close(tokens, i + 1);
            if (header_close >= end)
            {
                continue;
            }
            std::size_t body_begin = header_close + 1;
            std::size_t body_end;
            if (body_begin < end && is_punct(tokens[body_begin], "{"))
            {
                body_end = matching_close(tokens, body_begin);
                ++body_begin;
            }
            else
            {
                // single-statement body: through the terminating ';'
                body_end = body_begin;
                int depth = 0;
                while (body_end < end)
                {
                    const auto& t = tokens[body_end];
                    if (is_punct(t, "(") || is_punct(t, "{") || is_punct(t, "["))
                    {
                        ++depth;
                    }
                    else if (is_punct(t, ")") || is_punct(t, "}") || is_punct(t, "]"))
                    {
                        --depth;
                    }
                    else if (depth == 0 && is_punct(t, ";"))
                    {
                        break;
                    }
                    ++body_end;
                }
            }
            out.push_back({i + 2, header_close, body_begin, body_end, tokens[i].line});
        }
        return out;
    }

    [[nodiscard]] bool range_mentions(std::size_t begin, std::size_t end,
                                      const std::vector<std::string>& names) const
    {
        for (std::size_t i = begin; i < end && i < tokens.size(); ++i)
        {
            const auto& t = tokens[i];
            if (t.kind != TokenKind::identifier)
            {
                continue;
            }
            if (t.text == "stopped" || t.text == "stop_requested" || t.text == "expired" ||
                t.text == "budget_exhausted")
            {
                return true;
            }
            for (const auto& n : names)
            {
                if (t.text == n)
                {
                    return true;
                }
            }
        }
        return false;
    }

    [[nodiscard]] bool is_engine_loop(const Loop& loop) const
    {
        bool has_nontrivial_call = false;
        bool has_nested_loop = false;
        for (std::size_t i = loop.body_begin; i < loop.body_end && i + 1 < tokens.size(); ++i)
        {
            const auto& t = tokens[i];
            if (t.kind != TokenKind::identifier)
            {
                continue;
            }
            if (t.text == "for" || t.text == "while" || t.text == "do")
            {
                has_nested_loop = true;
            }
            if (is_punct(tokens[i + 1], "(") && trivial_calls().count(t.text) == 0 &&
                t.text != "if" && t.text != "for" && t.text != "while" && t.text != "switch" &&
                t.text != "return" && t.text != "sizeof" && t.text != "static_cast" &&
                t.text != "assert")
            {
                has_nontrivial_call = true;
            }
        }
        const std::size_t body_tokens = loop.body_end - loop.body_begin;
        return has_nontrivial_call &&
               (body_tokens >= options.engine_loop_min_tokens || has_nested_loop);
    }

    void check_cancellation_loops()
    {
        // locate parameter lists: map every token to its enclosing "(" so a
        // budget-typed token can find the list it belongs to
        std::vector<std::size_t> paren_stack;
        for (std::size_t i = 0; i < tokens.size(); ++i)
        {
            if (is_punct(tokens[i], "("))
            {
                paren_stack.push_back(i);
                continue;
            }
            if (is_punct(tokens[i], ")"))
            {
                if (!paren_stack.empty())
                {
                    paren_stack.pop_back();
                }
                continue;
            }
            if (paren_stack.empty() || !is_budget_type(tokens[i]))
            {
                continue;
            }
            const std::size_t list_open = paren_stack.back();
            const std::size_t list_close = matching_close(tokens, list_open);
            if (list_close >= tokens.size())
            {
                continue;
            }
            // function definition? allow a short trailer (const/noexcept/
            // override/trailing-return) between ')' and '{'
            std::size_t brace = tokens.size();
            for (std::size_t j = list_close + 1; j < std::min(list_close + 12, tokens.size());
                 ++j)
            {
                if (is_punct(tokens[j], "{"))
                {
                    brace = j;
                    break;
                }
                if (is_punct(tokens[j], ";") || is_punct(tokens[j], ",") ||
                    is_punct(tokens[j], ")") || is_punct(tokens[j], "="))
                {
                    break;  // declaration or parameter, not a definition
                }
            }
            if (brace == tokens.size())
            {
                continue;
            }
            const std::size_t body_close = matching_close(tokens, brace);

            // collect every budget-typed parameter name in this list
            std::vector<std::string> budget_names;
            for (std::size_t j = list_open + 1; j < list_close; ++j)
            {
                if (!is_budget_type(tokens[j]))
                {
                    continue;
                }
                std::size_t k = j + 1;
                while (k < list_close &&
                       (is_punct(tokens[k], "&") || is_punct(tokens[k], "*") ||
                        is_punct(tokens[k], "&&") || is_ident(tokens[k], "const")))
                {
                    ++k;
                }
                if (k < list_close && tokens[k].kind == TokenKind::identifier)
                {
                    budget_names.push_back(tokens[k].text);
                }
            }
            if (budget_names.empty())
            {
                continue;  // unnamed budget parameter: deliberately unmonitored
            }

            for (const auto& loop : loops_in(brace + 1, body_close))
            {
                if (!is_engine_loop(loop))
                {
                    continue;
                }
                if (range_mentions(loop.header_begin, loop.header_end, budget_names) ||
                    range_mentions(loop.body_begin, loop.body_end, budget_names))
                {
                    continue;
                }
                diag(CheckId::c_unpolled_loop, loop.line,
                     "loop does engine work but never polls budget parameter '" +
                         budget_names.front() +
                         "' (poll it, pass it to the callee, or waive with no-poll-ok if "
                         "the loop is provably short)");
            }
            // skip ahead: parameters inside this list are already handled
            i = list_close;
            paren_stack.pop_back();
        }
    }

    // -- C2: countdown stride resets must coexist with a 0-latch ------------

    void check_countdown_latch()
    {
        // latches are matched per countdown-variable name: a 0-latch on one
        // countdown must not excuse a never-latched countdown elsewhere in
        // the same file
        std::unordered_set<std::string> latched;
        std::vector<std::pair<unsigned, std::string>> resets;
        for (std::size_t i = 0; i + 2 < tokens.size(); ++i)
        {
            if (tokens[i].kind != TokenKind::identifier ||
                tokens[i].text.find("countdown") == std::string::npos ||
                !is_punct(tokens[i + 1], "="))
            {
                continue;
            }
            // classify the right-hand side (through ';'): a literal 0 is the
            // latch; any identifier mentioning "stride" is a reset
            bool is_zero = tokens[i + 2].kind == TokenKind::number &&
                           tokens[i + 2].text == "0" && i + 3 < tokens.size() &&
                           is_punct(tokens[i + 3], ";");
            bool from_stride = false;
            for (std::size_t j = i + 2; j < tokens.size() && !is_punct(tokens[j], ";"); ++j)
            {
                if (tokens[j].kind == TokenKind::identifier &&
                    tokens[j].text.find("stride") != std::string::npos)
                {
                    from_stride = true;
                    break;
                }
            }
            if (is_zero)
            {
                latched.insert(tokens[i].text);
            }
            else if (from_stride)
            {
                resets.emplace_back(tokens[i].line, tokens[i].text);
            }
        }
        for (const auto& [line, name] : resets)
        {
            if (latched.count(name) != 0)
            {
                continue;
            }
            diag(CheckId::c_latch_missing, line,
                 "'" + name +
                     "' is reset from its stride but never latched to 0: a fired time "
                     "budget would be forgotten on the next stride reset (keep the "
                     "countdown expired once the budget fires, or waive with latch-ok)");
        }
    }

    // -- A1: arena handles and watch-list pointers must not live across
    //        calls that may move what they point into --------------------

    void check_arena_refs()
    {
        struct Local
        {
            std::string name;
            int depth;
            unsigned decl_line;
            bool invalidated{false};
            bool reported{false};
            bool watch_list{false};  ///< points into a watch pool, not the clause arena
        };
        std::vector<Local> locals;
        int depth = 0;
        int paren_depth = 0;
        for (std::size_t i = 0; i < tokens.size(); ++i)
        {
            const auto& t = tokens[i];
            if (is_punct(t, "("))
            {
                ++paren_depth;
                continue;
            }
            if (is_punct(t, ")"))
            {
                paren_depth = std::max(0, paren_depth - 1);
                continue;
            }
            if (is_punct(t, "{"))
            {
                ++depth;
                continue;
            }
            if (is_punct(t, "}"))
            {
                --depth;
                locals.erase(std::remove_if(locals.begin(), locals.end(),
                                            [&](const Local& l) { return l.depth > depth; }),
                             locals.end());
                continue;
            }
            if (t.kind != TokenKind::identifier)
            {
                continue;
            }

            // declaration forms that yield an arena handle or a pointer into
            // a watch list
            std::string declared;
            bool watch_list = false;
            if (t.text == "Watcher" && i + 2 < tokens.size() &&
                (is_punct(tokens[i + 1], "*") || is_punct(tokens[i + 1], "&")) &&
                tokens[i + 2].kind == TokenKind::identifier &&
                !(i + 3 < tokens.size() && is_punct(tokens[i + 3], "(")))
            {
                declared = tokens[i + 2].text;
                watch_list = true;
            }
            else if (t.text == "ClauseView" || t.text == "ConstClauseView")
            {
                std::size_t j = i + 1;
                while (j < tokens.size() && (is_punct(tokens[j], "&") || is_punct(tokens[j], "*")))
                {
                    ++j;
                }
                if (j < tokens.size() && tokens[j].kind == TokenKind::identifier &&
                    !(j + 1 < tokens.size() && is_punct(tokens[j + 1], "(")))
                {
                    declared = tokens[j].text;
                }
            }
            else if (t.text == "Clause" && i + 2 < tokens.size() &&
                     (is_punct(tokens[i + 1], "*") || is_punct(tokens[i + 1], "&")) &&
                     tokens[i + 2].kind == TokenKind::identifier &&
                     !(i + 3 < tokens.size() && is_punct(tokens[i + 3], "(")))
            {
                declared = tokens[i + 2].text;
            }
            else if (t.text == "auto")
            {
                // [const] auto [&] name = ... .view(...) / .cview(...) ;
                std::size_t j = i + 1;
                while (j < tokens.size() && (is_punct(tokens[j], "&") || is_punct(tokens[j], "*")))
                {
                    ++j;
                }
                if (j + 1 < tokens.size() && tokens[j].kind == TokenKind::identifier &&
                    is_punct(tokens[j + 1], "="))
                {
                    for (std::size_t k = j + 2; k < tokens.size() && !is_punct(tokens[k], ";");
                         ++k)
                    {
                        const bool member = k > 0 && (is_punct(tokens[k - 1], ".") ||
                                                      is_punct(tokens[k - 1], "->"));
                        if (member && (is_ident(tokens[k], "view") || is_ident(tokens[k], "cview")))
                        {
                            declared = tokens[j].text;
                            break;
                        }
                        if (member && is_ident(tokens[k], "list"))
                        {
                            declared = tokens[j].text;
                            watch_list = true;
                            break;
                        }
                    }
                }
            }
            if (!declared.empty())
            {
                // a declaration inside parentheses is a parameter of the
                // function body about to open: scope it to that body, not to
                // the enclosing (namespace/class) brace level
                locals.push_back({declared, depth + (paren_depth > 0 ? 1 : 0), t.line, false,
                                  false, watch_list});
                continue;
            }

            // may-allocate call: every live arena handle is now dangling; a
            // pool-growing call: every live watch-list pointer is
            if (i + 1 < tokens.size() && is_punct(tokens[i + 1], "("))
            {
                const bool arena = may_allocate_calls().count(t.text) != 0;
                const bool pool = pool_growing_calls().count(t.text) != 0;
                if (arena || pool)
                {
                    for (auto& l : locals)
                    {
                        l.invalidated = l.invalidated || (l.watch_list ? pool : arena);
                    }
                    continue;
                }
            }

            // `name = ... .view(...)` / `.list(...)` re-fetches the handle
            if (i + 1 < tokens.size() && is_punct(tokens[i + 1], "="))
            {
                bool refetch = false;
                for (std::size_t k = i + 2; k < tokens.size() && !is_punct(tokens[k], ";"); ++k)
                {
                    refetch = refetch || ((is_ident(tokens[k], "view") || is_ident(tokens[k], "cview") ||
                                           is_ident(tokens[k], "list")) &&
                                          (is_punct(tokens[k - 1], ".") || is_punct(tokens[k - 1], "->")));
                }
                if (refetch)
                {
                    for (auto& l : locals)
                    {
                        if (l.name == t.text)
                        {
                            l.invalidated = false;
                        }
                    }
                    continue;
                }
            }

            // use of a dangling handle
            for (auto& l : locals)
            {
                if (!l.reported && l.invalidated && t.text == l.name)
                {
                    diag(CheckId::a_ref_across_alloc, t.line,
                         l.watch_list
                             ? "watch-list pointer '" + l.name + "' (declared line " +
                                   std::to_string(l.decl_line) +
                                   ") used after a call that may grow the watch pool — "
                                   "every list may have moved; re-fetch via list(lit) after "
                                   "the call, or waive with ref-ok"
                             : "arena handle '" + l.name + "' (declared line " +
                                   std::to_string(l.decl_line) +
                                   ") used after a call that may allocate or GC the clause "
                                   "arena — handles are invalidated by allocation; re-fetch "
                                   "via view(ref) after the call, or waive with ref-ok");
                    l.reported = true;
                }
            }
        }
    }
};

// ---------------------------------------------------------------------------
// waivers
// ---------------------------------------------------------------------------

const std::set<std::string>& known_tags()
{
    static const std::set<std::string> tags{"rng-ok", "ordered-ok", "no-poll-ok", "latch-ok",
                                            "ref-ok"};
    return tags;
}

/// Parses `bestagon-lint: tag(reason)` waivers out of the comment stream.
std::vector<Waiver> collect_waivers(const std::vector<Comment>& comments)
{
    std::vector<Waiver> out;
    constexpr std::string_view marker = "bestagon-lint:";
    for (const auto& c : comments)
    {
        // waivers live in plain '//' comments; '///', '//!', '/**' and '/*!'
        // are documentation and may mention the marker without waiving
        if (!c.text.empty() && (c.text.front() == '/' || c.text.front() == '!' ||
                                (c.block && c.text.front() == '*')))
        {
            continue;
        }
        const auto pos = c.text.find(marker);
        if (pos == std::string::npos)
        {
            continue;
        }
        std::string_view rest = std::string_view{c.text}.substr(pos + marker.size());
        while (!rest.empty() && (rest.front() == ' ' || rest.front() == '\t'))
        {
            rest.remove_prefix(1);
        }
        std::size_t tag_end = 0;
        while (tag_end < rest.size() &&
               (std::isalnum(static_cast<unsigned char>(rest[tag_end])) != 0 ||
                rest[tag_end] == '-' || rest[tag_end] == '_'))
        {
            ++tag_end;
        }
        Waiver w;
        w.tag = std::string{rest.substr(0, tag_end)};
        w.line = c.line;
        if (tag_end < rest.size() && rest[tag_end] == '(')
        {
            const auto close = rest.rfind(')');
            if (close != std::string::npos && close > tag_end)
            {
                std::string_view reason = rest.substr(tag_end + 1, close - tag_end - 1);
                while (!reason.empty() && (reason.front() == ' ' || reason.front() == '\t'))
                {
                    reason.remove_prefix(1);
                }
                while (!reason.empty() && (reason.back() == ' ' || reason.back() == '\t'))
                {
                    reason.remove_suffix(1);
                }
                w.reason = std::string{reason};
            }
        }
        out.push_back(std::move(w));
    }
    return out;
}

void apply_waivers(FileReport& report)
{
    for (auto& d : report.diagnostics)
    {
        const char* tag = waiver_tag(d.id);
        if (tag[0] == '\0')
        {
            continue;
        }
        for (auto& w : report.waivers)
        {
            // a waiver covers its own line and the line directly below it
            // (comment above the offending statement)
            if (w.tag == tag && !w.reason.empty() &&
                (w.line == d.line || w.line + 1 == d.line))
            {
                d.waived = true;
                w.used = true;
                break;
            }
        }
    }
}

/// Whether the check family a waiver tag belongs to actually ran. A waiver
/// of a disabled family cannot have been used, so it must not count as
/// stale under a partial --checks selection.
[[nodiscard]] bool waiver_family_enabled(const std::string& tag, const LintOptions& options)
{
    if (tag == "rng-ok" || tag == "ordered-ok")
    {
        return options.check_determinism;
    }
    if (tag == "no-poll-ok" || tag == "latch-ok")
    {
        return options.check_cancellation;
    }
    if (tag == "ref-ok")
    {
        return options.check_arena;
    }
    return true;
}

void check_waiver_hygiene(FileReport& report, const LintOptions& options)
{
    for (const auto& w : report.waivers)
    {
        if (known_tags().count(w.tag) == 0)
        {
            report.diagnostics.push_back(
                {CheckId::w_unknown_tag, report.file, w.line,
                 "unknown waiver tag '" + w.tag + "' (known: rng-ok, ordered-ok, no-poll-ok, "
                 "latch-ok, ref-ok)",
                 false});
            continue;
        }
        if (w.reason.empty())
        {
            report.diagnostics.push_back(
                {CheckId::w_empty_reason, report.file, w.line,
                 "waiver '" + w.tag + "' has no reason — every waiver must say why the "
                 "site is safe: // bestagon-lint: " + w.tag + "(reason)",
                 false});
            continue;
        }
        if (!w.used && waiver_family_enabled(w.tag, options))
        {
            report.diagnostics.push_back(
                {CheckId::w_stale_waiver, report.file, w.line,
                 "stale waiver '" + w.tag + "': it suppresses no diagnostic on this or the "
                 "next line — the code it excused is gone, remove the waiver",
                 false});
        }
    }
}

}  // namespace

const char* check_code(CheckId id) noexcept
{
    switch (id)
    {
        case CheckId::d_banned_rng: return "D1";
        case CheckId::d_unordered_iter: return "D2";
        case CheckId::c_unpolled_loop: return "C1";
        case CheckId::c_latch_missing: return "C2";
        case CheckId::a_ref_across_alloc: return "A1";
        case CheckId::w_stale_waiver: return "W1";
        case CheckId::w_empty_reason: return "W2";
        case CheckId::w_unknown_tag: return "W3";
        case CheckId::io_error: return "IO";
    }
    return "?";
}

const char* waiver_tag(CheckId id) noexcept
{
    switch (id)
    {
        case CheckId::d_banned_rng: return "rng-ok";
        case CheckId::d_unordered_iter: return "ordered-ok";
        case CheckId::c_unpolled_loop: return "no-poll-ok";
        case CheckId::c_latch_missing: return "latch-ok";
        case CheckId::a_ref_across_alloc: return "ref-ok";
        case CheckId::w_stale_waiver:
        case CheckId::w_empty_reason:
        case CheckId::w_unknown_tag:
        case CheckId::io_error: return "";
    }
    return "";
}

std::size_t FileReport::active_count() const noexcept
{
    return static_cast<std::size_t>(
        std::count_if(diagnostics.begin(), diagnostics.end(),
                      [](const Diagnostic& d) { return !d.waived; }));
}

FileReport lint_source(std::string_view path, std::string_view source, const LintOptions& options)
{
    FileReport report;
    report.file = std::string{path};
    const auto lexed = lex(source);
    report.waivers = collect_waivers(lexed.comments);

    Checker checker{lexed.tokens, options, report, normalize_path(path)};
    if (options.check_determinism && path_in_dirs(checker.norm_path, options.result_affecting_dirs))
    {
        checker.check_banned_rng();
        checker.check_unordered_iteration();
    }
    if (options.check_cancellation)
    {
        checker.check_cancellation_loops();
        checker.check_countdown_latch();
    }
    if (options.check_arena && path_in_dirs(checker.norm_path, options.arena_dirs))
    {
        checker.check_arena_refs();
    }

    apply_waivers(report);
    if (options.check_waivers)
    {
        check_waiver_hygiene(report, options);
    }
    std::stable_sort(report.diagnostics.begin(), report.diagnostics.end(),
                     [](const Diagnostic& a, const Diagnostic& b) { return a.line < b.line; });
    return report;
}

FileReport lint_file(const std::string& path, const LintOptions& options)
{
    std::ifstream in{path, std::ios::binary};
    if (!in)
    {
        FileReport report;
        report.file = path;
        report.diagnostics.push_back(
            {CheckId::io_error, path, 0, "cannot read file", false});
        return report;
    }
    std::ostringstream buffer;
    buffer << in.rdbuf();
    return lint_source(path, buffer.str(), options);
}

std::vector<FileReport> lint_paths(const std::vector<std::string>& paths,
                                   const LintOptions& options)
{
    namespace fs = std::filesystem;
    std::set<std::string> files;  // sorted + deduplicated
    for (const auto& p : paths)
    {
        std::error_code ec;
        if (fs::is_directory(p, ec))
        {
            for (fs::recursive_directory_iterator it{p, ec}, end; !ec && it != end; ++it)
            {
                if (!it->is_regular_file())
                {
                    continue;
                }
                const auto ext = it->path().extension().string();
                if (ext == ".hpp" || ext == ".h" || ext == ".cpp" || ext == ".cc")
                {
                    files.insert(it->path().generic_string());
                }
            }
        }
        else
        {
            files.insert(normalize_path(p));
        }
    }
    std::vector<FileReport> out;
    out.reserve(files.size());
    for (const auto& f : files)
    {
        out.push_back(lint_file(f, options));
    }
    return out;
}

std::vector<std::string> compile_commands_files(const std::string& json_path,
                                                std::string_view filter)
{
    std::ifstream in{json_path, std::ios::binary};
    std::set<std::string> files;
    if (!in)
    {
        return {};
    }
    std::ostringstream buffer;
    buffer << in.rdbuf();
    const std::string json = buffer.str();
    constexpr std::string_view key = "\"file\"";
    for (std::size_t pos = json.find(key); pos != std::string::npos;
         pos = json.find(key, pos + key.size()))
    {
        std::size_t i = pos + key.size();
        while (i < json.size() && (json[i] == ' ' || json[i] == ':' || json[i] == '\t'))
        {
            ++i;
        }
        if (i >= json.size() || json[i] != '"')
        {
            continue;
        }
        std::string value;
        for (++i; i < json.size() && json[i] != '"'; ++i)
        {
            if (json[i] == '\\' && i + 1 < json.size())
            {
                ++i;  // minimal unescape: \" \\ \/ keep the escaped char
            }
            value.push_back(json[i]);
        }
        if (filter.empty() || normalize_path(value).find(filter) != std::string::npos)
        {
            files.insert(std::move(value));
        }
    }
    return {files.begin(), files.end()};
}

std::string format(const Diagnostic& d)
{
    std::string out = d.file + ":" + std::to_string(d.line) + ": [" + check_code(d.id) + "] " +
                      d.message;
    if (d.waived)
    {
        out += " (waived)";
    }
    return out;
}

}  // namespace bestagon::analysis
