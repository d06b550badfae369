/// \file lint.hpp
/// \brief `bestagon_lint` — project-specific invariant checks over C++ sources.
///
/// The tool enforces, at lint time, the three hard contracts the code base
/// established in PRs 1–7 and that no general-purpose tool checks:
///
///  - **(D) determinism** — results must be bit-identical at any thread
///    count and across platforms. D1 bans nondeterministic sources
///    (`std::rand`/`srand`, `std::random_device`, `system_clock`) in
///    result-affecting directories; D2 flags range-for/iterator traversal of
///    `std::unordered_map`/`unordered_set`, whose order is
///    implementation-defined and can silently leak into results, goldens and
///    diagnostic strings.
///  - **(C) cancellation** — every engine accepting a `RunBudget`/
///    `StopToken`/`Deadline` must poll it inside every loop that does engine
///    work (C1), and stride-countdown budget polls must re-latch a fired
///    budget instead of forgetting it on the stride reset (C2 — the PR-4
///    budget-latch bug class).
///  - **(A) arena-ref stability** — `ClauseView`/`ConstClauseView`/raw
///    `Clause*` handles into the SAT clause arena are invalidated by any
///    allocation or GC; A1 flags handles that live across a may-allocate
///    call (the classic MiniSat dangling-clause bug class imported with the
///    PR-7 arena). It flags the same for `Watcher*` pointers into a watch
///    pool (`auto* ws = pool.list(lit)`) that live across a pool-growing
///    call (`push`, `add_lists`), which may move every list. Assigning a
///    fresh `view(...)`/`list(...)` to the handle re-fetches it.
///
/// False-positive escape hatch: a site can carry a waiver comment
///
///     // bestagon-lint: <tag>(<reason>)
///
/// on the same line or the line directly above. Waiver hygiene is itself
/// checked (**W**): the reason must be non-empty (W2), the tag known (W3),
/// and the waiver must suppress at least one diagnostic — stale waivers are
/// errors (W1), so waivers cannot outlive the code they excuse.
///
/// The checks run on a token stream (see lexer.hpp) — deliberately not a
/// full C++ parse — and are tuned to fail toward silence-plus-waiver rather
/// than noise. `tests/test_bestagon_lint.cpp` proves every check catches a
/// seeded violation and passes its clean twin.

#pragma once

#include "analysis/lexer.hpp"

#include <string>
#include <string_view>
#include <vector>

namespace bestagon::analysis
{

enum class CheckId
{
    d_banned_rng,        ///< D1: nondeterministic source in result-affecting code
    d_unordered_iter,    ///< D2: traversal of an unordered container
    c_unpolled_loop,     ///< C1: engine loop without a budget poll
    c_latch_missing,     ///< C2: countdown stride reset without a 0-latch
    a_ref_across_alloc,  ///< A1: arena handle or watch-list pointer used across a call that may move it
    w_stale_waiver,      ///< W1: waiver that suppressed nothing
    w_empty_reason,      ///< W2: waiver without a reason
    w_unknown_tag,       ///< W3: waiver with an unknown tag
    io_error             ///< IO: input file could not be read (CLI exits 2)
};

/// Stable short code of a check ("D1", "C2", ...), used in output and docs.
[[nodiscard]] const char* check_code(CheckId id) noexcept;

/// The waiver tag that suppresses a check ("rng-ok", "ordered-ok",
/// "no-poll-ok", "latch-ok", "ref-ok"); empty for the W checks, which cannot
/// be waived.
[[nodiscard]] const char* waiver_tag(CheckId id) noexcept;

struct Diagnostic
{
    CheckId id{CheckId::d_banned_rng};
    std::string file;
    unsigned line{0};
    std::string message;
    bool waived{false};  ///< suppressed by a matching waiver
};

/// One `bestagon-lint:` waiver comment.
struct Waiver
{
    std::string tag;
    std::string reason;
    unsigned line{0};
    bool used{false};
};

struct LintOptions
{
    bool check_determinism{true};
    bool check_cancellation{true};
    bool check_arena{true};
    bool check_waivers{true};

    /// Path substrings (after '\' -> '/' normalization) selecting the
    /// result-affecting directories for the D checks.
    std::vector<std::string> result_affecting_dirs{"src/logic", "src/layout", "src/phys",
                                                   "src/sat"};
    /// Path substrings selecting the directories for the arena check.
    std::vector<std::string> arena_dirs{"src/sat"};

    /// A loop only counts as an engine loop (C1) when its body has at least
    /// this many tokens or contains a nested loop; tiny bookkeeping loops
    /// between budget polls are fine.
    std::size_t engine_loop_min_tokens{40};
};

struct FileReport
{
    std::string file;
    std::vector<Diagnostic> diagnostics;  ///< includes waived entries
    std::vector<Waiver> waivers;

    /// Number of non-waived diagnostics (what the exit code keys on).
    [[nodiscard]] std::size_t active_count() const noexcept;
};

/// Lints one in-memory source (the testable core; file IO lives in
/// lint_file/lint_paths).
[[nodiscard]] FileReport lint_source(std::string_view path, std::string_view source,
                                     const LintOptions& options = {});

/// Lints a file from disk. A missing/unreadable file yields a single
/// io_error diagnostic rather than a throw, so batch runs report and
/// continue (the CLI maps any io_error to exit code 2).
[[nodiscard]] FileReport lint_file(const std::string& path, const LintOptions& options = {});

/// Lints files and directories (recursed for .hpp/.h/.cpp/.cc) in
/// deterministic (sorted) order.
[[nodiscard]] std::vector<FileReport> lint_paths(const std::vector<std::string>& paths,
                                                 const LintOptions& options = {});

/// Extracts the "file" entries of a compile_commands.json (minimal scan, no
/// JSON dependency), deduplicated and sorted. \p filter, when non-empty,
/// keeps only paths containing it.
[[nodiscard]] std::vector<std::string> compile_commands_files(const std::string& json_path,
                                                              std::string_view filter = {});

/// Renders one diagnostic as "file:line: [D2] message".
[[nodiscard]] std::string format(const Diagnostic& diagnostic);

}  // namespace bestagon::analysis
