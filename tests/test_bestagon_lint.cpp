// Tests for the bestagon_lint invariant checker (src/analysis).
//
// Every check family is proven against the fixture corpus in
// tests/data/lint_fixtures: each seeded violation is caught at the expected
// granularity and each clean twin passes. The suite also locks down the
// waiver round-trip (suppression, staleness, hygiene) and ends with the real
// gate: linting the live src/ tree must be clean.

#include "analysis/lexer.hpp"
#include "analysis/lint.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

namespace
{

using namespace bestagon::analysis;

const std::string fixtures = BESTAGON_LINT_FIXTURE_DIR;

std::string fixture(const std::string& rel)
{
    return fixtures + "/" + rel;
}

std::size_t count_id(const FileReport& report, CheckId id, bool waived = false)
{
    return static_cast<std::size_t>(
        std::count_if(report.diagnostics.begin(), report.diagnostics.end(),
                      [&](const Diagnostic& d) { return d.id == id && d.waived == waived; }));
}

// ---------------------------------------------------------------------------
// lexer
// ---------------------------------------------------------------------------

TEST(LintLexer, TokenizesIdentifiersNumbersAndPunctuation)
{
    const auto lexed = lex("int x = 42 + foo(y);");
    std::vector<std::string> texts;
    for (const auto& t : lexed.tokens)
    {
        texts.push_back(t.text);
    }
    const std::vector<std::string> expected{"int", "x", "=",  "42", "+", "foo",
                                            "(",   "y", ")",  ";"};
    EXPECT_EQ(texts, expected);
}

TEST(LintLexer, CommentsGoToSideChannelNotTokenStream)
{
    const auto lexed = lex("a; // line comment\nb; /* block */ c;");
    ASSERT_EQ(lexed.comments.size(), 2U);
    EXPECT_EQ(lexed.comments[0].line, 1U);
    EXPECT_FALSE(lexed.comments[0].block);
    EXPECT_TRUE(lexed.comments[1].block);
    for (const auto& t : lexed.tokens)
    {
        EXPECT_NE(t.text, "comment");
    }
}

TEST(LintLexer, RawStringsAndEscapesDoNotConfuseTheLexer)
{
    const auto lexed = lex(R"src(auto s = R"(unbalanced " and // not a comment)"; auto t = "esc\"";)src");
    EXPECT_TRUE(lexed.comments.empty());
    const auto strings =
        std::count_if(lexed.tokens.begin(), lexed.tokens.end(),
                      [](const Token& t) { return t.kind == TokenKind::string_lit; });
    EXPECT_EQ(strings, 2);
}

TEST(LintLexer, MalformedInputDoesNotThrow)
{
    EXPECT_NO_THROW((void)lex("\"unterminated"));
    EXPECT_NO_THROW((void)lex("/* unterminated"));
    EXPECT_NO_THROW((void)lex("R\"(unterminated"));
}

// ---------------------------------------------------------------------------
// D: determinism
// ---------------------------------------------------------------------------

TEST(LintDeterminism, BannedRngFixtureIsCaught)
{
    const auto report = lint_file(fixture("src/logic/d1_banned_rng.cpp"));
    EXPECT_EQ(count_id(report, CheckId::d_banned_rng), 3U)
        << "std::random_device, system_clock and std::rand must each be flagged";
    EXPECT_EQ(report.active_count(), 3U);
}

TEST(LintDeterminism, UnorderedIterationFixtureIsCaught)
{
    const auto report = lint_file(fixture("src/logic/d2_unordered_iter.cpp"));
    EXPECT_EQ(count_id(report, CheckId::d_unordered_iter), 2U)
        << "the range-for and the .begin() traversal must both be flagged";
}

TEST(LintDeterminism, CleanFixturePasses)
{
    const auto report = lint_file(fixture("src/logic/d_clean.cpp"));
    EXPECT_EQ(report.active_count(), 0U)
        << "keyed unordered access and seeded mt19937 are fine";
}

TEST(LintDeterminism, SortedSnapshotConstructionIsNotFlagged)
{
    // the remediation the D2 message recommends must itself lint clean
    const std::string source = R"(
        #include <algorithm>
        #include <unordered_map>
        #include <utility>
        #include <vector>

        std::vector<std::pair<int, int>> sorted(const std::unordered_map<int, int>& m)
        {
            std::vector<std::pair<int, int>> v(m.begin(), m.end());
            std::sort(v.begin(), v.end());
            return v;
        }
    )";
    const auto report = lint_source("src/logic/snap.cpp", source);
    EXPECT_EQ(count_id(report, CheckId::d_unordered_iter), 0U)
        << "a begin()/end() pair handed to a constructor is the sanctioned snapshot";
}

TEST(LintDeterminism, ChecksOnlyApplyInResultAffectingDirs)
{
    // the same banned-RNG source under a non-result-affecting path is ignored
    const std::string source = "#include <cstdlib>\nint f() { return std::rand(); }\n";
    EXPECT_EQ(lint_source("src/logic/f.cpp", source).active_count(), 1U);
    EXPECT_EQ(lint_source("tools/f.cpp", source).active_count(), 0U);
}

// ---------------------------------------------------------------------------
// C: cancellation
// ---------------------------------------------------------------------------

TEST(LintCancellation, UnpolledEngineLoopFixtureIsCaught)
{
    const auto report = lint_file(fixture("src/core/c1_unpolled_loop.cpp"));
    EXPECT_EQ(count_id(report, CheckId::c_unpolled_loop), 1U)
        << "exactly the outer engine loop must be flagged, not the tiny inner one";
}

TEST(LintCancellation, MissingCountdownLatchFixtureIsCaught)
{
    const auto report = lint_file(fixture("src/core/c2_latch_missing.cpp"));
    EXPECT_EQ(count_id(report, CheckId::c_latch_missing), 1U);
}

TEST(LintCancellation, CleanFixturePasses)
{
    const auto report = lint_file(fixture("src/core/c_clean.cpp"));
    EXPECT_EQ(report.active_count(), 0U)
        << "a polled loop and a 0-latched countdown must both pass";
}

TEST(LintCancellation, UnpolledIncrementalLadderFixtureIsCaught)
{
    // the PR-10 shape: a persistent-solver ladder walk that accepts a
    // RunBudget but never polls it between solve_size calls
    const auto report = lint_file(fixture("src/layout/c1_incremental_ladder.cpp"));
    EXPECT_EQ(count_id(report, CheckId::c_unpolled_loop), 1U)
        << "the unpolled ladder loop must be flagged";
}

TEST(LintCancellation, PolledIncrementalLadderFixturePasses)
{
    const auto report = lint_file(fixture("src/layout/c_ladder_clean.cpp"));
    EXPECT_EQ(report.active_count(), 0U)
        << "a ladder walk that polls its budget per solve must pass";
}

TEST(LintCancellation, LatchesAreTrackedPerCountdownVariable)
{
    // the latched countdown must not excuse the unlatched one next to it
    const std::string source = R"(
        struct Engine
        {
            long poll_countdown{0};
            long flush_countdown{0};

            void tick(long check_stride)
            {
                if (--poll_countdown <= 0)
                {
                    poll_countdown = 0;
                }
                if (--flush_countdown <= 0)
                {
                    flush_countdown = check_stride;
                }
            }
        };
    )";
    const auto report = lint_source("src/core/x.cpp", source);
    EXPECT_EQ(count_id(report, CheckId::c_latch_missing), 1U)
        << "only flush_countdown lacks a 0-latch; poll_countdown's latch must not cover it";
}

TEST(LintCancellation, PollingViaCalleeCountsAsAPoll)
{
    // passing the budget into the callee is an accepted polling pattern
    const std::string source = R"(
        int step(const RunBudget& run);
        int drive(int n, const RunBudget& run)
        {
            int acc = 0;
            for (int i = 0; i < n; ++i)
            {
                for (int j = 0; j < n; ++j)
                {
                    acc += step(run);
                }
            }
            return acc;
        }
    )";
    EXPECT_EQ(lint_source("src/core/x.cpp", source).active_count(), 0U);
}

TEST(LintCancellation, SolveLimitsParameterIsMonitored)
{
    // a SolveLimits parameter carries a run budget like a RunBudget does
    const std::string source = R"(
        int step(int state);
        int drive(int n, const sat::SolveLimits& limits)
        {
            int acc = 0;
            for (int i = 0; i < n; ++i)
            {
                for (int j = 0; j < n; ++j)
                {
                    acc += step(acc + j);
                }
            }
            return acc;
        }
    )";
    EXPECT_EQ(count_id(lint_source("src/core/x.cpp", source), CheckId::c_unpolled_loop), 1U);
}

// ---------------------------------------------------------------------------
// A: arena-ref stability
// ---------------------------------------------------------------------------

TEST(LintArena, HandleAcrossAllocFixtureIsCaught)
{
    const auto report = lint_file(fixture("src/sat/a1_view_across_alloc.cpp"));
    EXPECT_EQ(count_id(report, CheckId::a_ref_across_alloc), 1U);
}

TEST(LintArena, RefetchedHandleFixturePasses)
{
    const auto report = lint_file(fixture("src/sat/a_clean.cpp"));
    EXPECT_EQ(report.active_count(), 0U)
        << "consuming before the alloc and re-fetching after it is the sanctioned pattern";
}

TEST(LintArena, WatchListPointerAcrossPushFixtureIsCaught)
{
    const auto report = lint_file(fixture("src/sat/a1_watch_list_across_push.cpp"));
    EXPECT_EQ(count_id(report, CheckId::a_ref_across_alloc), 1U);
}

TEST(LintArena, WatchListPointerRefetchedAfterPushPasses)
{
    // the propagation loop's pattern: re-fetch the list after every push;
    // an arena handle may outlive a push, and a list pointer an arena alloc
    const std::string source = R"(
        int f(WatchPool& pool, Arena& arena, unsigned lit, unsigned ref)
        {
            Watcher* ws = pool.list(lit);
            const auto c = arena.view(ref);
            pool.push(lit + 2, Watcher{ref, 1});
            const int first = c[0];
            ws = pool.list(lit);
            arena.alloc(3);
            return ws[0].blocker + first;
        }
    )";
    EXPECT_EQ(lint_source("src/sat/f.cpp", source).active_count(), 0U);
}

TEST(LintArena, CheckOnlyAppliesInArenaDirs)
{
    const std::string source = R"(
        int f(Arena& arena, unsigned ref)
        {
            const auto c = arena.view(ref);
            arena.alloc(3);
            return c[0];
        }
    )";
    EXPECT_EQ(lint_source("src/sat/f.cpp", source).active_count(), 1U);
    EXPECT_EQ(lint_source("src/phys/f.cpp", source).active_count(), 0U);
}

// ---------------------------------------------------------------------------
// W: waiver hygiene
// ---------------------------------------------------------------------------

TEST(LintWaivers, WaiverRoundTripSuppressesAndIsNotStale)
{
    const auto report = lint_file(fixture("src/logic/d2_waived.cpp"));
    EXPECT_EQ(report.active_count(), 0U);
    EXPECT_EQ(count_id(report, CheckId::d_unordered_iter, /*waived=*/true), 1U);
    ASSERT_EQ(report.waivers.size(), 1U);
    EXPECT_TRUE(report.waivers.front().used);
    EXPECT_FALSE(report.waivers.front().reason.empty());
}

TEST(LintWaivers, StaleWaiverIsAnError)
{
    const auto report = lint_file(fixture("src/logic/w1_stale_waiver.cpp"));
    EXPECT_EQ(count_id(report, CheckId::w_stale_waiver), 1U);
    EXPECT_EQ(report.active_count(), 1U);
}

TEST(LintWaivers, EmptyReasonIsAnErrorAndDoesNotSuppress)
{
    const auto report = lint_file(fixture("src/logic/w2_empty_reason.cpp"));
    EXPECT_EQ(count_id(report, CheckId::w_empty_reason), 1U);
    EXPECT_EQ(count_id(report, CheckId::d_unordered_iter), 1U)
        << "a reasonless waiver must not suppress the diagnostic underneath it";
}

TEST(LintWaivers, UnknownTagIsAnError)
{
    const auto report = lint_file(fixture("src/logic/w3_unknown_tag.cpp"));
    EXPECT_EQ(count_id(report, CheckId::w_unknown_tag), 1U);
}

TEST(LintWaivers, DisabledFamilyWaiverIsNotStale)
{
    // a waiver of a family that did not run cannot have been used — partial
    // --checks selections must not turn legitimate waivers into W1 failures
    const std::string source = R"(
        int step(int);
        int drive(int n, const RunBudget& run)
        {
            int acc = 0;
            // bestagon-lint: no-poll-ok(loop bounded by caller, sub-ms)
            for (int i = 0; i < n; ++i)
            {
                acc += step(acc) + step(i) + step(n) + step(acc + i) + step(acc - n) +
                       step(i * n) + step(acc * i) + step(acc + n) + step(i - n) + step(n * n);
            }
            return acc;
        }
    )";
    LintOptions all;
    const auto full = lint_source("src/core/x.cpp", source, all);
    EXPECT_EQ(count_id(full, CheckId::w_stale_waiver), 0U)
        << "with cancellation enabled the waiver is used, not stale";

    LintOptions partial;  // --checks=D,W
    partial.check_cancellation = false;
    partial.check_arena = false;
    const auto report = lint_source("src/core/x.cpp", source, partial);
    EXPECT_EQ(count_id(report, CheckId::w_stale_waiver), 0U)
        << "C never ran, so its waiver must not count as stale";
    EXPECT_EQ(report.active_count(), 0U);
}

TEST(LintWaivers, DocCommentsMentioningTheMarkerAreNotWaivers)
{
    const std::string source =
        "/// The waiver syntax is `// bestagon-lint: ordered-ok(reason)`.\n"
        "int x;\n";
    const auto report = lint_source("src/logic/doc.cpp", source);
    EXPECT_TRUE(report.waivers.empty());
    EXPECT_EQ(report.active_count(), 0U);
}

// ---------------------------------------------------------------------------
// drivers
// ---------------------------------------------------------------------------

TEST(LintDrivers, MissingFileReportsIoErrorInsteadOfThrowing)
{
    const auto report = lint_file(fixture("does/not/exist.cpp"));
    EXPECT_EQ(report.active_count(), 1U);
    EXPECT_EQ(count_id(report, CheckId::io_error), 1U)
        << "read failures are IO errors, not waiver-hygiene findings";
}

TEST(LintDrivers, DirectoryWalkIsSortedAndComplete)
{
    const auto reports = lint_paths({fixtures});
    ASSERT_GE(reports.size(), 11U);
    EXPECT_TRUE(std::is_sorted(reports.begin(), reports.end(),
                               [](const FileReport& a, const FileReport& b)
                               { return a.file < b.file; }));
    // the corpus as a whole is deliberately dirty
    std::size_t active = 0;
    for (const auto& r : reports)
    {
        active += r.active_count();
    }
    EXPECT_GT(active, 0U);
}

TEST(LintDrivers, CompileCommandsFileListIsParsedFilteredAndSorted)
{
    const auto dir = std::filesystem::temp_directory_path() / "bestagon_lint_test";
    std::filesystem::create_directories(dir);
    const auto json = dir / "compile_commands.json";
    {
        std::ofstream out{json};
        out << R"([
            {"directory": "/b", "command": "c++ -c z.cpp", "file": "/repo/src/sat/z.cpp"},
            {"directory": "/b", "command": "c++ -c a.cpp", "file": "/repo/src/logic/a.cpp"},
            {"directory": "/b", "command": "c++ -c a.cpp", "file": "/repo/src/logic/a.cpp"},
            {"directory": "/b", "command": "c++ -c t.cpp", "file": "/repo/tools/t.cpp"}
        ])";
    }
    const auto all = compile_commands_files(json.string());
    const std::vector<std::string> expected_all{"/repo/src/logic/a.cpp", "/repo/src/sat/z.cpp",
                                                "/repo/tools/t.cpp"};
    EXPECT_EQ(all, expected_all);
    const auto filtered = compile_commands_files(json.string(), "src/");
    const std::vector<std::string> expected_filtered{"/repo/src/logic/a.cpp",
                                                     "/repo/src/sat/z.cpp"};
    EXPECT_EQ(filtered, expected_filtered);
    std::filesystem::remove_all(dir);
}

TEST(LintDrivers, FormatIsStable)
{
    const Diagnostic d{CheckId::d_unordered_iter, "src/logic/x.cpp", 12, "msg", false};
    EXPECT_EQ(format(d), "src/logic/x.cpp:12: [D2] msg");
}

// ---------------------------------------------------------------------------
// the real gate: the live tree must be clean
// ---------------------------------------------------------------------------

TEST(LintGate, LiveSourceTreeIsClean)
{
    const auto reports = lint_paths({BESTAGON_SRC_DIR});
    ASSERT_GT(reports.size(), 50U) << "the walk must actually find the source tree";
    std::size_t active = 0;
    std::size_t waived = 0;
    for (const auto& r : reports)
    {
        for (const auto& d : r.diagnostics)
        {
            if (d.waived)
            {
                ++waived;
                continue;
            }
            ++active;
            ADD_FAILURE() << format(d);
        }
    }
    EXPECT_EQ(active, 0U);
    EXPECT_GT(waived, 0U) << "the tree carries justified waivers; they must keep suppressing";
}

}  // namespace
