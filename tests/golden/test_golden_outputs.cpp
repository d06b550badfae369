/// \file test_golden_outputs.cpp
/// \brief Golden-file regression tests for every textual artifact writer:
///        SiQAD .sqd XML, SVG (tile and dot views), Graphviz DOT and the
///        ASCII layout rendering. The flows under test are fully
///        deterministic, so any diff against tests/golden/data/ means an
///        engine or writer changed observable output — inspect, then either
///        fix the regression or regenerate with --update-goldens and commit
///        the reviewed diff.

#include "testing/golden.hpp"

#include "core/design_flow.hpp"
#include "io/benchmarks.hpp"
#include "io/dot_writer.hpp"
#include "io/render.hpp"
#include "io/sqd_writer.hpp"
#include "io/svg_writer.hpp"

#include <gtest/gtest.h>

#include <map>
#include <sstream>
#include <string>

namespace
{

using namespace bestagon;

std::string golden_path(const std::string& name)
{
    return std::string{BESTAGON_GOLDEN_DATA_DIR} + "/" + name;
}

/// Flows are expensive (SAT-based physical design) — run each benchmark once
/// and share the result across the suite.
const core::FlowResult& flow_for(const std::string& benchmark)
{
    static std::map<std::string, core::FlowResult> cache;
    auto it = cache.find(benchmark);
    if (it == cache.end())
    {
        const auto* bm = io::find_benchmark(benchmark);
        if (bm == nullptr)
        {
            throw std::runtime_error("unknown benchmark " + benchmark);
        }
        it = cache.emplace(benchmark, core::run_design_flow(bm->build())).first;
    }
    return it->second;
}

void expect_golden(const std::string& actual, const std::string& file)
{
    const auto verdict = testkit::compare_golden(actual, golden_path(file));
    EXPECT_TRUE(verdict.ok) << verdict.detail;
}

TEST(GoldenDot, C17Network)
{
    std::ostringstream out;
    io::write_dot(out, io::find_benchmark("c17")->build());
    expect_golden(out.str(), "c17.dot.golden");
}

TEST(GoldenDot, Xor2MappedNetwork)
{
    std::ostringstream out;
    io::write_dot(out, flow_for("xor2").mapped);
    expect_golden(out.str(), "xor2_mapped.dot.golden");
}

TEST(GoldenAscii, Xor2Layout)
{
    const auto& flow = flow_for("xor2");
    ASSERT_TRUE(flow.layout.has_value());
    expect_golden(io::render_layout(*flow.layout), "xor2_layout.txt.golden");
}

TEST(GoldenAscii, ParCheckLayout)
{
    const auto& flow = flow_for("par_check");
    ASSERT_TRUE(flow.layout.has_value());
    expect_golden(io::render_layout(*flow.layout), "par_check_layout.txt.golden");
}

TEST(GoldenSqd, Xor2SidbLayout)
{
    const auto& flow = flow_for("xor2");
    ASSERT_TRUE(flow.sidb.has_value());
    std::ostringstream out;
    io::write_sqd(out, *flow.sidb, "xor2");
    expect_golden(out.str(), "xor2.sqd.golden");
}

TEST(GoldenSqd, ParCheckSidbLayout)
{
    const auto& flow = flow_for("par_check");
    ASSERT_TRUE(flow.sidb.has_value());
    std::ostringstream out;
    io::write_sqd(out, *flow.sidb, "par_check");
    expect_golden(out.str(), "par_check.sqd.golden");
}

TEST(GoldenSvg, Xor2TileView)
{
    const auto& flow = flow_for("xor2");
    ASSERT_TRUE(flow.layout.has_value());
    std::ostringstream out;
    io::write_svg(out, *flow.layout);
    expect_golden(out.str(), "xor2_tiles.svg.golden");
}

TEST(GoldenSvg, Xor2DotAccurateView)
{
    const auto& flow = flow_for("xor2");
    ASSERT_TRUE(flow.sidb.has_value());
    std::ostringstream out;
    io::write_svg(out, *flow.sidb);
    expect_golden(out.str(), "xor2_dots.svg.golden");
}

TEST(GoldenHarness, NormalizationIsCanonical)
{
    using testkit::normalize_artifact;
    EXPECT_EQ(normalize_artifact("a \r\nb\t\nc"), "a\nb\nc\n");
    EXPECT_EQ(normalize_artifact("a\n\n\n"), "a\n");
    EXPECT_EQ(normalize_artifact(""), "");
    // idempotence: normalizing twice changes nothing
    const std::string messy = "x  \r\n\r\n y\r";
    EXPECT_EQ(normalize_artifact(normalize_artifact(messy)), normalize_artifact(messy));
}

TEST(GoldenHarness, DiffPinpointsFirstDivergentLine)
{
    if (testkit::update_goldens_flag())
    {
        // comparing wrong content in update mode would clobber the golden
        GTEST_SKIP() << "update mode rewrites goldens; diff behavior not testable";
    }
    // compare against an existing golden with deliberately wrong content
    const auto verdict =
        testkit::compare_golden("not the c17 graph\n", golden_path("c17.dot.golden"));
    ASSERT_FALSE(verdict.ok);
    EXPECT_NE(verdict.detail.find("first difference at line 1"), std::string::npos)
        << verdict.detail;
}

}  // namespace
