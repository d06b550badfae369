#include "io/benchmarks.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

namespace
{

using namespace bestagon;

/// Every PO's truth table of each Table-1 benchmark as hex (MSB first, PIs in
/// declaration order), recorded from the hand-written C++ netlists that the
/// benchmarks/*.v files replaced; the two agreed on every output.
const std::map<std::string, std::vector<std::string>>& reference_functions()
{
    static const std::map<std::string, std::vector<std::string>> functions = {
        {"xor2", {"6"}},
        {"xnor2", {"9"}},
        {"par_gen", {"96"}},
        {"mux21", {"ca"}},
        {"par_check", {"9669"}},
        {"xor5_r1", {"96696996"}},
        {"xor5_majority", {"96696996"}},
        {"t", {"f888f888", "0ff00000"}},
        {"t_5", {"17e8e8e8", "3366ffaa"}},
        {"c17", {"acecacec", "0fff0ccc"}},
        {"majority", {"e8"}},
        {"majority_5_r1", {"fee8e880"}},
        {"cm82a_5", {"96969696", "e81717e8", "ffe8e800"}},
        {"newtag", {"5d0808085d080808ffffffff5d0808085d0808085d0808085d0808085d080808"}},
    };
    return functions;
}

/// The shipped benchmarks/*.v files must parse and compute the recorded
/// functions.
class VerilogFileTest : public ::testing::TestWithParam<std::string>
{
};

TEST_P(VerilogFileTest, FileMatchesBuiltinNetlist)
{
    const auto* bm = io::find_benchmark(GetParam());
    ASSERT_NE(bm, nullptr);
    const auto tts = bm->build().simulate();
    const auto& expected = reference_functions().at(GetParam());
    ASSERT_EQ(tts.size(), expected.size());
    for (std::size_t po = 0; po < tts.size(); ++po)
    {
        EXPECT_EQ(tts[po].to_hex(), expected[po]) << "PO " << po;
    }
}

INSTANTIATE_TEST_SUITE_P(Shipped, VerilogFileTest,
                         ::testing::Values("xor2", "xnor2", "par_gen", "mux21", "par_check",
                                           "xor5_r1", "xor5_majority", "t", "t_5", "c17",
                                           "majority", "majority_5_r1", "cm82a_5", "newtag"));

/// The Table-1 rows and the benchmarks/*.v files name the same benchmarks:
/// a file without a row and a row without a file both fail.
TEST(VerilogFiles, OneFilePerTable1Row)
{
    std::vector<std::string> files;
    for (const auto& entry : std::filesystem::directory_iterator{BESTAGON_BENCHMARK_DIR})
    {
        if (entry.path().extension() == ".v")
        {
            files.push_back(entry.path().stem().string());
        }
    }
    std::vector<std::string> rows;
    for (const auto& bm : io::table1_benchmarks())
    {
        rows.push_back(bm.name);
    }
    std::sort(files.begin(), files.end());
    std::sort(rows.begin(), rows.end());
    EXPECT_EQ(files, rows);
}

}  // namespace
