/// \file benchmarks.hpp
/// \brief The benchmark suite used in the paper's Table 1: circuits from
///        Trindade et al. [43] and Fontes et al. [13] (c17 originally from
///        the ISCAS-85 set [7]).
///
/// The netlists are the Verilog files `benchmarks/<name>.v`, the same files
/// the flow's command-line entry point and bench/flow read; this table holds
/// only each benchmark's name, source and the paper's reported layout data.
/// The paper does not print the netlists; for the five Trindade benchmarks,
/// c17, the parity and majority functions, the functions are standard. The
/// netlists for t, t_5 and newtag are faithful-scale reconstructions (same
/// PI/PO counts and similar gate counts); see DESIGN.md.

#pragma once

#include "logic/network.hpp"

#include <string>
#include <vector>

namespace bestagon::io
{

/// Reference values from the paper's Table 1 for comparison in benches.
struct Table1Row
{
    unsigned width{0};
    unsigned height{0};
    unsigned area_tiles{0};
    unsigned sidbs{0};
    double area_nm2{0.0};
};

/// A named benchmark with its source and the paper's reported layout data.
struct Benchmark
{
    std::string name;
    std::string source;  ///< "[43]" or "[13]"
    Table1Row paper;

    /// Parses `<name>.v` from the benchmark directory (BESTAGON_BENCHMARK_DIR,
    /// fixed at build time). Throws std::runtime_error if the file is missing
    /// or malformed.
    [[nodiscard]] logic::LogicNetwork build() const;
};

/// All 14 Table-1 benchmarks in paper order.
[[nodiscard]] const std::vector<Benchmark>& table1_benchmarks();

/// Looks up a benchmark by name (nullptr if unknown).
[[nodiscard]] const Benchmark* find_benchmark(const std::string& name);

}  // namespace bestagon::io
