#include "io/benchmarks.hpp"

#include "io/verilog.hpp"

#include <fstream>
#include <stdexcept>

namespace bestagon::io
{

logic::LogicNetwork Benchmark::build() const
{
    const std::string path = std::string{BESTAGON_BENCHMARK_DIR} + "/" + name + ".v";
    std::ifstream in{path};
    if (!in)
    {
        throw std::runtime_error{"cannot open benchmark file " + path};
    }
    return read_verilog(in);
}

const std::vector<Benchmark>& table1_benchmarks()
{
    static const std::vector<Benchmark> benchmarks = {
        {"xor2", "[43]", {2, 3, 6, 58, 2403.98}},
        {"xnor2", "[43]", {2, 3, 6, 58, 2403.98}},
        {"par_gen", "[43]", {3, 4, 12, 103, 4830.22}},
        {"mux21", "[43]", {3, 6, 18, 196, 7258.52}},
        {"par_check", "[43]", {4, 7, 28, 284, 11312.68}},
        {"xor5_r1", "[13]", {5, 6, 30, 232, 12124.57}},
        {"xor5_majority", "[13]", {5, 6, 30, 244, 12124.57}},
        {"t", "[13]", {5, 8, 40, 426, 16180.79}},
        {"t_5", "[13]", {5, 8, 40, 448, 16180.79}},
        {"c17", "[13]", {5, 8, 40, 396, 16180.79}},
        {"majority", "[13]", {5, 11, 55, 651, 22265.12}},
        {"majority_5_r1", "[13]", {5, 12, 60, 737, 24293.23}},
        {"cm82a_5", "[13]", {5, 15, 75, 1211, 30377.56}},
        {"newtag", "[13]", {8, 10, 80, 651, 32419.82}},
    };
    return benchmarks;
}

const Benchmark* find_benchmark(const std::string& name)
{
    for (const auto& b : table1_benchmarks())
    {
        if (b.name == name)
        {
            return &b;
        }
    }
    return nullptr;
}

}  // namespace bestagon::io
