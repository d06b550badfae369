/// \file test_parallel_determinism.cpp
/// \brief Regression tests for the parallel physical-simulation layer: every
///        fan-out point must produce bit-identical results at 1 thread vs N
///        threads and across repeated runs with the same seed.

#include "phys/defect_sweep.hpp"
#include "phys/gate_designer.hpp"
#include "phys/operational_domain.hpp"
#include "phys/simanneal.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

namespace
{

using namespace bestagon::phys;
using bestagon::logic::TruthTable;

/// The validated vertical BDL wire in tile-local coordinates.
GateDesign vertical_wire()
{
    GateDesign d;
    d.name = "wire";
    for (int k = 0; k < 6; ++k)
    {
        const int m = 1 + 4 * k;
        d.sites.push_back({15, m, 0});
        d.sites.push_back({15, m + 1, 0});
    }
    d.input_pairs.push_back({{15, 1, 0}, {15, 2, 0}});
    d.output_pairs.push_back({{15, 21, 0}, {15, 22, 0}});
    d.drivers.push_back({{15, -3, 0}, {15, -2, 0}});
    d.output_perturbers.push_back({15, 25, 1});
    d.functions.push_back(TruthTable::from_binary("10"));
    return d;
}

void expect_identical(const OperationalResult& a, const OperationalResult& b)
{
    ASSERT_EQ(a.patterns_total, b.patterns_total);
    EXPECT_EQ(a.patterns_correct, b.patterns_correct);
    EXPECT_EQ(a.operational, b.operational);
    ASSERT_EQ(a.details.size(), b.details.size());
    for (std::size_t p = 0; p < a.details.size(); ++p)
    {
        EXPECT_EQ(a.details[p].pattern, b.details[p].pattern);
        EXPECT_EQ(a.details[p].correct, b.details[p].correct);
        EXPECT_EQ(a.details[p].output_states, b.details[p].output_states);
        // bit-identical, not merely close
        EXPECT_EQ(a.details[p].ground_state.config, b.details[p].ground_state.config);
        EXPECT_EQ(a.details[p].ground_state.grand_potential,
                  b.details[p].ground_state.grand_potential);
        EXPECT_EQ(a.details[p].ground_state.electrostatic, b.details[p].ground_state.electrostatic);
    }
}

TEST(ParallelDeterminism, CheckOperationalMatchesSerial)
{
    const auto design = vertical_wire();
    for (const auto engine : {Engine::simanneal, Engine::exact})
    {
        SimulationParameters serial;
        serial.num_threads = 1;
        serial.engine = engine;
        const auto reference = check_operational(design, serial);
        for (const unsigned threads : {2U, 4U, 8U})
        {
            SimulationParameters parallel = serial;
            parallel.num_threads = threads;
            expect_identical(reference, check_operational(design, parallel));
        }
        // repeated runs are stable too
        expect_identical(reference, check_operational(design, serial));
    }
}

TEST(ParallelDeterminism, OperationalDomainMatchesSerial)
{
    const auto design = vertical_wire();
    DomainSweep sweep;
    sweep.axes = DomainAxes::epsilon_r_vs_lambda_tf;
    sweep.x_min = 3.0;
    sweep.x_max = 9.0;
    sweep.x_steps = 6;
    sweep.y_min = 2.0;
    sweep.y_max = 8.0;
    sweep.y_steps = 6;

    SimulationParameters serial;
    serial.num_threads = 1;
    const auto reference = compute_operational_domain(design, serial, sweep);
    EXPECT_EQ(reference.points.size(), 36U);

    for (const unsigned threads : {4U, 8U})
    {
        SimulationParameters parallel = serial;
        parallel.num_threads = threads;
        const auto domain = compute_operational_domain(design, parallel, sweep);
        EXPECT_EQ(domain.coverage(), reference.coverage());  // bit-identical
        ASSERT_EQ(domain.points.size(), reference.points.size());
        for (std::size_t k = 0; k < domain.points.size(); ++k)
        {
            EXPECT_EQ(domain.points[k].x, reference.points[k].x);
            EXPECT_EQ(domain.points[k].y, reference.points[k].y);
            EXPECT_EQ(domain.points[k].operational, reference.points[k].operational);
            EXPECT_EQ(domain.points[k].patterns_correct, reference.points[k].patterns_correct);
        }
    }
}

TEST(ParallelDeterminism, DesignGateMatchesSerial)
{
    // wire with the third pair removed; candidates contain the missing sites
    auto skeleton = vertical_wire();
    skeleton.sites.erase(skeleton.sites.begin() + 4, skeleton.sites.begin() + 6);
    std::vector<SiDBSite> candidates;
    for (int m = 8; m <= 11; ++m)
    {
        for (int l = 0; l < 2; ++l)
        {
            candidates.push_back({15, m, l});
        }
    }

    DesignerOptions options;
    options.min_canvas_dots = 1;
    options.max_canvas_dots = 2;
    options.max_iterations = 2000;
    options.num_restarts = 3;

    SimulationParameters serial;
    serial.num_threads = 1;
    DesignerOptions serial_options = options;
    serial_options.num_threads = 1;
    const auto reference = design_gate(skeleton, candidates, serial_options, serial);
    ASSERT_TRUE(reference.has_value());

    for (const unsigned threads : {2U, 4U})
    {
        SimulationParameters parallel = serial;
        parallel.num_threads = threads;
        DesignerOptions parallel_options = options;
        parallel_options.num_threads = threads;
        const auto result = design_gate(skeleton, candidates, parallel_options, parallel);
        ASSERT_TRUE(result.has_value());
        EXPECT_EQ(result->canvas, reference->canvas);
        EXPECT_EQ(result->iterations_used, reference->iterations_used);
        EXPECT_EQ(result->restart_used, reference->restart_used);
        EXPECT_EQ(result->design.sites, reference->design.sites);
    }
}

TEST(ParallelDeterminism, DesignGateRestartZeroReproducesSingleRestartTrajectory)
{
    auto skeleton = vertical_wire();
    skeleton.sites.erase(skeleton.sites.begin() + 4, skeleton.sites.begin() + 6);
    std::vector<SiDBSite> candidates;
    for (int m = 8; m <= 11; ++m)
    {
        candidates.push_back({15, m, 0});
        candidates.push_back({15, m, 1});
    }
    SimulationParameters p;
    p.num_threads = 1;
    DesignerOptions one;
    one.min_canvas_dots = 1;
    one.max_canvas_dots = 2;
    one.max_iterations = 2000;
    one.num_restarts = 1;
    one.num_threads = 1;
    DesignerOptions many = one;
    many.num_restarts = 4;
    many.num_threads = 4;

    const auto a = design_gate(skeleton, candidates, one, p);
    const auto b = design_gate(skeleton, candidates, many, p);
    ASSERT_TRUE(a.has_value());
    ASSERT_TRUE(b.has_value());
    // restart 0 finds the same design in the same number of iterations, and
    // wins the deterministic lowest-index selection
    EXPECT_EQ(b->restart_used, 0U);
    EXPECT_EQ(b->canvas, a->canvas);
    EXPECT_EQ(b->iterations_used, a->iterations_used);
}

TEST(ParallelDeterminism, SimAnnealMatchesSerialForAnyThreadCount)
{
    SimulationParameters p;
    p.mu_minus = -0.32;
    // a 10-site BDL chain
    std::vector<SiDBSite> sites;
    for (int k = 0; k < 5; ++k)
    {
        const int m = 1 + 4 * k;
        sites.push_back({15, m, 0});
        sites.push_back({15, m + 1, 0});
    }
    const SiDBSystem sys{sites, p};

    SimAnnealParameters serial;
    serial.num_threads = 1;
    const auto reference = simulated_annealing(sys, serial);
    EXPECT_TRUE(sys.physically_valid(reference.config));

    for (const unsigned threads : {2U, 4U, 8U})
    {
        SimAnnealParameters parallel = serial;
        parallel.num_threads = threads;
        const auto result = simulated_annealing(sys, parallel);
        EXPECT_EQ(result.config, reference.config);
        EXPECT_EQ(result.grand_potential, reference.grand_potential);
        EXPECT_EQ(result.electrostatic, reference.electrostatic);
    }
    // and across repeated runs with the same seed
    const auto again = simulated_annealing(sys, serial);
    EXPECT_EQ(again.config, reference.config);
    EXPECT_EQ(again.grand_potential, reference.grand_potential);
}

TEST(ParallelDeterminism, SimAnnealZeroInstancesIsWellDefined)
{
    SimulationParameters p;
    const SiDBSystem sys{{{0, 0, 0}, {5, 3, 1}}, p};
    SimAnnealParameters params;
    params.num_instances = 0;  // used to evaluate the energy of an empty config
    const auto result = simulated_annealing(sys, params);
    EXPECT_TRUE(result.config.empty());
    EXPECT_TRUE(std::isinf(result.grand_potential));
    EXPECT_EQ(result.electrostatic, 0.0);
    EXPECT_FALSE(result.complete);
}

TEST(ParallelDeterminism, ExcessiveInputArityIsRejectedNotOverflowed)
{
    GateDesign d;
    d.name = "impossible";
    for (int i = 0; i < 64; ++i)
    {
        d.drivers.push_back({{i, -3, 0}, {i, -2, 0}});
    }
    SimulationParameters p;
    EXPECT_THROW((void)check_operational(d, p), std::invalid_argument);
    DesignerOptions options;
    EXPECT_THROW((void)design_gate(d, {{0, 50, 0}}, options, p), std::invalid_argument);
}

TEST(ParallelDeterminism, DefectYieldSweepMatchesSerialForAnyThreadCount)
{
    const auto design = vertical_wire();
    DefectSweepParams sweep;
    sweep.densities_per_nm2 = {0.002, 0.01, 0.03};
    sweep.samples = 12;
    sweep.num_threads = 1;
    const auto reference = defect_yield_sweep(design, SimulationParameters{}, sweep);
    ASSERT_FALSE(reference.cancelled);
    for (const unsigned threads : {2U, 4U, 8U})
    {
        sweep.num_threads = threads;
        const auto parallel = defect_yield_sweep(design, SimulationParameters{}, sweep);
        ASSERT_EQ(parallel.points.size(), reference.points.size());
        for (std::size_t k = 0; k < reference.points.size(); ++k)
        {
            EXPECT_EQ(parallel.points[k].density_per_nm2, reference.points[k].density_per_nm2);
            EXPECT_EQ(parallel.points[k].samples_evaluated,
                      reference.points[k].samples_evaluated);
            EXPECT_EQ(parallel.points[k].operational, reference.points[k].operational);
            EXPECT_EQ(parallel.points[k].blocked, reference.points[k].blocked);
        }
    }
    // the serialized curves are byte-identical too (the CLI's artifact)
    sweep.num_threads = 3;
    EXPECT_EQ(to_json(defect_yield_sweep(design, SimulationParameters{}, sweep)),
              to_json(reference));
}

}  // namespace
