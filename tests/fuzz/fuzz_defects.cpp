/// \file fuzz_defects.cpp
/// \brief Differential fuzzing of the defect-aware simulation path: the
///        defect oracle across seeds and operating points, and the .sqd
///        reader against mutated / garbage documents (which must record
///        errors, never throw).

#include "io/sqd_reader.hpp"
#include "io/sqd_writer.hpp"
#include "phys/defect.hpp"
#include "testing/oracles.hpp"
#include "testing/random.hpp"
#include "testing/reproducer.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <string>

namespace
{

using namespace bestagon;
using bestagon::logic::TruthTable;

/// The validated vertical BDL wire in tile-local coordinates.
phys::GateDesign vertical_wire()
{
    phys::GateDesign d;
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

TEST(FuzzDefects, DefectDifferentialAcrossSeedsAndOperatingPoints)
{
    const auto budget = testkit::fuzz_budget(0x6d0'0010, 12);
    const auto design = vertical_wire();
    for (std::uint64_t i = 0; i < budget.iterations; ++i)
    {
        const auto seed = testkit::case_seed(budget.base_seed, i);
        phys::SimulationParameters params;
        params.mu_minus = (i % 2 == 0) ? -0.32 : -0.28;  // both paper operating points
        const auto verdict = testkit::defect_differential(design, params, seed);
        ASSERT_TRUE(verdict.ok) << verdict.detail << '\n'
                                << testkit::reproducer("defects", budget.base_seed, i);
    }
}

/// The .sqd reader's whole contract is "record, don't throw": any mutation
/// of a well-formed document — and any outright garbage — must come back as
/// SqdContents with errors, never as an exception.
TEST(FuzzDefects, SqdReaderNeverThrowsOnMutatedDocuments)
{
    const auto budget = testkit::fuzz_budget(0x6d0'0011, 200);
    const auto design = vertical_wire();

    phys::DefectSurface surface;
    const phys::DefectRegion region{-10, 40, -10, 40};
    phys::DefectSampleParams sample_params;
    sample_params.density_per_nm2 = 0.02;
    // the range-for must not iterate a member of a temporary: name the sample
    const auto sampled = sample_defect_surface(region, sample_params, 7);
    for (const auto& d : sampled.defects())
    {
        surface.add(d);
    }
    std::ostringstream out;
    io::write_sqd(out, design, surface);
    const std::string pristine = out.str();

    for (std::uint64_t i = 0; i < budget.iterations; ++i)
    {
        testkit::Rng rng{testkit::case_seed(budget.base_seed, i)};
        std::string doc = pristine;
        const unsigned mutations = 1 + static_cast<unsigned>(rng.below(8));
        for (unsigned m = 0; m < mutations; ++m)
        {
            const auto pos = static_cast<std::size_t>(rng.below(doc.size()));
            switch (rng.below(3))
            {
                case 0:  // overwrite with a random byte
                    doc[pos] = static_cast<char>(rng.below(256));
                    break;
                case 1:  // delete a span
                    doc.erase(pos, 1 + static_cast<std::size_t>(rng.below(16)));
                    break;
                default:  // duplicate a span (unbalances open/close tags)
                    doc.insert(pos, doc.substr(pos, 1 + static_cast<std::size_t>(rng.below(16))));
                    break;
            }
            if (doc.empty())
            {
                doc = "x";
            }
        }
        std::istringstream in{doc};
        io::SqdContents contents;
        ASSERT_NO_THROW(contents = io::read_sqd(in))
            << testkit::reproducer("sqd-mutate", budget.base_seed, i);
        // defects that did parse must have survived DefectSurface validation
        for (const auto& d : contents.defects.defects())
        {
            ASSERT_GE(d.exclusion_radius_nm, 0.0)
                << testkit::reproducer("sqd-mutate", budget.base_seed, i);
        }
    }
}

/// Mutation coverage: an engine that drops the defect background must be
/// detected by the oracle.
TEST(FuzzDefects, OracleCatchesIgnoredDefectPotentials)
{
    const auto verdict =
        testkit::defect_differential(vertical_wire(), phys::SimulationParameters{}, 0xbad5eed,
                                     1e-12, testkit::DefectFault::ignore_defect_potentials);
    ASSERT_FALSE(verdict.ok) << "oracle missed a kernel that ignores defect potentials";
    EXPECT_NE(verdict.detail.find("v_"), std::string::npos) << verdict.detail;
}

}  // namespace
