/// \file defect_sweep.hpp
/// \brief Monte-Carlo robustness sweep: gate yield under randomly sampled
///        fabrication defects.
///
/// For each defect density, N seeded defect surfaces are sampled around the
/// gate's footprint and the gate is checked operational on each. Samples
/// are COUPLED across densities: sample s draws one deterministic defect
/// stream and density k uses its first count_k defects (see
/// sample_defect_surface), so a defect present at a low density is still
/// present at every higher one. A sample therefore counts as operational at
/// density k only if it is operational at every density <= k — the yield
/// curve is a survival curve and monotonically non-increasing in density by
/// construction, and each sample stops simulating at its first failure.
///
/// Samples fan out on the thread pool with per-sample derived seeds, so the
/// curve is bit-identical for any thread count.

#pragma once

#include "core/run_control.hpp"
#include "phys/defect.hpp"
#include "phys/operational.hpp"

#include <cstdint>
#include <string>
#include <vector>

namespace bestagon::phys
{

/// Parameters of a Monte-Carlo defect yield sweep.
struct DefectSweepParams
{
    /// Defect densities to evaluate, in defects/nm^2, strictly ascending.
    /// Experimental H-Si(100) surfaces show roughly 0.001-0.1 defects/nm^2
    /// depending on preparation quality.
    std::vector<double> densities_per_nm2{0.001, 0.002, 0.005, 0.01, 0.02};

    unsigned samples{100};          ///< Monte-Carlo samples per density
    std::uint64_t seed{0xbe57a60d}; ///< base seed; sample s uses derive_seed(seed, s)

    double charged_fraction{0.5};   ///< fraction of charged (vs structural) defects
    double charge{-1.0};            ///< charge of charged defects, units of e
    double exclusion_radius_nm{0.8}; ///< exclusion radius of structural defects

    /// Sampling region margin around the gate's site bounding box, in nm.
    /// Defects farther out are screened to irrelevance (lambda_TF ~ 5 nm).
    double margin_nm{5.0};

    /// Worker threads across samples: 0 = hardware concurrency, 1 = serial.
    /// The per-sample operational checks always run serially (the
    /// parallelism budget is spent on samples), so results are identical
    /// for any value.
    unsigned num_threads{0};

    /// Throws std::invalid_argument on negative/non-finite densities, a
    /// non-ascending density list, charged_fraction outside [0, 1],
    /// non-finite charge, or a negative exclusion radius / margin.
    void validate() const;
};

/// Yield at one defect density.
struct YieldPoint
{
    double density_per_nm2{0.0};
    unsigned samples_evaluated{0};  ///< samples with a verdict at this density
    unsigned operational{0};        ///< samples operational at ALL densities <= this
    unsigned blocked{0};            ///< failed samples whose first failure was a blocked site

    /// Fraction of evaluated samples that survived (0 when none evaluated).
    [[nodiscard]] double yield() const
    {
        return samples_evaluated == 0
                   ? 0.0
                   : static_cast<double>(operational) / static_cast<double>(samples_evaluated);
    }
};

/// Result of a defect yield sweep over one gate design.
struct DefectSweepResult
{
    std::string gate_name;
    DefectRegion region;            ///< the sampled surface region
    std::vector<YieldPoint> points; ///< one per density, in input order
    bool cancelled{false};          ///< the sweep was cut by the run budget;
                                    ///< unevaluated samples are excluded from
                                    ///< every point's samples_evaluated
};

/// The defect sampling region of \p design: the bounding box of every site
/// any input pattern can instantiate, expanded by \p margin_nm.
[[nodiscard]] DefectRegion sweep_region(const GateDesign& design, double margin_nm);

/// Runs the Monte-Carlo yield sweep of \p design under \p params physics.
/// Bit-identical for any sweep.num_threads. Throws std::invalid_argument on
/// invalid sweep parameters (see DefectSweepParams::validate) and on designs
/// exceeding max_gate_inputs.
[[nodiscard]] DefectSweepResult defect_yield_sweep(const GateDesign& design,
                                                   const SimulationParameters& params,
                                                   const DefectSweepParams& sweep,
                                                   const core::RunBudget& run = {});

/// Serializes \p result as a pretty-printed JSON object (the yield-curve
/// artifact published by tools/defect_sweep and the CI bench smoke step).
[[nodiscard]] std::string to_json(const DefectSweepResult& result);

}  // namespace bestagon::phys
