#include "phys/defect_sweep.hpp"

#include "core/thread_pool.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>

namespace bestagon::phys
{

void DefectSweepParams::validate() const
{
    if (densities_per_nm2.empty())
    {
        throw std::invalid_argument{"DefectSweepParams: empty density list"};
    }
    if (samples == 0)
    {
        throw std::invalid_argument{"DefectSweepParams: samples must be positive"};
    }
    double prev = -std::numeric_limits<double>::infinity();
    for (const double d : densities_per_nm2)
    {
        if (!(d >= 0.0) || !std::isfinite(d))
        {
            throw std::invalid_argument{"DefectSweepParams: negative or non-finite density " +
                                        std::to_string(d)};
        }
        if (d <= prev)
        {
            throw std::invalid_argument{
                "DefectSweepParams: densities must be strictly ascending (the survival-curve "
                "coupling walks them in order)"};
        }
        prev = d;
    }
    if (!(margin_nm >= 0.0) || !std::isfinite(margin_nm))
    {
        throw std::invalid_argument{"DefectSweepParams: negative or non-finite margin_nm " +
                                    std::to_string(margin_nm)};
    }
    // the per-defect knobs share the sampler's validation
    DefectSampleParams sample;
    sample.density_per_nm2 = densities_per_nm2.back();
    sample.charged_fraction = charged_fraction;
    sample.charge = charge;
    sample.exclusion_radius_nm = exclusion_radius_nm;
    sample.validate();
}

DefectRegion sweep_region(const GateDesign& design, double margin_nm)
{
    DefectRegion region;
    bool first = true;
    const auto extend = [&](const SiDBSite& s) {
        if (first)
        {
            region.n_min = region.n_max = s.n;
            region.m_min = region.m_max = s.m;
            first = false;
            return;
        }
        region.n_min = std::min(region.n_min, s.n);
        region.n_max = std::max(region.n_max, s.n);
        region.m_min = std::min(region.m_min, s.m);
        region.m_max = std::max(region.m_max, s.m);
    };
    for (const auto& s : design.sites)
    {
        extend(s);
    }
    for (const auto& drv : design.drivers)
    {
        extend(drv.far_site);
        extend(drv.near_site);
    }
    for (const auto& s : design.output_perturbers)
    {
        extend(s);
    }
    const auto dn = static_cast<std::int32_t>(std::ceil(margin_nm / lattice_pitch_x));
    const auto dm = static_cast<std::int32_t>(std::ceil(margin_nm / lattice_pitch_y));
    region.n_min -= dn;
    region.n_max += dn;
    region.m_min -= dm;
    region.m_max += dm;
    return region;
}

namespace
{

/// Verdict of one Monte-Carlo sample across the ascending density walk.
struct SampleOutcome
{
    bool evaluated{false};         ///< false when the run stopped mid-sample
    std::size_t first_failure{0};  ///< density index of the first failure; ==
                                   ///< densities.size() when it never failed
    bool failure_was_blocked{false};
};

/// One sample: walk the densities ascending over nested defect prefixes and
/// stop at the first failure (every higher density contains the defect
/// configuration that already failed, so the verdict is decided).
SampleOutcome evaluate_sample(const GateDesign& design, const SimulationParameters& params,
                              const DefectSweepParams& sweep, const DefectRegion& region,
                              std::uint64_t sample_seed, const core::RunBudget& run)
{
    DefectSampleParams sample_params;
    sample_params.charged_fraction = sweep.charged_fraction;
    sample_params.charge = sweep.charge;
    sample_params.exclusion_radius_nm = sweep.exclusion_radius_nm;

    // one deterministic stream per sample: the surface at density k is the
    // prefix of the full surface at the highest density
    std::vector<std::size_t> counts;
    counts.reserve(sweep.densities_per_nm2.size());
    for (const double density : sweep.densities_per_nm2)
    {
        counts.push_back(defect_count_for_density(region, density, sample_seed));
    }
    const DefectSurface full =
        sample_defect_surface(region, sample_params, sample_seed, counts.back());

    SampleOutcome outcome;
    outcome.first_failure = sweep.densities_per_nm2.size();
    for (std::size_t k = 0; k < sweep.densities_per_nm2.size(); ++k)
    {
        if (run.stopped())
        {
            return outcome;  // evaluated stays false: no verdict for this sample
        }
        // skip re-simulation when this density adds no defect over the last
        if (k > 0 && counts[k] == counts[k - 1])
        {
            continue;
        }
        const DefectSurface surface = full.prefix(counts[k]);
        const auto result = check_operational(design, params, surface, run);
        if (result.cancelled)
        {
            return outcome;
        }
        if (!result.operational)
        {
            outcome.first_failure = k;
            outcome.failure_was_blocked = result.blocked;
            break;
        }
    }
    outcome.evaluated = true;
    return outcome;
}

}  // namespace

DefectSweepResult defect_yield_sweep(const GateDesign& design, const SimulationParameters& params,
                                     const DefectSweepParams& sweep, const core::RunBudget& run)
{
    sweep.validate();
    validate_parameters(params);
    if (design.num_inputs() > max_gate_inputs)
    {
        throw std::invalid_argument{"defect_yield_sweep: gate '" + design.name + "' has " +
                                    std::to_string(design.num_inputs()) +
                                    " inputs; the pattern enumeration supports at most " +
                                    std::to_string(max_gate_inputs)};
    }

    DefectSweepResult result;
    result.gate_name = design.name;
    result.region = sweep_region(design, sweep.margin_nm);
    result.points.resize(sweep.densities_per_nm2.size());
    for (std::size_t k = 0; k < result.points.size(); ++k)
    {
        result.points[k].density_per_nm2 = sweep.densities_per_nm2[k];
    }

    // the parallelism budget is spent across samples; each sample's
    // operational checks run serially so the fan-out is index-addressed and
    // bit-identical for any thread count
    SimulationParameters serial = params;
    serial.num_threads = 1;

    std::vector<SampleOutcome> outcomes(sweep.samples);
    core::parallel_for(sweep.num_threads, sweep.samples, run, [&](std::size_t s) {
        outcomes[s] =
            evaluate_sample(design, serial, sweep, result.region,
                            core::derive_seed(sweep.seed, s), run);
    });
    result.cancelled = run.stopped();

    // serial reduction in sample order: survival accounting per density
    for (const auto& outcome : outcomes)
    {
        if (!outcome.evaluated)
        {
            continue;
        }
        for (std::size_t k = 0; k < result.points.size(); ++k)
        {
            auto& point = result.points[k];
            ++point.samples_evaluated;
            if (outcome.first_failure > k)
            {
                ++point.operational;
            }
            else if (outcome.failure_was_blocked)
            {
                ++point.blocked;
            }
        }
    }
    return result;
}

std::string to_json(const DefectSweepResult& result)
{
    std::ostringstream out;
    out.precision(12);
    out << "{\n";
    out << "  \"gate\": \"" << result.gate_name << "\",\n";
    out << "  \"cancelled\": " << (result.cancelled ? "true" : "false") << ",\n";
    out << "  \"region\": {\"n_min\": " << result.region.n_min
        << ", \"n_max\": " << result.region.n_max << ", \"m_min\": " << result.region.m_min
        << ", \"m_max\": " << result.region.m_max
        << ", \"area_nm2\": " << result.region.area_nm2() << "},\n";
    out << "  \"points\": [\n";
    for (std::size_t k = 0; k < result.points.size(); ++k)
    {
        const auto& p = result.points[k];
        out << "    {\"density_per_nm2\": " << p.density_per_nm2
            << ", \"samples\": " << p.samples_evaluated << ", \"operational\": " << p.operational
            << ", \"blocked\": " << p.blocked << ", \"yield\": " << p.yield() << "}"
            << (k + 1 < result.points.size() ? "," : "") << "\n";
    }
    out << "  ]\n";
    out << "}\n";
    return out.str();
}

}  // namespace bestagon::phys
