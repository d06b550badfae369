#include "phys/operational_domain.hpp"

#include "core/thread_pool.hpp"

namespace bestagon::phys
{

double OperationalDomain::coverage() const
{
    if (points.empty())
    {
        return 0.0;
    }
    std::size_t ok = 0;
    for (const auto& p : points)
    {
        if (p.operational)
        {
            ++ok;
        }
    }
    return static_cast<double>(ok) / static_cast<double>(points.size());
}

namespace
{

OperationalDomain compute_operational_domain_impl(const GateDesign& design,
                                                  const SimulationParameters& base,
                                                  const DomainSweep& sweep,
                                                  const DefectSurface* defects,
                                                  const core::RunBudget& run)
{
    OperationalDomain domain;
    domain.sweep = sweep;

    const auto x_at = [&](unsigned i) {
        return sweep.x_steps <= 1
                   ? sweep.x_min
                   : sweep.x_min + (sweep.x_max - sweep.x_min) * i / (sweep.x_steps - 1);
    };
    const auto y_at = [&](unsigned j) {
        return sweep.y_steps <= 1
                   ? sweep.y_min
                   : sweep.y_min + (sweep.y_max - sweep.y_min) * j / (sweep.y_steps - 1);
    };

    // grid points are mutually independent simulations; evaluate them
    // concurrently, each writing its own row-major slot
    const std::size_t total = static_cast<std::size_t>(sweep.x_steps) * sweep.y_steps;
    domain.points.resize(total);
    // bestagon-lint: no-poll-ok(coordinate pre-fill so points skipped after a stop still plot; the simulation fan-out below polls via the run-aware parallel_for)
    for (std::size_t index = 0; index < total; ++index)
    {
        // pre-fill coordinates so points skipped after a stop still plot
        domain.points[index].x = x_at(static_cast<unsigned>(index % sweep.x_steps));
        domain.points[index].y = y_at(static_cast<unsigned>(index / sweep.x_steps));
    }
    core::parallel_for(base.num_threads, total, run, [&](std::size_t index) {
        const unsigned i = static_cast<unsigned>(index % sweep.x_steps);
        const unsigned j = static_cast<unsigned>(index / sweep.x_steps);
        SimulationParameters params = base;
        DomainPoint point;
        point.x = x_at(i);
        point.y = y_at(j);
        if (sweep.axes == DomainAxes::epsilon_r_vs_lambda_tf)
        {
            params.epsilon_r = point.x;
            params.lambda_tf = point.y;
        }
        else
        {
            params.mu_minus = point.x;
            params.epsilon_r = point.y;
        }
        const auto result = defects != nullptr ? check_operational(design, params, *defects, run)
                                               : check_operational(design, params, run);
        point.operational = result.operational && !result.cancelled;
        point.patterns_correct = result.patterns_correct;
        // a blocked point counts as evaluated: the verdict (non-operational,
        // unfabricable) is final even though nothing was simulated
        point.evaluated = !result.cancelled;
        domain.points[index] = point;
    });
    domain.cancelled = run.stopped();
    return domain;
}

}  // namespace

OperationalDomain compute_operational_domain(const GateDesign& design, const SimulationParameters& base,
                                             const DomainSweep& sweep, const core::RunBudget& run)
{
    return compute_operational_domain_impl(design, base, sweep, nullptr, run);
}

OperationalDomain compute_operational_domain(const GateDesign& design, const SimulationParameters& base,
                                             const DomainSweep& sweep, const DefectSurface& defects,
                                             const core::RunBudget& run)
{
    return compute_operational_domain_impl(design, base, sweep, &defects, run);
}

}  // namespace bestagon::phys
