/// \file operational_domain.hpp
/// \brief Operational-domain evaluation: sweep physical parameters and record
///        where a gate design remains operational. This implements the
///        "streamlined operational domain evaluation framework" listed as
///        future work in the paper's conclusion.

#pragma once

#include "phys/operational.hpp"

#include <vector>

namespace bestagon::phys
{

/// Which two parameters span the domain grid.
enum class DomainAxes : std::uint8_t
{
    epsilon_r_vs_lambda_tf,
    mu_vs_epsilon_r
};

struct DomainSweep
{
    DomainAxes axes{DomainAxes::epsilon_r_vs_lambda_tf};
    double x_min{1.0}, x_max{10.0};
    unsigned x_steps{10};
    double y_min{1.0}, y_max{10.0};
    unsigned y_steps{10};
};

struct DomainPoint
{
    double x{0.0};
    double y{0.0};
    bool operational{false};
    std::uint64_t patterns_correct{0};
    bool evaluated{false};  ///< false when the point was skipped by a stop
};

struct OperationalDomain
{
    DomainSweep sweep;
    std::vector<DomainPoint> points;  ///< row-major, y outer
    bool cancelled{false};            ///< the sweep was cut by a run budget

    /// Fraction of grid points that are operational.
    [[nodiscard]] double coverage() const;
};

/// Evaluates the operational domain of \p design on a grid. Parameters not
/// spanned by the grid are taken from \p base, including base.num_threads,
/// which fans the independent grid-point simulations out across workers
/// (0 = hardware concurrency, 1 = serial; the point order and every result
/// are identical for any thread count).
[[nodiscard]] OperationalDomain compute_operational_domain(const GateDesign& design,
                                                           const SimulationParameters& base,
                                                           const DomainSweep& sweep,
                                                           const core::RunBudget& run = {});

}  // namespace bestagon::phys
