#include "phys/model.hpp"

#include "phys/charge_state.hpp"
#include "phys/defect.hpp"

#include <cassert>
#include <cmath>
#include <sstream>
#include <stdexcept>
#include <utility>

namespace bestagon::phys
{

void validate_parameters(const SimulationParameters& params)
{
    if (!(params.epsilon_r > 0.0) || !std::isfinite(params.epsilon_r))
    {
        throw std::invalid_argument{"SimulationParameters: non-positive epsilon_r " +
                                    std::to_string(params.epsilon_r)};
    }
    if (!(params.lambda_tf > 0.0) || !std::isfinite(params.lambda_tf))
    {
        throw std::invalid_argument{"SimulationParameters: non-positive lambda_tf " +
                                    std::to_string(params.lambda_tf)};
    }
}

double screened_coulomb(double r_nm, const SimulationParameters& params)
{
    assert(r_nm > 0.0);
    return coulomb_k / (params.epsilon_r * r_nm) * std::exp(-r_nm / params.lambda_tf);
}

SiDBSystem::SiDBSystem(std::vector<SiDBSite> sites, const SimulationParameters& params)
    : sites_{std::move(sites)}, params_{params}
{
    validate_parameters(params_);
    const std::size_t n = sites_.size();
    potentials_.assign(n * n, 0.0);
    for (std::size_t i = 0; i < n; ++i)
    {
        for (std::size_t j = i + 1; j < n; ++j)
        {
            const double v = screened_coulomb(distance_nm(sites_[i], sites_[j]), params_);
            potentials_[i * n + j] = v;
            potentials_[j * n + i] = v;
        }
    }
}

SiDBSystem::SiDBSystem(std::vector<SiDBSite> sites, const SimulationParameters& params,
                       const DefectSurface& defects)
    : SiDBSystem{std::move(sites), params}
{
    for (const auto& s : sites_)
    {
        if (const auto* d = defects.blocking_defect(s); d != nullptr)
        {
            std::ostringstream out;
            out << "SiDBSystem: site (" << s.n << ", " << s.m << ", " << s.l
                << ") is blocked by the defect at (" << d->site.n << ", " << d->site.m << ", "
                << d->site.l << ")";
            throw std::invalid_argument{out.str()};
        }
    }
    external_ = defects.external_potentials(sites_, params_);
}

double SiDBSystem::electrostatic_energy(const ChargeConfig& config) const
{
    assert(config.size() == sites_.size());
    double energy = 0.0;
    for (std::size_t i = 0; i < sites_.size(); ++i)
    {
        if (config[i] == 0)
        {
            continue;
        }
        for (std::size_t j = i + 1; j < sites_.size(); ++j)
        {
            if (config[j] != 0)
            {
                energy += potential(i, j);
            }
        }
    }
    // defect background: each charge pays its site's external potential once
    if (!external_.empty())
    {
        for (std::size_t i = 0; i < sites_.size(); ++i)
        {
            if (config[i] != 0)
            {
                energy += external_[i];
            }
        }
    }
    return energy;
}

double SiDBSystem::grand_potential(const ChargeConfig& config) const
{
    double charges = 0.0;
    for (const auto c : config)
    {
        charges += c;
    }
    return electrostatic_energy(config) + params_.mu_minus * charges;
}

double SiDBSystem::local_potential(const ChargeConfig& config, std::size_t i) const
{
    // starts from the defect background W_i (0.0 for a defect-free system,
    // preserving the pre-defect floating-point sequence bit-for-bit)
    double v = external_potential(i);
    for (std::size_t j = 0; j < sites_.size(); ++j)
    {
        if (j != i && config[j] != 0)
        {
            v += potential(i, j);
        }
    }
    return v;
}

bool SiDBSystem::population_stable(const ChargeConfig& config) const
{
    return ChargeState{*this, config}.population_stable();
}

bool SiDBSystem::configuration_stable(const ChargeConfig& config) const
{
    return ChargeState{*this, config}.configuration_stable();
}

bool SiDBSystem::physically_valid(const ChargeConfig& config) const
{
    const ChargeState state{*this, config};
    return state.population_stable() && state.configuration_stable();
}

void SiDBSystem::quench(ChargeConfig& config) const
{
    ChargeState state{*this, std::move(config)};
    state.quench();
    config = state.config();
}

}  // namespace bestagon::phys
