#include "phys/charge_state.hpp"

#include <cassert>
#include <stdexcept>
#include <string>
#include <utility>

namespace bestagon::phys
{

namespace
{

/// A configuration/system size mismatch used to be a debug-only assert, so a
/// release build silently indexed out of bounds on every row update. Promote
/// it to a thrown contract error (the output-pair readout precedent: a
/// recorded error instead of silent garbage).
void require_matching_size(std::size_t config_size, std::size_t system_size)
{
    if (config_size != system_size)
    {
        throw std::invalid_argument{"ChargeState: configuration has " +
                                    std::to_string(config_size) + " sites but the system has " +
                                    std::to_string(system_size)};
    }
}

}  // namespace

ChargeState::ChargeState(const SiDBSystem& system)
    : system_{&system}, config_(system.size(), 0), v_(system.size(), 0.0)
{
    // all-neutral local potentials are the defect background (exact)
    if (system.has_external_potentials())
    {
        v_ = system.external_potentials();
    }
}

ChargeState::ChargeState(const SiDBSystem& system, ChargeConfig config)
    : system_{&system}, config_{std::move(config)}
{
    require_matching_size(config_.size(), system.size());
    rebuild();
}

void ChargeState::assign(ChargeConfig config)
{
    require_matching_size(config.size(), system_->size());
    config_ = std::move(config);
    rebuild();
}

void ChargeState::rebuild()
{
    const std::size_t n = config_.size();
    v_.assign(n, 0.0);
    num_charges_ = 0;
    // Per-site fresh summation in ascending j order — the exact operation
    // sequence of SiDBSystem::local_potential, so rebuilt values are
    // bit-identical to the naive evaluator's. The defect background W_i is
    // the summation's starting value (0.0 on a defect-free system); every
    // incremental commit then carries it along for free, which is how the
    // quench sees charged defects without any change (the exact engine
    // starts its own potentials from the same W_i).
    for (std::size_t i = 0; i < n; ++i)
    {
        double v = system_->external_potential(i);
        for (std::size_t j = 0; j < n; ++j)
        {
            if (j != i && config_[j] != 0)
            {
                v += system_->potential(i, j);
            }
        }
        v_[i] = v;
    }
    for (const auto c : config_)
    {
        num_charges_ += c;
    }
}

void ChargeState::commit_flip(std::size_t i)
{
    const std::size_t n = config_.size();
    const double* row = system_->potential_row(i);
    double* v = v_.data();
    // Ascending-j row application with the flipped site skipped, as two
    // branch-free runs [0, i) and (i, n) the compiler can vectorize. Each
    // v_j still receives exactly one +-V_ij per commit, in ascending j, so
    // the quench's float trajectory is that of the per-element loop bit
    // for bit. (Adding the zero diagonal instead of skipping it would not
    // be: -0.0 + 0.0 is +0.0.)
    if (config_[i] == 0)
    {
        for (std::size_t j = 0; j < i; ++j)
        {
            v[j] += row[j];
        }
        for (std::size_t j = i + 1; j < n; ++j)
        {
            v[j] += row[j];
        }
        config_[i] = 1;
        ++num_charges_;
    }
    else
    {
        for (std::size_t j = 0; j < i; ++j)
        {
            v[j] -= row[j];
        }
        for (std::size_t j = i + 1; j < n; ++j)
        {
            v[j] -= row[j];
        }
        config_[i] = 0;
        --num_charges_;
    }
}

void ChargeState::commit_hop(std::size_t from, std::size_t to)
{
    assert(config_[from] != 0 && config_[to] == 0 && from != to);
    const std::size_t n = config_.size();
    const double* to_row = system_->potential_row(to);
    const double* from_row = system_->potential_row(from);
    double* v = v_.data();
    // Fused single pass: v_t += V_to,t - V_from,t. The zero diagonal of the
    // potential matrix makes the endpoints come out right without branches
    // (v_from gains +V_ft from the arriving charge, v_to loses -V_ft from
    // the departing one).
    for (std::size_t t = 0; t < n; ++t)
    {
        v[t] += to_row[t] - from_row[t];
    }
    config_[from] = 0;
    config_[to] = 1;
}

bool ChargeState::population_stable() const
{
    const double mu = system_->parameters().mu_minus;
    const double tol = system_->parameters().stability_tolerance;
    for (std::size_t i = 0; i < config_.size(); ++i)
    {
        const double level = mu + v_[i];
        if (config_[i] != 0 && level > tol)
        {
            return false;  // negative site whose transition level is above E_F
        }
        if (config_[i] == 0 && level < -tol)
        {
            return false;  // neutral site that would rather hold an electron
        }
    }
    return true;
}

bool ChargeState::configuration_stable() const
{
    const double tol = system_->parameters().stability_tolerance;
    for (std::size_t i = 0; i < config_.size(); ++i)
    {
        if (config_[i] == 0)
        {
            continue;
        }
        for (std::size_t j = 0; j < config_.size(); ++j)
        {
            if (config_[j] != 0 || j == i)
            {
                continue;
            }
            if (delta_hop(i, j) < -tol)
            {
                return false;
            }
        }
    }
    return true;
}

void ChargeState::quench()
{
    const std::size_t n = config_.size();
    const double tol = system_->parameters().stability_tolerance;
    bool changed = true;
    while (changed)
    {
        changed = false;
        // single flips along the steepest descent of F
        for (std::size_t i = 0; i < n; ++i)
        {
            if (delta_flip(i) < -tol)
            {
                commit_flip(i);
                changed = true;
            }
        }
        // single hops
        for (std::size_t i = 0; i < n; ++i)
        {
            if (config_[i] == 0)
            {
                continue;
            }
            for (std::size_t j = 0; j < n; ++j)
            {
                if (config_[j] != 0 || j == i)
                {
                    continue;
                }
                if (delta_hop(i, j) < -tol)
                {
                    commit_hop(i, j);
                    changed = true;
                    break;
                }
            }
        }
    }
}

double ChargeState::electrostatic_energy() const
{
    // Each pair V_ij n_i n_j appears in both v_i and v_j: E = 1/2 sum v_i n_i.
    // The external term W_i n_i appears ONCE in v_i, so it must be counted
    // again before halving (adds exactly 0.0 on a defect-free system).
    double twice = 0.0;
    for (std::size_t i = 0; i < config_.size(); ++i)
    {
        if (config_[i] != 0)
        {
            twice += v_[i] + system_->external_potential(i);
        }
    }
    return 0.5 * twice;
}

double ChargeState::grand_potential() const
{
    return electrostatic_energy() +
           system_->parameters().mu_minus * static_cast<double>(num_charges_);
}

void ChargeState::testkit_adopt_config_skip_cache_update(ChargeConfig config)
{
    require_matching_size(config.size(), system_->size());
    config_ = std::move(config);
    num_charges_ = 0;
    for (const auto c : config_)
    {
        num_charges_ += c;
    }
    // deliberately NO rebuild(): this models the skipped cache update
}

void ChargeState::testkit_rebuild_ignore_external()
{
    const std::size_t n = config_.size();
    // rebuild() minus the external starting value: the pre-defect kernel
    // verbatim, i.e. an engine that forgot the defect background
    for (std::size_t i = 0; i < n; ++i)
    {
        double v = 0.0;
        for (std::size_t j = 0; j < n; ++j)
        {
            if (j != i && config_[j] != 0)
            {
                v += system_->potential(i, j);
            }
        }
        v_[i] = v;
    }
}

}  // namespace bestagon::phys
