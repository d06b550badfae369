#include "phys/operational.hpp"

#include "core/thread_pool.hpp"

#include <algorithm>
#include <cassert>
#include <sstream>
#include <stdexcept>
#include <string>

namespace bestagon::phys
{

std::vector<SiDBSite> GateDesign::instance_sites(std::uint64_t pattern) const
{
    std::vector<SiDBSite> all;
    instance_sites(pattern, all);
    return all;
}

void GateDesign::instance_sites(std::uint64_t pattern, std::vector<SiDBSite>& out) const
{
    out.clear();
    out.reserve(sites.size() + drivers.size() + output_perturbers.size());
    out.insert(out.end(), sites.begin(), sites.end());
    for (std::size_t i = 0; i < drivers.size(); ++i)
    {
        const bool one = ((pattern >> i) & 1ULL) != 0;
        out.push_back(one ? drivers[i].near_site : drivers[i].far_site);
    }
    out.insert(out.end(), output_perturbers.begin(), output_perturbers.end());
}

namespace
{

std::string describe_missing_site(const SiDBSite& s, const char* role)
{
    std::ostringstream out;
    out << "BDL pair's " << role << " site (" << s.n << ", " << s.m << ", " << s.l
        << ") is not among the instance sites";
    return out.str();
}

}  // namespace

PairState read_pair(const BDLPair& pair, const std::vector<SiDBSite>& sites,
                    const ChargeConfig& config, std::string* error)
{
    const auto find_site = [&](const SiDBSite& s) -> int {
        const auto it = std::find(sites.begin(), sites.end(), s);
        return it == sites.end() ? -1 : static_cast<int>(it - sites.begin());
    };
    const int zi = find_site(pair.zero_site);
    const int oi = find_site(pair.one_site);
    if (zi < 0 || oi < 0)
    {
        if (error != nullptr)
        {
            *error = describe_missing_site(zi < 0 ? pair.zero_site : pair.one_site,
                                           zi < 0 ? "zero" : "one");
        }
        return PairState::undefined;
    }
    return read_pair_indexed(static_cast<std::size_t>(zi), static_cast<std::size_t>(oi), config);
}

PairState read_pair_indexed(std::size_t zero_index, std::size_t one_index,
                            const ChargeConfig& config)
{
    const bool z = config[zero_index] != 0;
    const bool o = config[one_index] != 0;
    if (o && !z)
    {
        return PairState::one;
    }
    if (z && !o)
    {
        return PairState::zero;
    }
    return PairState::undefined;
}

const SiDBSite& GateInstanceCache::driver_site(std::size_t d, bool one) const
{
    return one ? design_->drivers[d].near_site : design_->drivers[d].far_site;
}

GateInstanceCache::GateInstanceCache(const GateDesign& design, const SimulationParameters& params,
                                     const DefectSurface* defects)
    : design_{&design}, params_{params}
{
    validate_parameters(params_);
    const std::size_t k = design.drivers.size();
    num_fixed_ = design.sites.size();
    design.instance_sites(0, base_sites_);  // driver slots hold the far (pattern-0) sites
    const std::size_t n = base_sites_.size();

    const auto is_driver = [&](std::size_t t) { return t >= num_fixed_ && t < num_fixed_ + k; };

    if (defects != nullptr && !defects->empty())
    {
        // blocked-site scan over every site any pattern can instantiate:
        // the fixed sites (far drivers included via pattern 0) plus every
        // near driver position
        const auto record_blocked = [&](const SiDBSite& s) {
            if (blocked_)
            {
                return;
            }
            if (const auto* d = defects->blocking_defect(s); d != nullptr)
            {
                std::ostringstream out;
                out << "site (" << s.n << ", " << s.m << ", " << s.l
                    << ") is blocked by the defect at (" << d->site.n << ", " << d->site.m << ", "
                    << d->site.l << ")";
                blocked_ = true;
                blocked_reason_ = out.str();
            }
        };
        for (const auto& s : base_sites_)
        {
            record_blocked(s);
        }
        for (const auto& drv : design.drivers)
        {
            record_blocked(drv.near_site);
        }
        // external rows: one W per site (driver slots carry the far W) plus
        // the near/far pair per driver — evaluated once per (design, params,
        // surface), not once per pattern. Skipped entirely on a blocked
        // design (a coincident defect would make W singular).
        if (!blocked_ && defects->has_charged())
        {
            external_fixed_ = defects->external_potentials(base_sites_, params_);
            external_driver_.assign(2 * k, 0.0);
            for (std::size_t d = 0; d < k; ++d)
            {
                external_driver_[2 * d] = defects->external_potential(driver_site(d, false), params_);
                external_driver_[2 * d + 1] =
                    defects->external_potential(driver_site(d, true), params_);
            }
        }
    }

    // pattern-invariant block: every pair not involving a driver slot
    fixed_block_.assign(n * n, 0.0);
    for (std::size_t i = 0; i < n; ++i)
    {
        if (is_driver(i))
        {
            continue;
        }
        for (std::size_t j = i + 1; j < n; ++j)
        {
            if (is_driver(j))
            {
                continue;
            }
            const double v = screened_coulomb(distance_nm(base_sites_[i], base_sites_[j]), params_);
            fixed_block_[i * n + j] = v;
            fixed_block_[j * n + i] = v;
        }
    }

    // both potential rows of every driver (index 0 = far/logic-0, 1 = near)
    driver_rows_.assign(2 * k * n, 0.0);
    for (std::size_t d = 0; d < k; ++d)
    {
        for (int s = 0; s < 2; ++s)
        {
            double* row = driver_rows_.data() + (2 * d + s) * n;
            const SiDBSite& site = driver_site(d, s != 0);
            for (std::size_t t = 0; t < n; ++t)
            {
                if (!is_driver(t))
                {
                    row[t] = screened_coulomb(distance_nm(site, base_sites_[t]), params_);
                }
            }
        }
    }

    // all 4 state combinations of every ordered driver pair (d < e)
    driver_pairs_.assign(4 * k * k, 0.0);
    for (std::size_t d = 0; d < k; ++d)
    {
        for (std::size_t e = d + 1; e < k; ++e)
        {
            for (int sd = 0; sd < 2; ++sd)
            {
                for (int se = 0; se < 2; ++se)
                {
                    driver_pairs_[((d * k + e) * 2 + sd) * 2 + se] = screened_coulomb(
                        distance_nm(driver_site(d, sd != 0), driver_site(e, se != 0)), params_);
                }
            }
        }
    }

    // resolve output pairs to fixed-site indices once per design
    const std::size_t outputs = design.output_pairs.size();
    output_zero_index_.assign(outputs, 0);
    output_one_index_.assign(outputs, 0);
    output_pair_errors_.assign(outputs, std::string{});
    const auto find_fixed = [&](const SiDBSite& s) -> std::size_t {
        for (std::size_t t = 0; t < n; ++t)
        {
            if (!is_driver(t) && base_sites_[t] == s)
            {
                return t;
            }
        }
        return n;
    };
    for (std::size_t o = 0; o < outputs; ++o)
    {
        const auto zi = find_fixed(design.output_pairs[o].zero_site);
        const auto oi = find_fixed(design.output_pairs[o].one_site);
        if (zi == n || oi == n)
        {
            output_pair_errors_[o] =
                describe_missing_site(zi == n ? design.output_pairs[o].zero_site
                                              : design.output_pairs[o].one_site,
                                      zi == n ? "zero" : "one");
            continue;
        }
        output_zero_index_[o] = zi;
        output_one_index_[o] = oi;
    }
}

SiDBSystem GateInstanceCache::instantiate(std::uint64_t pattern) const
{
    const std::size_t n = base_sites_.size();
    const std::size_t k = design_->drivers.size();

    std::vector<SiDBSite> sites = base_sites_;
    std::vector<double> potentials = fixed_block_;

    for (std::size_t d = 0; d < k; ++d)
    {
        const bool one = ((pattern >> d) & 1ULL) != 0;
        const std::size_t row_index = num_fixed_ + d;
        sites[row_index] = driver_site(d, one);
        const double* row = driver_rows_.data() + (2 * d + (one ? 1 : 0)) * n;
        double* dst = potentials.data() + row_index * n;
        for (std::size_t t = 0; t < n; ++t)
        {
            dst[t] = row[t];                     // driver row
            potentials[t * n + row_index] = row[t];  // symmetric column
        }
    }
    for (std::size_t d = 0; d < k; ++d)
    {
        const std::size_t sd = (pattern >> d) & 1ULL;
        for (std::size_t e = d + 1; e < k; ++e)
        {
            const std::size_t se = (pattern >> e) & 1ULL;
            const double v = driver_pairs_[((d * k + e) * 2 + sd) * 2 + se];
            potentials[(num_fixed_ + d) * n + (num_fixed_ + e)] = v;
            potentials[(num_fixed_ + e) * n + (num_fixed_ + d)] = v;
        }
    }
    if (external_fixed_.empty())
    {
        return SiDBSystem::from_potentials(std::move(sites), params_, std::move(potentials));
    }
    // charged-defect background: copy the precomputed W rows and overwrite
    // each driver slot with the W of the position this pattern selects
    std::vector<double> external = external_fixed_;
    for (std::size_t d = 0; d < k; ++d)
    {
        const bool one = ((pattern >> d) & 1ULL) != 0;
        external[num_fixed_ + d] = external_driver_[2 * d + (one ? 1 : 0)];
    }
    return SiDBSystem::from_potentials(std::move(sites), params_, std::move(potentials),
                                       std::move(external));
}

PairState GateInstanceCache::read_output(std::size_t o, const ChargeConfig& config) const
{
    if (!output_pair_errors_[o].empty())
    {
        return PairState::undefined;
    }
    return read_pair_indexed(output_zero_index_[o], output_one_index_[o], config);
}

PatternResult simulate_gate_pattern(const GateDesign& design, std::uint64_t pattern,
                                    const SimulationParameters& params, Engine engine,
                                    const core::RunBudget& run)
{
    const GateInstanceCache cache{design, params};
    return simulate_gate_pattern(cache, pattern, engine, run);
}

PatternResult simulate_gate_pattern(const GateInstanceCache& cache, std::uint64_t pattern,
                                    Engine engine, const core::RunBudget& run)
{
    const GateDesign& design = cache.design();

    PatternResult result;
    result.pattern = pattern;

    const SiDBSystem system = cache.instantiate(pattern);
    result.sites = system.sites();
    // engine dispatch (incl. the stochastic engines' seed/thread wiring)
    // lives in one place: find_ground_state resolves Engine::automatic
    // against params.engine — Engine::exact by default
    result.ground_state = find_ground_state(system, engine, run);
    if (result.ground_state.config.size() != system.size())
    {
        // a search cut before its first valid configuration has nothing to
        // read out: the pattern stays unevaluated, like a skipped one
        return result;
    }
    result.evaluated = true;

    result.correct = true;
    // bestagon-lint: no-poll-ok(O(outputs) readout of an already-computed ground state via O(1) pre-resolved indices; no engine work left to cut)
    for (std::size_t o = 0; o < design.output_pairs.size(); ++o)
    {
        const auto state = cache.read_output(o, result.ground_state.config);
        result.output_states.push_back(state);
        const bool expected = design.functions[o].get_bit(pattern);
        const auto expected_state = expected ? PairState::one : PairState::zero;
        if (state != expected_state)
        {
            result.correct = false;
        }
    }
    return result;
}

namespace
{

void require_pattern_arity(const GateDesign& design)
{
    if (design.num_inputs() > max_gate_inputs)
    {
        throw std::invalid_argument{"check_operational: gate '" + design.name + "' has " +
                                    std::to_string(design.num_inputs()) +
                                    " inputs; the pattern enumeration supports at most " +
                                    std::to_string(max_gate_inputs)};
    }
}

/// Shared pattern fan-out of both check_operational overloads: the prebuilt
/// cache (defect-free or defect-aware) is shared read-only by the whole run.
OperationalResult check_operational_cached(const GateInstanceCache& cache, Engine engine,
                                           const core::RunBudget& run)
{
    OperationalResult result;
    result.patterns_total = 1ULL << cache.design().num_inputs();

    // the per-pattern simulations are independent; fan them out and write
    // each result into its pattern-indexed slot (patterns skipped after a
    // stop keep their default slot with evaluated == false)
    result.details.resize(result.patterns_total);
    for (std::uint64_t p = 0; p < result.patterns_total; ++p)
    {
        result.details[p].pattern = p;  // keep indices on skipped slots, too
    }
    core::parallel_for(cache.parameters().num_threads, result.patterns_total, run,
                       [&](std::size_t pattern) {
                           result.details[pattern] = simulate_gate_pattern(cache, pattern, engine, run);
                       });
    result.cancelled = run.stopped();

    for (const auto& pr : result.details)
    {
        if (pr.correct)
        {
            ++result.patterns_correct;
        }
    }
    result.operational = result.patterns_correct == result.patterns_total;
    return result;
}

}  // namespace

OperationalResult check_operational(const GateDesign& design, const SimulationParameters& params,
                                    Engine engine, const core::RunBudget& run)
{
    require_pattern_arity(design);
    // one pattern-invariant potential cache shared (read-only) by the whole
    // fan-out: the fixed n x n block is evaluated once, not 2^k times
    const GateInstanceCache cache{design, params};
    return check_operational_cached(cache, engine, run);
}

OperationalResult check_operational(const GateDesign& design, const SimulationParameters& params,
                                    const DefectSurface& defects, Engine engine,
                                    const core::RunBudget& run)
{
    require_pattern_arity(design);
    const GateInstanceCache cache{design, params, &defects};
    if (cache.blocked())
    {
        // nothing is simulated: the blocked site's Coulomb terms may be
        // singular, and the design cannot be fabricated as laid out anyway
        OperationalResult result;
        result.patterns_total = 1ULL << design.num_inputs();
        result.blocked = true;
        result.blocked_reason = cache.blocked_reason();
        return result;
    }
    return check_operational_cached(cache, engine, run);
}

}  // namespace bestagon::phys
