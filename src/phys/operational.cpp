#include "phys/operational.hpp"

#include "core/thread_pool.hpp"

#include <algorithm>
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

/// A pattern addresses one truth-table row: it must be below 2^num_inputs
/// (every 64-bit pattern is in range for a gate with more inputs than
/// max_gate_inputs).
void require_pattern_in_range(const GateDesign& design, std::uint64_t pattern)
{
    if (design.num_inputs() <= max_gate_inputs && (pattern >> design.num_inputs()) != 0)
    {
        throw std::invalid_argument{"simulate_gate_pattern: gate '" + design.name + "' has " +
                                    std::to_string(design.num_inputs()) + " inputs; pattern " +
                                    std::to_string(pattern) + " is not below 2^" +
                                    std::to_string(design.num_inputs())};
    }
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

GateInstanceCache::GateInstanceCache(const GateDesign& design, const SimulationParameters& params,
                                     const DefectSurface* defects)
    : design_{&design}, params_{params}, defects_{defects}
{
    validate_parameters(params_);
    const std::size_t k = design.drivers.size();
    const std::size_t num_fixed = design.sites.size();
    const auto sites = design.instance_sites(0);  // driver slots hold the far sites
    const std::size_t n = sites.size();

    const auto is_driver = [&](std::size_t t) { return t >= num_fixed && t < num_fixed + k; };

    if (defects != nullptr && !defects->empty())
    {
        // blocked-site scan over every site any pattern can instantiate:
        // the pattern-0 sites (far drivers included) plus every near driver
        // position
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
        for (const auto& s : sites)
        {
            record_blocked(s);
        }
        for (const auto& drv : design.drivers)
        {
            record_blocked(drv.near_site);
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
            if (!is_driver(t) && sites[t] == s)
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
    if (defects_ == nullptr)
    {
        return SiDBSystem{design_->instance_sites(pattern), params_};
    }
    return SiDBSystem{design_->instance_sites(pattern), params_, *defects_};
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
                                    const SimulationParameters& params, const core::RunBudget& run)
{
    const GateInstanceCache cache{design, params};
    return simulate_gate_pattern(cache, pattern, run);
}

PatternResult simulate_gate_pattern(const GateInstanceCache& cache, std::uint64_t pattern,
                                    const core::RunBudget& run)
{
    const GateDesign& design = cache.design();
    require_pattern_in_range(design, pattern);

    PatternResult result;
    result.pattern = pattern;

    const SiDBSystem system = cache.instantiate(pattern);
    result.sites = system.sites();
    // engine dispatch (incl. the stochastic engine's seed/thread wiring)
    // lives in one place: find_ground_state runs params.engine
    result.ground_state = find_ground_state(system, run);
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

/// Shared pattern fan-out of both check_operational overloads: the prebuilt
/// cache (defect-free or defect-aware) is shared read-only by the whole run.
OperationalResult check_operational_cached(const GateInstanceCache& cache,
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
                           result.details[pattern] = simulate_gate_pattern(cache, pattern, run);
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
                                    const core::RunBudget& run)
{
    require_pattern_arity(design);
    // one cache (output-pair indices) shared read-only by the whole fan-out
    const GateInstanceCache cache{design, params};
    return check_operational_cached(cache, run);
}

OperationalResult check_operational(const GateDesign& design, const SimulationParameters& params,
                                    const DefectSurface& defects, const core::RunBudget& run)
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
    return check_operational_cached(cache, run);
}

}  // namespace bestagon::phys
