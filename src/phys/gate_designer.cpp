#include "phys/gate_designer.hpp"

#include "core/thread_pool.hpp"

#include <algorithm>
#include <optional>
#include <random>
#include <stdexcept>
#include <string>

namespace bestagon::phys
{

namespace
{

/// Score of a candidate design: number of correct patterns, with partial
/// credit for defined-but-wrong outputs over undefined ones.
unsigned score_design(const GateDesign& design, const SimulationParameters& params,
                      const core::RunBudget& run)
{
    unsigned score = 0;
    for (const auto& r : check_operational(design, params, {}, run).details)
    {
        if (r.correct)
        {
            score += 2;
        }
        else if (r.evaluated && std::none_of(r.output_states.begin(), r.output_states.end(),
                                             [](PairState s) { return s == PairState::undefined; }))
        {
            score += 1;  // defined but wrong: closer than undefined
        }
    }
    return score;
}

/// One full stochastic search from a given seed — the legacy serial loop.
std::optional<DesignerResult> run_search(const GateDesign& skeleton,
                                         const std::vector<SiDBSite>& usable,
                                         const DesignerOptions& options,
                                         const SimulationParameters& params, std::uint64_t seed)
{
    std::mt19937_64 rng{seed};
    const std::uint64_t patterns = 1ULL << skeleton.num_inputs();
    const unsigned perfect = static_cast<unsigned>(2 * patterns);

    const auto make_design = [&](const std::vector<SiDBSite>& canvas) {
        GateDesign d = skeleton;
        d.sites.insert(d.sites.end(), canvas.begin(), canvas.end());
        return d;
    };

    std::vector<SiDBSite> best_canvas;
    unsigned best_score = 0;

    for (unsigned iter = 0; iter < options.max_iterations; ++iter)
    {
        if (options.run.stopped())
        {
            return std::nullopt;
        }
        std::vector<SiDBSite> canvas;
        if (iter % 4 != 0 && !best_canvas.empty())
        {
            // local move: mutate the best canvas found so far
            canvas = best_canvas;
            const unsigned move = rng() % 3;
            if (move == 0 && canvas.size() > options.min_canvas_dots)
            {
                canvas.erase(canvas.begin() + static_cast<long>(rng() % canvas.size()));
            }
            else if (move == 1 && canvas.size() < options.max_canvas_dots)
            {
                canvas.push_back(usable[rng() % usable.size()]);
            }
            else if (!canvas.empty())
            {
                canvas[rng() % canvas.size()] = usable[rng() % usable.size()];
            }
        }
        else
        {
            // fresh random subset
            const unsigned k =
                options.min_canvas_dots +
                (options.max_canvas_dots > options.min_canvas_dots
                     ? static_cast<unsigned>(rng() % (options.max_canvas_dots - options.min_canvas_dots + 1))
                     : 0U);
            for (unsigned i = 0; i < k; ++i)
            {
                canvas.push_back(usable[rng() % usable.size()]);
            }
        }
        // drop duplicates
        std::sort(canvas.begin(), canvas.end());
        canvas.erase(std::unique(canvas.begin(), canvas.end()), canvas.end());
        if (canvas.size() < options.min_canvas_dots)
        {
            continue;
        }

        const auto design = make_design(canvas);
        const unsigned score = score_design(design, params, options.run);
        if (options.run.stopped())
        {
            // a score cut short by a stop is not comparable; discard it
            return std::nullopt;
        }
        if (score > best_score)
        {
            best_score = score;
            best_canvas = canvas;
        }
        if (score == perfect)
        {
            DesignerResult result;
            result.design = design;
            result.canvas = canvas;
            result.iterations_used = iter + 1;
            return result;
        }
    }
    return std::nullopt;
}

}  // namespace

std::optional<DesignerResult> design_gate(const GateDesign& skeleton,
                                          const std::vector<SiDBSite>& candidates,
                                          const DesignerOptions& options,
                                          const SimulationParameters& params)
{
    if (skeleton.num_inputs() > max_gate_inputs)
    {
        throw std::invalid_argument{"design_gate: skeleton '" + skeleton.name + "' has " +
                                    std::to_string(skeleton.num_inputs()) +
                                    " inputs; the pattern enumeration supports at most " +
                                    std::to_string(max_gate_inputs)};
    }

    // exclude candidates that collide with skeleton sites, drivers or
    // perturbers
    std::vector<SiDBSite> forbidden = skeleton.sites;
    for (const auto& drv : skeleton.drivers)
    {
        forbidden.push_back(drv.far_site);
        forbidden.push_back(drv.near_site);
    }
    forbidden.insert(forbidden.end(), skeleton.output_perturbers.begin(), skeleton.output_perturbers.end());
    std::vector<SiDBSite> usable;
    usable.reserve(candidates.size());
    for (const auto& c : candidates)
    {
        if (std::find(forbidden.begin(), forbidden.end(), c) != forbidden.end())
        {
            continue;
        }
        usable.push_back(c);
    }
    if (usable.empty())
    {
        return std::nullopt;
    }

    // independent restarts: restart 0 keeps the base seed verbatim (the
    // single-restart trajectory); the winner is the lowest restart index
    // that succeeds, so the result is thread-count invariant. No
    // cross-restart cancellation — aborting a low-index restart because a
    // high-index one succeeded first would make the outcome
    // scheduling-dependent.
    const unsigned restarts = std::max(1U, options.num_restarts);
    std::vector<std::optional<DesignerResult>> outcomes(restarts);
    core::parallel_for(params.num_threads, restarts, options.run, [&](std::size_t r) {
        const std::uint64_t seed = r == 0 ? options.seed : core::derive_seed(options.seed, r);
        outcomes[r] = run_search(skeleton, usable, options, params, seed);
    });
    for (unsigned r = 0; r < restarts; ++r)
    {
        if (outcomes[r].has_value())
        {
            outcomes[r]->restart_used = r;
            return outcomes[r];
        }
    }
    return std::nullopt;
}

}  // namespace bestagon::phys
