/// \file charge_state.hpp
/// \brief The incremental charge-state kernel of the physical-simulation
///        layer: the quench, the stability checks and the kernel oracle.
///
/// Every decision the flow makes about a gate — operational checks,
/// operational-domain sweeps, gate-designer scoring — bottoms out in
/// ground-state search over the SiDB charge model, and every such search is
/// a sequence of *local moves*: single charge flips and single electron
/// hops. The cost of a move depends only on the local potentials
///
///     v_i = W_i + sum_{j != i} V_ij n_j          [eV]
///
/// (W_i is the configuration-independent external potential of charged
/// fabrication defects, 0 on a pristine surface — see defect.hpp; it is the
/// summation's starting value in every rebuild and rides along through all
/// incremental commits at zero extra cost)
///
/// of the sites it touches:
///
///     flip i (0 -> -):   dF = mu + v_i
///     flip i (- -> 0):   dF = -(mu + v_i)
///     hop i -> j:        dF = v_j - v_i - V_ij
///
/// `ChargeState` owns a charge configuration together with an incrementally
/// maintained cache of all v_i, so move deltas are O(1) lookups
/// (`delta_flip`, `delta_hop`) and committing a move is a single O(n) row
/// update (`commit_flip`, `commit_hop`) instead of the O(n) *per evaluation*
/// the naive `SiDBSystem::local_potential` costs. Stability checks and the
/// greedy quench reuse the cache, dropping from O(n^3) to O(n^2).
///
/// **Invariants.**
///  - After construction, `assign` or `rebuild`, `local_potential(i)` is
///    bit-identical to `SiDBSystem::local_potential(config(), i)`: the cache
///    is rebuilt with the exact summation order of the naive evaluator.
///  - `commit_flip(i)` applies `v_j += s * V_ij` for all j != i in ascending
///    j order (s = +1 when i becomes negative, -1 when it becomes neutral),
///    as two branch-free runs over `SiDBSystem::potential_row(i)` on either
///    side of i: each v_j receives exactly one +-V_ij per commit.
///  - Incremental updates accumulate at most ulp-level drift relative to a
///    fresh summation; `rebuild()` is the exact-resync hook for callers that
///    need naive-path fidelity at a decision boundary. The
///    `charge_state_differential` testkit oracle pins the drift below 1e-12
///    under long random move sequences.
///
/// The exact engine does not use the kernel: its search keeps one
/// local-potential array per depth and never undoes a flip (see
/// ground_state_exact.cpp). The kernel deliberately does NOT track the
/// grand potential across commits, and reported energies always come from
/// a fresh `SiDBSystem::grand_potential` evaluation. `grand_potential()`
/// here is an O(n) identity over the cache (F = 1/2 sum_i v_i n_i + mu N)
/// intended for diagnostics and tests.

#pragma once

#include "phys/model.hpp"

#include <cstdint>
#include <vector>

namespace bestagon::phys
{

/// Charge configuration plus an incrementally maintained local-potential
/// cache over a fixed `SiDBSystem`. Copyable; the referenced system must
/// outlive the kernel.
class ChargeState
{
  public:
    /// All-neutral configuration (every v_i = 0 — exact).
    explicit ChargeState(const SiDBSystem& system);

    /// Adopts \p config and rebuilds the cache (O(n^2), exact). Throws
    /// std::invalid_argument when the configuration size does not match the
    /// system (a debug-only assert before — silent OOB in release builds).
    ChargeState(const SiDBSystem& system, ChargeConfig config);

    /// Replaces the configuration and rebuilds the cache (O(n^2), exact).
    /// Throws std::invalid_argument on a size mismatch, like the adopting
    /// constructor.
    void assign(ChargeConfig config);

    /// Exact-resync hook: recomputes every v_i from scratch with the naive
    /// evaluator's summation order, discarding any incremental drift.
    void rebuild();

    [[nodiscard]] std::size_t size() const noexcept { return config_.size(); }
    [[nodiscard]] const SiDBSystem& system() const noexcept { return *system_; }
    [[nodiscard]] const ChargeConfig& config() const noexcept { return config_; }
    [[nodiscard]] std::uint8_t charge(std::size_t i) const { return config_[i]; }
    [[nodiscard]] std::size_t num_charges() const noexcept { return num_charges_; }

    /// Cached local potential v_i in eV — O(1).
    [[nodiscard]] double local_potential(std::size_t i) const { return v_[i]; }

    /// Grand-potential change of flipping site \p i — O(1).
    [[nodiscard]] double delta_flip(std::size_t i) const
    {
        const double level = system_->parameters().mu_minus + v_[i];
        return config_[i] == 0 ? level : -level;
    }

    /// Grand-potential change of hopping the electron on \p from to the
    /// neutral site \p to — O(1). Pre: charge(from) != 0, charge(to) == 0.
    [[nodiscard]] double delta_hop(std::size_t from, std::size_t to) const
    {
        return v_[to] - v_[from] - system_->potential(from, to);
    }

    /// Commits a single charge flip of site \p i: updates the configuration
    /// and applies the site's potential row to the cache — O(n).
    void commit_flip(std::size_t i);

    /// Commits an electron hop \p from -> \p to in one fused row pass —
    /// O(n). Pre: charge(from) != 0, charge(to) == 0.
    void commit_hop(std::size_t from, std::size_t to);

    /// SiQAD population stability over the cached potentials — O(n).
    [[nodiscard]] bool population_stable() const;

    /// No single electron hop lowers F, over the cached potentials — O(n^2).
    [[nodiscard]] bool configuration_stable() const;

    [[nodiscard]] bool physically_valid() const
    {
        return population_stable() && configuration_stable();
    }

    /// Greedy descent to the nearest local minimum of F under single flips
    /// and hops — O(n^2) per sweep (the naive quench was O(n^3)). Visits
    /// moves in the exact order of the pre-kernel `SiDBSystem::quench`.
    /// Guarantees `physically_valid()` on return.
    void quench();

    /// Electrostatic part of F from the cache: 1/2 sum_i v_i n_i — O(n).
    [[nodiscard]] double electrostatic_energy() const;

    /// Grand potential from the cache: electrostatic + mu N — O(n).
    [[nodiscard]] double grand_potential() const;

    /// **Testkit-only fault hook** (`skip_cache_update` mutants): adopts
    /// \p config WITHOUT rebuilding the cache, modelling a kernel that
    /// forgot its update step. Production code must never call this; the
    /// `charge_state_differential` oracle proves the fault is detected.
    void testkit_adopt_config_skip_cache_update(ChargeConfig config);

    /// **Testkit-only fault hook** (`ignore_defect_potentials` mutants):
    /// rebuilds the cache WITHOUT the external-potential starting values,
    /// modelling an engine that forgot the defect background. Production
    /// code must never call this; the `defect_differential` oracle proves
    /// the fault is detected.
    void testkit_rebuild_ignore_external();

  private:
    const SiDBSystem* system_;
    ChargeConfig config_;
    std::vector<double> v_;
    std::size_t num_charges_{0};
};

}  // namespace bestagon::phys
