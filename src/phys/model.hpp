/// \file model.hpp
/// \brief Electrostatic model of SiDB charge systems (SiQAD-calibrated).
///
/// SiDBs are treated as two-state quantum dots (neutral DB0 or negative
/// DB-). Pairwise interaction is a Thomas-Fermi screened Coulomb potential
///   V(r) = k / (eps_r * r) * exp(-r / lambda_tf)   [eV, r in nm]
/// with k = e / (4 pi eps_0) = 1.43996 eV nm.
///
/// The grand potential of a charge configuration n (n_i in {0,1}) is
///   F(n) = sum_{i<j} V_ij n_i n_j + mu_minus * sum_i n_i,
/// where mu_minus = E(0/-) - E_F < 0 is the charge transition level of an
/// isolated DB relative to the Fermi energy. A configuration is *physically
/// valid* (metastable) if no single charge flip and no single electron hop
/// lowers F; the *ground state* minimizes F. Stationarity of F under flips
/// reproduces SiQAD's population-stability criterion (mu + v_i <=/>= 0).

#pragma once

#include "phys/lattice.hpp"

#include <cstdint>
#include <vector>

namespace bestagon::phys
{

/// Coulomb constant e / (4 pi eps_0) in eV nm.
inline constexpr double coulomb_k = 1.43996448;

/// Ground-state engine, selected by SimulationParameters::engine — the one
/// knob every simulation entry point (check_operational, operational-domain
/// sweeps, defect yield sweeps, gate-designer scoring, flow validation)
/// reads through find_ground_state.
///
/// Two engines, one complete and one heuristic:
///  - `exact`: the population-bounded branch-and-bound
///    (ground_state_exact.hpp) — the default. Guaranteed global minimum and
///    exact degeneracy count.
///  - `simanneal`: SiQAD-style simulated annealing (simanneal.hpp) — a
///    physically valid result without an optimality certificate.
enum class Engine : std::uint8_t
{
    simanneal,  ///< simulated annealing (heuristic)
    exact       ///< population-bounded exact search (the default)
};

/// Physical simulation parameters (defaults per the paper's Fig. 5).
struct SimulationParameters
{
    double mu_minus{-0.32};   ///< (0/-) transition level relative to E_F, in eV
    double epsilon_r{5.6};    ///< relative permittivity
    double lambda_tf{5.0};    ///< Thomas-Fermi screening length, in nm

    /// Worker threads for the independent fan-out points of the simulation
    /// stack (input patterns in check_operational, grid points in
    /// compute_operational_domain, candidate scoring in design_gate).
    /// 0 = hardware concurrency, 1 = plain serial execution. Results are
    /// identical for every value — parallel work is index-addressed and
    /// seeds are derived deterministically per work item.
    unsigned num_threads{0};

    /// Ground-state engine of every search run with these parameters.
    Engine engine{Engine::exact};

    /// Base seed of the stochastic engine (simanneal) when it is selected
    /// for ground-state searches. The default matches
    /// SimAnnealParameters::seed, so results are unchanged unless a caller
    /// rotates it (e.g. a bounded validation retry with a derive_seed-rotated
    /// stream).
    std::uint64_t anneal_seed{0x5eed};

    /// Numerical tolerance of the stability checks and the greedy quench:
    /// a move only counts as downhill when it lowers F by more than this, so
    /// a quenched configuration is always physically valid under the same
    /// tolerance. Shared by SiDBSystem, ChargeState and every engine.
    double stability_tolerance{1e-9};

    /// Energy window (in eV) within which two configurations count as
    /// degenerate — the exact engine's degeneracy_tolerance and the accuracy
    /// bar the differential oracles hold the heuristic engine to.
    double energy_tolerance{1e-6};
};

/// Validates the physical knobs of \p params: epsilon_r and lambda_tf must
/// be positive and finite (a non-positive permittivity or screening length
/// makes every screened-Coulomb term meaningless or singular). Throws
/// std::invalid_argument — the PR-6 ChargeState convention of promoting
/// silent contract violations to thrown errors. Called by every SiDBSystem
/// constructor, so no simulation can run on nonsense parameters.
void validate_parameters(const SimulationParameters& params);

/// Screened Coulomb interaction energy of two negative charges at distance
/// \p r_nm (in nm), in eV.
[[nodiscard]] double screened_coulomb(double r_nm, const SimulationParameters& params);

/// A charge configuration: one charge state per site (0 = DB0, 1 = DB-).
using ChargeConfig = std::vector<std::uint8_t>;

class DefectSurface;  // defect.hpp

/// A fixed set of SiDB sites with precomputed pair potentials, supporting
/// energy evaluation and stability checks of charge configurations.
///
/// A system may additionally carry a per-site *external potential* W_i
/// (charged fabrication defects, see defect.hpp): every local potential
/// becomes v_i = W_i + sum_{j != i} V_ij n_j and the grand potential gains
/// sum_i W_i n_i. A system without external potentials (the default) keeps
/// the exact pre-defect floating-point behavior — W storage is empty and
/// never touched on hot paths.
class SiDBSystem
{
  public:
    SiDBSystem(std::vector<SiDBSite> sites, const SimulationParameters& params);

    /// Evaluating constructor with a defect surface: charged defects
    /// contribute the external potential row, evaluated once per site.
    /// Throws std::invalid_argument when a site is blocked by a defect
    /// (including a defect on top of a site, whose Coulomb term would be
    /// singular) — callers must place SiDBs on usable sites only.
    SiDBSystem(std::vector<SiDBSite> sites, const SimulationParameters& params,
               const DefectSurface& defects);

    [[nodiscard]] std::size_t size() const noexcept { return sites_.size(); }
    [[nodiscard]] const std::vector<SiDBSite>& sites() const noexcept { return sites_; }
    [[nodiscard]] const SimulationParameters& parameters() const noexcept { return params_; }

    /// Pairwise interaction V_ij in eV.
    [[nodiscard]] double potential(std::size_t i, std::size_t j) const
    {
        return potentials_[i * sites_.size() + j];
    }

    /// Row \p i of the pair-potential matrix: V_i0 .. V_i(n-1), with the
    /// zero diagonal entry at index i. The contiguous span the charge
    /// kernel applies per committed move.
    [[nodiscard]] const double* potential_row(std::size_t i) const noexcept
    {
        return potentials_.data() + i * sites_.size();
    }

    /// True when the system carries defect-induced external potentials.
    [[nodiscard]] bool has_external_potentials() const noexcept { return !external_.empty(); }

    /// External potential W_i in eV (0 for a defect-free system).
    [[nodiscard]] double external_potential(std::size_t i) const
    {
        return external_.empty() ? 0.0 : external_[i];
    }

    /// The full external row (empty for a defect-free system).
    [[nodiscard]] const std::vector<double>& external_potentials() const noexcept
    {
        return external_;
    }

    /// Electrostatic energy sum_{i<j} V_ij n_i n_j + sum_i W_i n_i, in eV.
    [[nodiscard]] double electrostatic_energy(const ChargeConfig& config) const;

    /// Grand potential F(n) = electrostatic energy + mu * (number of charges).
    [[nodiscard]] double grand_potential(const ChargeConfig& config) const;

    /// Local potential v_i = W_i + sum_{j != i} V_ij n_j, in eV. This is the naive
    /// O(n) reference evaluator; hot loops should hold a ChargeState and
    /// read its O(1) cache instead (see charge_state.hpp).
    [[nodiscard]] double local_potential(const ChargeConfig& config, std::size_t i) const;

    /// SiQAD population stability: mu + v_i <= 0 for DB-, >= 0 for DB0.
    /// O(n^2): one kernel rebuild plus an O(n) scan.
    [[nodiscard]] bool population_stable(const ChargeConfig& config) const;

    /// No single electron hop from a DB- to a DB0 site lowers the energy.
    /// O(n^2): one kernel rebuild plus O(1) cached hop deltas (was O(n^3)).
    [[nodiscard]] bool configuration_stable(const ChargeConfig& config) const;

    /// Physically valid = population stable and configuration stable.
    /// Shares a single kernel rebuild across both checks.
    [[nodiscard]] bool physically_valid(const ChargeConfig& config) const;

    /// Greedy descent to the nearest local minimum of F under single flips
    /// and hops (mutates \p config). Guarantees physical validity on return.
    /// O(n^2) per sweep via the charge-state kernel (was O(n^3)).
    void quench(ChargeConfig& config) const;

  private:
    std::vector<SiDBSite> sites_;
    SimulationParameters params_;
    std::vector<double> potentials_;  // row-major size() x size()
    std::vector<double> external_;    // per-site W_i; empty = defect-free
};

/// Result of a ground-state search.
struct GroundStateResult
{
    ChargeConfig config;           ///< best configuration found
    double grand_potential{0.0};   ///< F of that configuration
    double electrostatic{0.0};     ///< electrostatic part, in eV
    /// Number of physically valid configurations within energy_tolerance of
    /// the minimum. The exact engine reports the true count; simanneal
    /// reports the number of *distinct* tying configurations its instances
    /// visited — a lower bound on the true degeneracy, never an exact count.
    std::uint64_t degeneracy{1};
    bool complete{false};          ///< true if the search space was covered exhaustively
    bool cancelled{false};         ///< the search was cut by a run budget (result is partial)
    /// Branch-and-bound nodes visited by the exact engine, counted on every
    /// run — a deterministic work counter, the same under any run budget
    /// that does not stop the search. 0 for simanneal.
    std::uint64_t nodes{0};
};

}  // namespace bestagon::phys
