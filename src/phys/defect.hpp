/// \file defect.hpp
/// \brief Fabrication defects on the H-Si(100)-2x1 surface.
///
/// Real surfaces are not pristine: STM studies and the defect-aware physical
/// design literature (arXiv 2311.12042) catalogue charged vacancies, siloxane
/// dimers, missing dimers and contaminants at densities that make it likely
/// for any non-trivial layout to overlap at least one defect. SiQAD models
/// such defects as first-class simulation inputs; this module does the same
/// for the whole flow.
///
/// Two defect behaviors are modelled (a single defect can exhibit both):
///  - **charged**: a fixed point charge at a lattice site. It enters the
///    electrostatic model as an *external potential* — a per-site offset
///      W_i = sum_d (-q_d) * screened_coulomb(dist(d, i))      [eV]
///    added to every local potential v_i (q_d in units of the elementary
///    charge, negative for an electron-like defect, so q = -1 repels DB-
///    electrons exactly like another charged DB would). The offset is
///    configuration-independent, so it folds into the cached v_i of the
///    charge-state kernel at zero per-move cost and the defect-free path
///    (empty surface) stays bit-identical to the legacy code.
///  - **blocking**: every lattice site within `exclusion_radius_nm` of the
///    defect is unusable (structural perturbations locally destroy the
///    H-Si lattice; a charged defect always blocks at least its own site,
///    since a DB placed on top of it is not a two-state system anymore).
///
/// `sample_defect_surface` draws deterministic seeded surfaces at a given
/// areal density. Samples are *nested*: for a fixed seed, the surface at a
/// higher density is a superset of the surface at any lower density (the
/// stream-prefix coupling the Monte-Carlo yield sweep relies on for
/// monotone survival curves — see defect_sweep.hpp).

#pragma once

#include "phys/lattice.hpp"
#include "phys/model.hpp"

#include <cstdint>
#include <vector>

namespace bestagon::phys
{

/// Physical defect classes, per the SiQAD taxonomy.
enum class DefectKind : std::uint8_t
{
    charged,    ///< fixed point charge; contributes an external potential
    structural  ///< lattice perturbation; purely blocking, no charge
};

/// A single surface defect, positioned on the SiDB lattice.
struct SurfaceDefect
{
    SiDBSite site{};
    DefectKind kind{DefectKind::charged};

    /// Charge in units of the elementary charge; only meaningful for
    /// DefectKind::charged. -1 models an electron-like defect (repels DB-
    /// electrons), +1 a hole-like one (attracts them).
    double charge{-1.0};

    /// Sites within this distance (in nm) of the defect are unusable for
    /// SiDB placement. 0 still blocks the defect's own lattice site.
    double exclusion_radius_nm{0.0};
};

/// An immutable-after-filling set of surface defects with the two queries
/// the flow needs: "is this site usable?" and "what external potential does
/// the defect charge background exert here?".
class DefectSurface
{
  public:
    DefectSurface() = default;

    /// Appends \p defect. Throws std::invalid_argument on a negative
    /// exclusion radius or a non-finite charge (the PR-6 ChargeState
    /// convention: contract violations throw instead of asserting).
    void add(const SurfaceDefect& defect);

    [[nodiscard]] bool empty() const noexcept { return defects_.empty(); }
    [[nodiscard]] std::size_t size() const noexcept { return defects_.size(); }
    [[nodiscard]] const std::vector<SurfaceDefect>& defects() const noexcept { return defects_; }

    /// True when at least one defect carries a charge — only then do
    /// external potentials exist.
    [[nodiscard]] bool has_charged() const noexcept { return num_charged_ > 0; }

    /// The defect set of the first \p count defects, in insertion order —
    /// the nesting primitive of the yield sweep (count is clamped to size()).
    [[nodiscard]] DefectSurface prefix(std::size_t count) const;

    /// True when \p site lies within some defect's exclusion radius (a
    /// coincident site is always blocked, even at radius 0).
    [[nodiscard]] bool blocks(const SiDBSite& site) const;

    /// First defect blocking \p site, or nullptr.
    [[nodiscard]] const SurfaceDefect* blocking_defect(const SiDBSite& site) const;

    /// True when any of \p sites is blocked.
    [[nodiscard]] bool blocks_any(const std::vector<SiDBSite>& sites) const;

    /// External potential W (in eV) the charged defects exert on a DB- at
    /// \p site: sum over charged defects of -q * screened_coulomb(r).
    [[nodiscard]] double external_potential(const SiDBSite& site,
                                            const SimulationParameters& params) const;

    /// W for every site, in order. Returns an EMPTY vector when the surface
    /// has no charged defect, so the defect-free path of SiDBSystem stays
    /// allocation-free and bit-identical.
    [[nodiscard]] std::vector<double> external_potentials(
        const std::vector<SiDBSite>& sites, const SimulationParameters& params) const;

  private:
    std::vector<SurfaceDefect> defects_;
    std::size_t num_charged_{0};
};

/// Inclusive lattice-coordinate rectangle (both sublattice atoms of every
/// dimer within it are candidate defect positions).
struct DefectRegion
{
    std::int32_t n_min{0};
    std::int32_t n_max{0};
    std::int32_t m_min{0};
    std::int32_t m_max{0};

    /// Physical area in nm^2 (column span x dimer-row span).
    [[nodiscard]] double area_nm2() const;
    /// Number of candidate lattice sites (2 per (n, m) dimer position).
    [[nodiscard]] std::size_t num_sites() const;
};

/// Knobs of the seeded defect sampler. Fab-realistic areal densities are on
/// the order of 0.01–0.1 defects/nm^2 (a fraction of a percent up to a few
/// percent of the ~6.8 lattice sites per nm^2).
struct DefectSampleParams
{
    double density_per_nm2{0.02};     ///< expected defects per nm^2
    double charged_fraction{0.5};     ///< probability a drawn defect is charged
    double charge{-1.0};              ///< charge of charged defects, in e
    double exclusion_radius_nm{0.8};  ///< blocking radius of structural defects

    /// Throws std::invalid_argument on a negative density, a charged
    /// fraction outside [0, 1], a non-finite charge or a negative radius.
    void validate() const;
};

/// Deterministic expected-count draw for \p density over \p region: an
/// unbiased rounding of density * area that is monotone in the density for
/// a fixed seed (the same splitmix64 fraction is reused for every density),
/// clamped to the region's site count.
[[nodiscard]] std::size_t defect_count_for_density(const DefectRegion& region,
                                                   double density_per_nm2, std::uint64_t seed);

/// Draws the first \p count defects of the seed-determined defect stream
/// over \p region: positions uniform without replacement, kind/charge per
/// \p params. For a fixed (region, params, seed), the surface at count a
/// is a prefix of the surface at count b >= a.
[[nodiscard]] DefectSurface sample_defect_surface(const DefectRegion& region,
                                                  const DefectSampleParams& params,
                                                  std::uint64_t seed, std::size_t count);

/// Convenience: count from defect_count_for_density(params.density_per_nm2).
[[nodiscard]] DefectSurface sample_defect_surface(const DefectRegion& region,
                                                  const DefectSampleParams& params,
                                                  std::uint64_t seed);

}  // namespace bestagon::phys
