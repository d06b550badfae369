/// \file operational.hpp
/// \brief Operational checking of dot-accurate SiDB gate designs.
///
/// A gate design consists of permanent SiDBs (wire and canvas dots), input
/// and output binary-dot-logic (BDL) pairs, input drivers and output
/// perturbers. Following the paper's refined input methodology, an input
/// perturber is present for BOTH logic states — at a *near* position for
/// logic 1 and a *far* position for logic 0 — which models the Coulombic
/// pressure of an upstream wire more faithfully than Huff et al.'s
/// present/absent scheme and yields more robust gates.

#pragma once

#include "core/run_control.hpp"
#include "logic/truth_table.hpp"
#include "phys/defect.hpp"
#include "phys/ground_state.hpp"
#include "phys/model.hpp"

#include <string>
#include <vector>

namespace bestagon::phys
{

/// A binary-dot-logic pair; the logic value is read from the position of the
/// shared electron: on `one_site` it encodes 1, on `zero_site` it encodes 0.
struct BDLPair
{
    SiDBSite zero_site;
    SiDBSite one_site;
};

/// Input driver: a perturber SiDB placed far (logic 0) or near (logic 1).
struct InputDriver
{
    SiDBSite far_site;
    SiDBSite near_site;
};

/// A dot-accurate gate design on the H-Si(100)-2x1 surface.
struct GateDesign
{
    std::string name;
    std::vector<SiDBSite> sites;              ///< permanent SiDBs (incl. all pair sites)
    std::vector<BDLPair> input_pairs;         ///< first BDL pair of each input wire
    std::vector<BDLPair> output_pairs;        ///< last BDL pair of each output wire
    std::vector<InputDriver> drivers;         ///< one per input
    std::vector<SiDBSite> output_perturbers;  ///< emulate downstream wires
    std::vector<logic::TruthTable> functions; ///< one per output, over the inputs

    [[nodiscard]] unsigned num_inputs() const noexcept { return static_cast<unsigned>(drivers.size()); }
    [[nodiscard]] unsigned num_outputs() const noexcept
    {
        return static_cast<unsigned>(output_pairs.size());
    }

    /// All sites of the simulation instance for one input pattern
    /// (permanent sites + per-pattern perturbers + output perturbers).
    [[nodiscard]] std::vector<SiDBSite> instance_sites(std::uint64_t pattern) const;

    /// Reusable-buffer overload: clears \p out, reserves the exact instance
    /// size and fills it in the same order as the returning overload. Lets
    /// per-pattern loops reuse one allocation instead of churning the
    /// allocator across the parallel pattern fan-out.
    void instance_sites(std::uint64_t pattern, std::vector<SiDBSite>& out) const;
};

/// Logic readout of a BDL pair from a charge configuration.
enum class PairState : std::uint8_t
{
    zero,
    one,
    undefined  ///< both or neither site charged: no valid logic value
};

/// Reads the state of \p pair given \p config over \p sites by resolving the
/// pair's sites with a linear scan. If either site is missing from \p sites
/// the readout is PairState::undefined and, when \p error is non-null, a
/// one-line description of the unresolved site is recorded (the legacy
/// behavior was a debug-only assert that silently read garbage in release
/// builds). Hot paths should resolve indices once via GateInstanceCache and
/// use read_pair_indexed instead.
[[nodiscard]] PairState read_pair(const BDLPair& pair, const std::vector<SiDBSite>& sites,
                                  const ChargeConfig& config, std::string* error = nullptr);

/// Index-resolved BDL readout: O(1) per call. Indices come from
/// GateInstanceCache (resolved once per gate design, not once per pattern).
[[nodiscard]] PairState read_pair_indexed(std::size_t zero_index, std::size_t one_index,
                                          const ChargeConfig& config);

/// Per-design simulation context of a gate's 2^k input patterns.
///
/// The cache does the pattern-invariant work once per (design, parameters,
/// surface): it scans every site any pattern can instantiate for defect
/// blocking, and it resolves every output pair's zero/one site to its fixed
/// site index, so per-pattern readout is O(1) per output instead of a
/// linear scan over all sites. `instantiate(pattern)` is the plain
/// evaluating construction `SiDBSystem{design.instance_sites(pattern),
/// params}` (with the surface when one is given): the screened-Coulomb
/// matrix costs far less than one ground-state search, so no potential
/// block is shared across patterns.
///
/// The cache holds the design and the surface by pointer: the caller owns
/// both and must keep them alive for the cache's lifetime.
///
/// Immutable after construction and safe to share across the concurrent
/// pattern fan-out of check_operational / design_gate scoring. That is the
/// whole thread-safety contract (checked structurally by the Clang
/// `-Werror=thread-safety` CI build via core/thread_annotations.hpp): every
/// member is written exactly once, in the constructor, and every public
/// method is const — there is no mutable shared state for `GUARDED_BY` to
/// name, so concurrent readers need no lock. Keep it that way: adding a
/// mutable member (e.g. a lazy memo) requires a `core::Mutex` + `GUARDED_BY`
/// or the TSan job and the capability analysis will both flag it.
class GateInstanceCache
{
  public:
    /// With a non-null \p defects surface, blocked sites (fixed, either
    /// driver position, or perturber) are detected once at construction
    /// (see blocked()), and every instance carries the charged defects'
    /// external potentials. nullptr or an empty surface keeps the
    /// defect-free behavior.
    GateInstanceCache(const GateDesign& design, const SimulationParameters& params,
                      const DefectSurface* defects = nullptr);

    [[nodiscard]] const GateDesign& design() const noexcept { return *design_; }
    [[nodiscard]] const SimulationParameters& parameters() const noexcept { return params_; }
    [[nodiscard]] std::size_t num_sites() const noexcept
    {
        return design_->sites.size() + design_->drivers.size() + design_->output_perturbers.size();
    }

    /// True when a defect blocks any instance site (fixed, either driver
    /// position, or perturber). A blocked design cannot be fabricated as
    /// laid out; instantiate() must not be called (it throws).
    [[nodiscard]] bool blocked() const noexcept { return blocked_; }

    /// One-line description of the first blocked site (empty when none).
    [[nodiscard]] const std::string& blocked_reason() const noexcept { return blocked_reason_; }

    /// The simulation instance for \p pattern. Site order matches
    /// GateDesign::instance_sites: permanent sites, then one driver per
    /// input, then output perturbers.
    [[nodiscard]] SiDBSystem instantiate(std::uint64_t pattern) const;

    /// O(1) readout of output pair \p o via the pre-resolved site indices.
    /// Returns PairState::undefined when the pair did not resolve (see
    /// output_pair_error).
    [[nodiscard]] PairState read_output(std::size_t o, const ChargeConfig& config) const;

    /// Empty when output pair \p o resolved to site indices at construction;
    /// otherwise a description of the missing site. A non-empty error makes
    /// every readout of that pair undefined (and the pattern incorrect)
    /// instead of crashing or reading garbage.
    [[nodiscard]] const std::string& output_pair_error(std::size_t o) const
    {
        return output_pair_errors_[o];
    }

  private:
    const GateDesign* design_;
    SimulationParameters params_;
    const DefectSurface* defects_;  ///< nullptr = defect-free
    bool blocked_{false};           ///< a defect blocks an instance site
    std::string blocked_reason_;
    std::vector<std::size_t> output_zero_index_;
    std::vector<std::size_t> output_one_index_;
    std::vector<std::string> output_pair_errors_;
};

/// Result of simulating a single input pattern.
struct PatternResult
{
    std::uint64_t pattern{0};
    GroundStateResult ground_state;
    std::vector<SiDBSite> sites;          ///< simulated instance sites
    std::vector<PairState> output_states; ///< readout per output
    bool correct{false};
    bool evaluated{false};  ///< false when the pattern was skipped by a stop
};

/// Simulates one input pattern of \p design on the engine params.engine
/// selects and reads the outputs. Convenience wrapper that builds a
/// single-use GateInstanceCache; loops over patterns should build the cache
/// once and use the overload below. Throws std::invalid_argument when
/// \p pattern >= 2^num_inputs.
[[nodiscard]] PatternResult simulate_gate_pattern(const GateDesign& design, std::uint64_t pattern,
                                                  const SimulationParameters& params,
                                                  const core::RunBudget& run = {});

/// Simulates one input pattern against a prebuilt instance cache: no site
/// scan is performed. Throws std::invalid_argument when \p pattern >=
/// 2^num_inputs.
[[nodiscard]] PatternResult simulate_gate_pattern(const GateInstanceCache& cache,
                                                  std::uint64_t pattern,
                                                  const core::RunBudget& run = {});

/// Result of a full operational check.
struct OperationalResult
{
    bool operational{false};
    std::uint64_t patterns_correct{0};
    std::uint64_t patterns_total{0};
    std::vector<PatternResult> details;
    bool cancelled{false};  ///< the check was cut by a run budget; unevaluated
                            ///< patterns have evaluated == false and count as
                            ///< incorrect, so `operational` stays conservative
    bool blocked{false};    ///< a defect blocks an instance site: nothing was
                            ///< simulated, the gate cannot be fabricated as-is
    std::string blocked_reason;  ///< which site/defect collided (empty if none)
};

/// Largest input arity the pattern enumeration supports (the pattern count
/// 1ULL << num_inputs must not overflow a 64-bit counter).
inline constexpr unsigned max_gate_inputs = 63;

/// Checks all 2^num_inputs patterns of \p design against its functions.
/// Patterns are simulated concurrently according to params.num_threads;
/// details remain ordered by pattern and are identical for any thread
/// count. Throws std::invalid_argument if the design has more than
/// max_gate_inputs inputs.
[[nodiscard]] OperationalResult check_operational(const GateDesign& design,
                                                  const SimulationParameters& params,
                                                  const core::RunBudget& run = {});

/// Defect-aware operational check: if a defect blocks any instance site the
/// result is non-operational with blocked = true and nothing is simulated
/// (the fast path of the Monte-Carlo yield sweep); otherwise all patterns
/// are simulated with the charged defects' external potentials folded into
/// every local potential. An empty surface reproduces the defect-free
/// overload bit-for-bit.
[[nodiscard]] OperationalResult check_operational(const GateDesign& design,
                                                  const SimulationParameters& params,
                                                  const DefectSurface& defects,
                                                  const core::RunBudget& run = {});

}  // namespace bestagon::phys
