/// \file run_control.hpp
/// \brief Run control for the design flow: cooperative cancellation,
///        steady-clock deadlines and per-stage diagnostics.
///
/// The flow chains open-ended search procedures (SAT-based exact physical
/// design, exact ground-state search, stochastic gate design,
/// operational-domain sweeps) whose runtimes are unbounded in practice. Run
/// control makes every one of them interruptible without sacrificing
/// determinism:
///
///  - `StopSource` / `StopToken` form a thread-safe cancellation channel.
///    Engines poll the token at their loop heads and between independent
///    work items; they never abandon state mid-update, so a cancelled run
///    always returns a well-formed (possibly partial) result. A source
///    linked to a parent token also reads as stopped once the parent is, so
///    an engine can stop one piece of its work without owning the caller's
///    channel.
///  - `Deadline` is an absolute steady-clock time point. Deadlines compose
///    with `Deadline::sooner`, so a stage budget simply clips the caller's
///    global deadline.
///  - `RunBudget` bundles both; it is the unit every engine accepts. A
///    default-constructed budget is unlimited and makes every check a cheap
///    no-op, keeping the no-stop fast path bit-identical to the uncontrolled
///    code.
///  - `StageReport` / `FlowDiagnostics` record, per flow stage, what ran,
///    what degraded and what was cut — the account a caller needs to
///    interpret a partial result.
///
/// CLI drivers use `install_sigint_stop()`: the first Ctrl-C trips a
/// process-wide StopSource (engines wind down and partial artifacts are
/// still emitted), the second hard-exits.
///
/// Thread-safety contract (checked by the Clang `-Werror=thread-safety` CI
/// build via core/thread_annotations.hpp): StopSource/StopToken and the
/// SIGINT channel are deliberately capability-free — the shared state of a
/// channel is a lock-free `std::atomic<bool>` plus an immutable link to its
/// parent's, safe from any thread and from signal handlers, so there is no
/// mutex for `GUARDED_BY` to name. Deadline
/// and RunBudget are immutable values (copied, never shared mutable).
/// FlowDiagnostics/StageReport are single-writer: they belong to the flow
/// thread that builds them and must not be mutated concurrently; publish a
/// completed FlowDiagnostics to other threads only after the flow returns.

#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace bestagon::core
{

class StopSource;

namespace detail
{
/// The shared state of one cancellation channel.
struct StopState
{
    std::atomic<bool> stopped{false};
    /// The channel this one also stops with; set once, before sharing.
    std::shared_ptr<const StopState> parent;

    [[nodiscard]] bool requested() const noexcept
    {
        return stopped.load(std::memory_order_relaxed) || (parent != nullptr && parent->requested());
    }
};
}  // namespace detail

/// Observer end of a cancellation channel. Copyable, thread-safe; a
/// default-constructed token can never be stopped (and says so via
/// stop_possible()), so APIs may take tokens by value with no cost on the
/// uncancellable path.
class StopToken
{
  public:
    StopToken() = default;

    /// True once the associated StopSource, or a parent it is linked to,
    /// requested a stop.
    [[nodiscard]] bool stop_requested() const noexcept { return state_ != nullptr && state_->requested(); }

    /// True if a StopSource is attached (i.e. a stop can ever happen).
    [[nodiscard]] bool stop_possible() const noexcept { return state_ != nullptr; }

  private:
    friend class StopSource;
    explicit StopToken(std::shared_ptr<const detail::StopState> state) : state_{std::move(state)} {}

    std::shared_ptr<const detail::StopState> state_;
};

StopToken install_sigint_stop();

/// Owner end of a cancellation channel. request_stop() is idempotent,
/// thread-safe and async-signal-safe (a lock-free atomic store).
class StopSource
{
  public:
    StopSource() : state_{std::make_shared<detail::StopState>()} {}

    /// A source that also reads as stopped once \p parent is; stopping it
    /// does not stop the parent.
    explicit StopSource(const StopToken& parent) : StopSource{} { state_->parent = parent.state_; }

    void request_stop() noexcept { state_->stopped.store(true, std::memory_order_relaxed); }

    [[nodiscard]] bool stop_requested() const noexcept { return state_->requested(); }

    [[nodiscard]] StopToken token() const noexcept { return StopToken{state_}; }

  private:
    // the SIGINT installer needs the raw atomic so the signal handler stays
    // free of shared_ptr operations (async-signal-safety)
    friend StopToken install_sigint_stop();

    std::shared_ptr<detail::StopState> state_;
};

/// An absolute wall-clock limit on the steady clock. Default-constructed
/// deadlines are unlimited. Deadlines are values: copy freely, compose with
/// sooner(), derive stage deadlines with in_ms().
class Deadline
{
  public:
    using Clock = std::chrono::steady_clock;

    /// Unlimited (never expires).
    Deadline() = default;

    /// Expires \p ms milliseconds from now; ms < 0 means unlimited (the
    /// conventional "no budget" encoding used across the code base).
    [[nodiscard]] static Deadline in_ms(std::int64_t ms)
    {
        if (ms < 0)
        {
            return Deadline{};
        }
        return Deadline{Clock::now() + std::chrono::milliseconds{ms}};
    }

    /// Expires at the given steady-clock time point.
    [[nodiscard]] static Deadline at(Clock::time_point when) { return Deadline{when}; }

    [[nodiscard]] bool unlimited() const noexcept { return !limited_; }

    [[nodiscard]] bool expired() const noexcept { return limited_ && Clock::now() >= when_; }

    /// Milliseconds until expiry (0 when already expired). Unlimited
    /// deadlines report a large positive sentinel so callers can take
    /// min(remaining_ms(), own_budget) without special-casing.
    [[nodiscard]] std::int64_t remaining_ms() const noexcept
    {
        if (!limited_)
        {
            return unlimited_ms;
        }
        const auto left =
            std::chrono::duration_cast<std::chrono::milliseconds>(when_ - Clock::now()).count();
        return left > 0 ? left : 0;
    }

    /// The earlier of the two deadlines (unlimited is the identity).
    [[nodiscard]] static Deadline sooner(Deadline a, Deadline b) noexcept
    {
        if (a.unlimited())
        {
            return b;
        }
        if (b.unlimited())
        {
            return a;
        }
        return a.when_ <= b.when_ ? a : b;
    }

    /// remaining_ms() of an unlimited deadline — far larger than any real
    /// budget yet safely addable to small offsets without overflow.
    static constexpr std::int64_t unlimited_ms = std::int64_t{1} << 50;

  private:
    explicit Deadline(Clock::time_point when) : limited_{true}, when_{when} {}

    bool limited_{false};
    Clock::time_point when_{};
};

/// The composable budget every long-running engine accepts: a cancellation
/// token plus a deadline. Default-constructed budgets are unlimited; engines
/// must behave bit-identically under an unlimited budget.
struct RunBudget
{
    StopToken token{};
    Deadline deadline{};

    /// True once the run must wind down (cancelled or out of time).
    [[nodiscard]] bool stopped() const noexcept
    {
        return token.stop_requested() || deadline.expired();
    }

    /// True if any limit is attached at all; engines may skip polling
    /// entirely for unlimited budgets.
    [[nodiscard]] bool limited() const noexcept
    {
        return token.stop_possible() || !deadline.unlimited();
    }

    /// This budget further clipped to expire \p ms milliseconds from now
    /// (ms < 0 leaves the deadline untouched). The token is shared.
    [[nodiscard]] RunBudget clipped_ms(std::int64_t ms) const
    {
        return RunBudget{token, Deadline::sooner(deadline, Deadline::in_ms(ms))};
    }
};

// ---------------------------------------------------------------------------
// per-stage diagnostics
// ---------------------------------------------------------------------------

/// Outcome of one flow stage.
enum class StageStatus : std::uint8_t
{
    completed,  ///< ran to completion, result is authoritative
    degraded,   ///< produced a usable result via a fallback / partial path
    timed_out,  ///< cut by a deadline; partial or no result
    cancelled,  ///< cut by a StopToken; partial or no result
    failed,     ///< an error occurred (recorded in detail); no result
    skipped     ///< never attempted (disabled, or an earlier stage was cut)
};

/// Stable lower-case name of a stage status ("completed", "timed_out", ...).
[[nodiscard]] const char* to_string(StageStatus status) noexcept;

/// One flow stage's account: what ran, for how long and why it ended the
/// way it did.
struct StageReport
{
    std::string stage;                        ///< stable stage name, e.g. "physical_design"
    StageStatus status{StageStatus::skipped};
    std::int64_t wall_us{0};                  ///< steady-clock time spent in the stage, in µs
    std::string detail;                       ///< human-readable explanation
};

/// Per-stage reports for one flow run, in execution order.
struct FlowDiagnostics
{
    std::vector<StageReport> stages;

    /// The report of stage \p name, or nullptr if the stage never reported.
    [[nodiscard]] const StageReport* find(std::string_view name) const noexcept;

    /// True iff every reported stage completed (degraded counts as not).
    [[nodiscard]] bool all_completed() const noexcept;

    /// The first stage that was cut short (timed_out / cancelled / failed),
    /// or nullptr when nothing was cut. Degraded stages produced a usable
    /// result and therefore do not count as cut.
    [[nodiscard]] const StageReport* first_cut() const noexcept;

    /// True iff any stage reports timed_out or cancelled.
    [[nodiscard]] bool interrupted() const noexcept;

    /// Renders a fixed-width diagnostics table (one line per stage, stage
    /// time in ms with 3 decimals) for CLI output and logs.
    [[nodiscard]] std::string table() const;
};

// ---------------------------------------------------------------------------
// SIGINT integration for CLI drivers
// ---------------------------------------------------------------------------

/// Installs a process-wide SIGINT handler backed by a shared StopSource and
/// returns its token. The first Ctrl-C requests a cooperative stop (drivers
/// finish winding down, emit partial artifacts and the diagnostics table);
/// the second hard-exits with status 130. Idempotent: repeated calls return
/// the same channel.
StopToken install_sigint_stop();

/// True once the installed SIGINT handler has fired at least once. Drivers
/// use this to annotate their output ("interrupted — partial results").
[[nodiscard]] bool sigint_received() noexcept;

}  // namespace bestagon::core
