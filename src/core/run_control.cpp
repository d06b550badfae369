#include "core/run_control.hpp"

#include <algorithm>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <sstream>

namespace bestagon::core
{

const char* to_string(StageStatus status) noexcept
{
    switch (status)
    {
        case StageStatus::completed: return "completed";
        case StageStatus::degraded: return "degraded";
        case StageStatus::timed_out: return "timed_out";
        case StageStatus::cancelled: return "cancelled";
        case StageStatus::failed: return "failed";
        case StageStatus::skipped: return "skipped";
    }
    return "unknown";
}

const StageReport* FlowDiagnostics::find(std::string_view name) const noexcept
{
    for (const auto& s : stages)
    {
        if (s.stage == name)
        {
            return &s;
        }
    }
    return nullptr;
}

bool FlowDiagnostics::all_completed() const noexcept
{
    for (const auto& s : stages)
    {
        if (s.status != StageStatus::completed)
        {
            return false;
        }
    }
    return true;
}

const StageReport* FlowDiagnostics::first_cut() const noexcept
{
    for (const auto& s : stages)
    {
        if (s.status == StageStatus::timed_out || s.status == StageStatus::cancelled ||
            s.status == StageStatus::failed)
        {
            return &s;
        }
    }
    return nullptr;
}

bool FlowDiagnostics::interrupted() const noexcept
{
    for (const auto& s : stages)
    {
        if (s.status == StageStatus::timed_out || s.status == StageStatus::cancelled)
        {
            return true;
        }
    }
    return false;
}

std::string FlowDiagnostics::table() const
{
    // fixed-width columns: stage | status | wall ms | detail
    std::size_t name_w = 5;  // "stage"
    for (const auto& s : stages)
    {
        name_w = std::max(name_w, s.stage.size());
    }
    std::ostringstream out;
    char line[64];
    out << "stage";
    out << std::string(name_w - 5, ' ') << "  status       wall_ms  detail\n";
    for (const auto& s : stages)
    {
        out << s.stage << std::string(name_w - s.stage.size(), ' ');
        std::snprintf(line, sizeof line, "  %-9s %10.3f  ", to_string(s.status),
                      static_cast<double>(s.wall_us) / 1000.0);
        out << line << s.detail << '\n';
    }
    return out.str();
}

// ---------------------------------------------------------------------------
// SIGINT handling
// ---------------------------------------------------------------------------

namespace
{

// The handler may only touch lock-free atomics; the flag is the raw state
// behind the process-wide StopSource (kept alive for the process lifetime).
std::atomic<bool>* sigint_flag{nullptr};
std::atomic<int> sigint_count{0};

extern "C" void sigint_handler(int)
{
    const int n = sigint_count.fetch_add(1, std::memory_order_relaxed) + 1;
    if (n >= 2)
    {
        // second Ctrl-C: the user wants out *now*
        std::_Exit(130);
    }
    if (sigint_flag != nullptr)
    {
        sigint_flag->store(true, std::memory_order_relaxed);
    }
}

StopSource& sigint_source()
{
    static StopSource source;  // intentionally leaked into process lifetime
    return source;
}

}  // namespace

StopToken install_sigint_stop()
{
    auto& source = sigint_source();
    if (sigint_flag == nullptr)
    {
        // hand the handler the raw atomic behind the process-wide source
        // (static storage, alive forever) so it never touches a shared_ptr
        sigint_flag = &source.state_->stopped;
        // installed once from the CLI driver before any worker starts; the
        // handler itself only touches a lock-free atomic (async-signal-safe
        // by construction)
        // NOLINTNEXTLINE(concurrency-mt-unsafe)
        std::signal(SIGINT, sigint_handler);
    }
    return source.token();
}

bool sigint_received() noexcept
{
    return sigint_count.load(std::memory_order_relaxed) > 0;
}

}  // namespace bestagon::core
