/// \file bench_flow.cpp
/// \brief End-to-end benchmark of the Bestagon flow and of tile sign-off,
///        timed only from outside the libraries.
///
/// Usage:
///   bench_flow --workload=<name> [--seed=<u64>] [--seconds=<s>] [--root=<dir>]
///              [--trace=<trace.json>] [--out=<results.json>] [--setup-only]
///
/// Workloads (each visits a fixed corpus; --seed only shuffles the order in
/// which each pass visits it, so runs at different seeds measure the same
/// work):
///   table1       the benchmarks/*.v texts -> run_design_flow_verilog ->
///                write_sqd, serial (paper Table 1)
///   signoff      check_operational on the 27 Bestagon designs at the Fig. 5
///                point, one thread (paper Fig. 5)
///   random_flow  seeded random specifications -> run_design_flow -> write_sqd
///   defect_yield defect_yield_sweep on the `or` tile, min(2, nproc) threads
///
/// Set-up builds the corpus and makes one untimed warm-up pass over it;
/// setup_s is the time from the start of main() to the end of that pass
/// (--setup-only prints it and exits). The program then runs whole passes
/// over the corpus until --seconds have elapsed (at least three). Every
/// item's output is checked: flow success, DRC, an emitted .sqd, a
/// well-formed yield curve, thread invariance, and the same output on every
/// pass. A failed item or check makes the process exit 1.
///
/// With --trace every untraced pass is followed by a pass that replays each
/// item stage by stage through the public functions the production call
/// runs, timing each call. Spans stay in memory and are written as Chrome
/// trace-event JSON at exit. Every replayed item must reproduce the
/// production output exactly. The per-layer numbers come from the replayed
/// passes; the end-to-end numbers always come from untraced passes.
///
/// The results JSON (--out, else stdout) holds the context of the run, the
/// set-up time, every pass time, the metrics and each item's output;
/// bench/flow/run.py compares the outputs with bench/flow/reference.json.

#include "core/design_flow.hpp"
#include "core/thread_pool.hpp"
#include "io/sqd_writer.hpp"
#include "io/verilog.hpp"
#include "layout/apply_gate_library.hpp"
#include "layout/bestagon_library.hpp"
#include "logic/rewriting.hpp"
#include "logic/tech_mapping.hpp"
#include "phys/defect_sweep.hpp"
#include "phys/operational.hpp"
#include "testing/random.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <ctime>
#include <exception>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <numeric>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#ifndef BENCH_FLOW_BUILD_TYPE
#define BENCH_FLOW_BUILD_TYPE "unknown"
#endif
#ifndef BENCH_FLOW_COMPILER
#define BENCH_FLOW_COMPILER "unknown"
#endif

using namespace bestagon;

namespace
{

using Clock = std::chrono::steady_clock;

/// Seed of the fixed corpora (random specifications, defect sweeps); also
/// the default --seed.
constexpr std::uint64_t corpus_seed = 0xbe57a611;

/// Fewest untraced passes a run makes, whatever --seconds says.
constexpr std::size_t min_passes = 3;

/// Ground-state systems up to this many sites count as small (the OR-class
/// tiles); larger ones are the NOR and crossing tiles.
constexpr std::size_t small_system_sites = 24;

[[nodiscard]] double seconds_since(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

/// CPU time of the whole process (all threads), in seconds.
[[nodiscard]] double process_cpu_s()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

/// Peak resident set size of this process image, in MiB. Read from VmHWM:
/// getrusage's ru_maxrss survives execve and would report the parent's peak
/// when the parent (e.g. a Python driver) was larger.
[[nodiscard]] double peak_rss_mb()
{
    std::ifstream status{"/proc/self/status"};
    std::string line;
    while (std::getline(status, line))
    {
        if (line.rfind("VmHWM:", 0) == 0)
        {
            return std::stod(line.substr(6)) / 1024.0;  // reported in kB
        }
    }
    throw std::runtime_error{"no VmHWM in /proc/self/status"};
}

/// Linearly interpolated quantile (q in [0, 1]) of a non-empty sample.
[[nodiscard]] double quantile(std::vector<double> values, double q)
{
    std::sort(values.begin(), values.end());
    const double pos = q * static_cast<double>(values.size() - 1);
    const auto lo = static_cast<std::size_t>(std::floor(pos));
    const auto hi = std::min(lo + 1, values.size() - 1);
    return values[lo] + (values[hi] - values[lo]) * (pos - static_cast<double>(lo));
}

[[nodiscard]] double median(const std::vector<double>& values)
{
    return values.empty() ? 0.0 : quantile(values, 0.5);
}

// ---------------------------------------------------------------------------
// JSON text
// ---------------------------------------------------------------------------

[[nodiscard]] std::string json_string(const std::string& s)
{
    std::string out = "\"";
    for (const char c : s)
    {
        switch (c)
        {
            case '"': out += "\\\""; break;
            case '\\': out += "\\\\"; break;
            case '\n': out += "\\n"; break;
            case '\t': out += "\\t"; break;
            default:
                if (static_cast<unsigned char>(c) < 0x20)
                {
                    char buf[8];
                    std::snprintf(buf, sizeof(buf), "\\u%04x", static_cast<unsigned>(c));
                    out += buf;
                }
                else
                {
                    out += c;
                }
        }
    }
    return out + "\"";
}

[[nodiscard]] std::string json_number(double v)
{
    if (!std::isfinite(v))
    {
        return "null";
    }
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

[[nodiscard]] std::string json_bool(bool v)
{
    return v ? "true" : "false";
}

/// An ordered JSON object whose values are already encoded.
using Fields = std::vector<std::pair<std::string, std::string>>;

[[nodiscard]] std::string json_object(const Fields& fields)
{
    std::string out = "{";
    for (std::size_t i = 0; i < fields.size(); ++i)
    {
        out += (i == 0 ? "" : ", ") + json_string(fields[i].first) + ": " + fields[i].second;
    }
    return out + "}";
}

[[nodiscard]] std::string json_array(const std::vector<std::string>& encoded)
{
    std::string out = "[";
    for (std::size_t i = 0; i < encoded.size(); ++i)
    {
        out += (i == 0 ? "" : ", ") + encoded[i];
    }
    return out + "]";
}

[[nodiscard]] std::string json_array(const std::vector<double>& values)
{
    std::vector<std::string> encoded;
    for (const double v : values)
    {
        encoded.push_back(json_number(v));
    }
    return json_array(encoded);
}

// ---------------------------------------------------------------------------
// spans
// ---------------------------------------------------------------------------

struct Span
{
    std::string name;
    std::int64_t start_ns{0};
    std::int64_t dur_ns{0};
    std::int64_t parent{-1};  ///< index into the same span vector, -1 = root
    std::uint64_t item{0};    ///< all spans of one item share this id
    unsigned tid{0};
    std::size_t sites{0};     ///< system size of a ground-state span
    std::string tile;         ///< design name of a phys.check span
};

[[nodiscard]] std::int64_t now_ns()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now().time_since_epoch())
        .count();
}

/// Small stable id of the calling thread for the trace's tid field.
[[nodiscard]] unsigned thread_slot()
{
    static std::atomic<unsigned> next{1};
    thread_local const unsigned slot = next.fetch_add(1);
    return slot;
}

/// In-memory span sink of one thread of work. A span opened while another
/// is open becomes its child.
class Recorder
{
  public:
    explicit Recorder(std::uint64_t item) : item_{item} {}

    /// RAII span over [construction, destruction).
    class Scope
    {
      public:
        Scope(Recorder& rec, std::string name) : rec_{rec}, index_{rec.open(std::move(name))} {}
        ~Scope() { rec_.close(index_); }
        Scope(const Scope&) = delete;
        Scope& operator=(const Scope&) = delete;
        Scope(Scope&&) = delete;
        Scope& operator=(Scope&&) = delete;

        /// The span being recorded; valid until the next span opens.
        [[nodiscard]] Span& span() { return rec_.spans_[index_]; }

      private:
        Recorder& rec_;
        std::size_t index_;
    };

    [[nodiscard]] std::uint64_t item() const noexcept { return item_; }
    [[nodiscard]] const std::vector<Span>& spans() const noexcept { return spans_; }

    /// Moves \p other's spans in, re-parenting its roots under the span
    /// open here.
    void adopt(Recorder&& other)
    {
        const auto offset = static_cast<std::int64_t>(spans_.size());
        const std::int64_t root = open_.empty() ? -1 : static_cast<std::int64_t>(open_.back());
        for (auto& s : other.spans_)
        {
            s.parent = s.parent < 0 ? root : s.parent + offset;
            spans_.push_back(std::move(s));
        }
        other.spans_.clear();
    }

  private:
    std::size_t open(std::string name)
    {
        Span s;
        s.name = std::move(name);
        s.parent = open_.empty() ? -1 : static_cast<std::int64_t>(open_.back());
        s.item = item_;
        s.tid = thread_slot();
        s.start_ns = now_ns();
        spans_.push_back(std::move(s));
        open_.push_back(spans_.size() - 1);
        return spans_.size() - 1;
    }

    void close(std::size_t index)
    {
        spans_[index].dur_ns = now_ns() - spans_[index].start_ns;
        open_.pop_back();
    }

    std::uint64_t item_;
    std::vector<Span> spans_;
    std::vector<std::size_t> open_;
};

/// Per-pass numbers keyed by stable dotted names.
using Counters = std::map<std::string, double>;

/// Layer times (ms) of one traced pass. "<span>.ms" is the span's self time:
/// its duration minus the part its child spans cover. Inclusive times are
/// added for a few sub-populations: ground states by system size, checks of
/// the crossing and NOR tiles, and all checks.
[[nodiscard]] Counters layer_times_ms(const std::vector<Span>& spans)
{
    std::vector<std::int64_t> child_ns(spans.size(), 0);
    for (const auto& s : spans)
    {
        if (s.parent >= 0)
        {
            child_ns[static_cast<std::size_t>(s.parent)] += s.dur_ns;
        }
    }
    Counters ms;
    for (std::size_t i = 0; i < spans.size(); ++i)
    {
        const auto& s = spans[i];
        const double total = static_cast<double>(s.dur_ns) * 1e-6;
        ms[s.name + ".ms"] += static_cast<double>(s.dur_ns - child_ns[i]) * 1e-6;
        if (s.name == "phys.ground_state")
        {
            ms[s.sites <= small_system_sites ? "phys.ground_state.small.ms"
                                             : "phys.ground_state.large.ms"] += total;
        }
        if (s.name == "phys.check")
        {
            ms["phys.check.inclusive.ms"] += total;
            if (s.tile == "crossing" || s.tile == "nor")
            {
                ms["phys.check." + s.tile + ".ms"] += total;
            }
        }
    }
    return ms;
}

// ---------------------------------------------------------------------------
// items and workloads
// ---------------------------------------------------------------------------

/// What one item produced. `pinned` holds what bench/flow/reference.json
/// pins (outputs no correct speed-up can change); `info` is reported only.
/// A traced replay must reproduce both exactly.
struct ItemOutput
{
    bool ok{true};
    std::string error;
    Fields pinned;
    Fields info;

    [[nodiscard]] bool same_as(const ItemOutput& other) const
    {
        return ok == other.ok && pinned == other.pinned && info == other.info;
    }

    void fail(std::string why)
    {
        if (ok)
        {
            ok = false;
            error = std::move(why);
        }
    }
};

/// Timing of one untraced item. flow_ms isolates the run_design_flow call so
/// that it can be set against the sum of its traced stages.
struct ItemTiming
{
    double total_ms{0.0};
    double flow_ms{0.0};
};

class Workload
{
  public:
    Workload() = default;
    virtual ~Workload() = default;
    Workload(const Workload&) = delete;
    Workload& operator=(const Workload&) = delete;
    Workload(Workload&&) = delete;
    Workload& operator=(Workload&&) = delete;

    [[nodiscard]] virtual std::size_t size() const = 0;
    [[nodiscard]] virtual std::string item_id(std::size_t i) const = 0;

    /// Worker threads the production calls use.
    [[nodiscard]] virtual unsigned threads() const { return 1; }

    /// The production call(s) for item \p i.
    virtual ItemOutput run(std::size_t i, ItemTiming& timing) const = 0;

    /// Stage-by-stage replay of run(i), recording spans and counters.
    virtual ItemOutput replay(std::size_t i, Recorder& rec, Counters& counters) const = 0;

    /// Checks across items, run once after the timed passes; returns the
    /// failures found.
    [[nodiscard]] virtual std::vector<std::string> final_checks(
        const std::vector<ItemOutput>& /*outputs*/) const
    {
        return {};
    }

    /// Workload-specific entries for the results' context block.
    [[nodiscard]] virtual Fields context() const { return {}; }
};

// --- flow workloads --------------------------------------------------------

[[nodiscard]] ItemOutput flow_output(const std::optional<layout::GateLevelLayout>& layout,
                                     const std::string& engine,
                                     layout::EquivalenceResult equivalence, bool drc_clean,
                                     const std::optional<layout::SiDBLayout>& sidb,
                                     std::size_t sqd_bytes)
{
    const bool equivalent = equivalence == layout::EquivalenceResult::equivalent;
    ItemOutput out;
    out.pinned = {{"engine", json_string(engine)},
                  {"w", json_number(layout ? layout->width() : 0)},
                  {"h", json_number(layout ? layout->height() : 0)},
                  {"area", json_number(layout ? layout->area() : 0)},
                  {"equivalent", json_bool(equivalent)},
                  {"drc_clean", json_bool(drc_clean)},
                  {"sqd", json_bool(sqd_bytes > 0)}};
    out.info = {{"sidbs", json_number(sidb ? static_cast<double>(sidb->num_sidbs()) : 0.0)},
                {"sqd_bytes", json_number(static_cast<double>(sqd_bytes))}};
    if (!layout.has_value())
    {
        out.fail("no layout");
    }
    else if (!equivalent)
    {
        out.fail("layout not proven equivalent");
    }
    else if (!drc_clean)
    {
        out.fail("DRC violations");
    }
    else if (!sidb.has_value() || sqd_bytes == 0)
    {
        out.fail("no dot-accurate layout emitted");
    }
    return out;
}

/// Flow items: specification -> .sqd, from Verilog text (table1) or from an
/// in-memory network (random_flow).
class FlowWorkload : public Workload
{
  public:
    [[nodiscard]] std::size_t size() const override { return ids_.size(); }
    [[nodiscard]] std::string item_id(std::size_t i) const override { return ids_[i]; }

    ItemOutput run(std::size_t i, ItemTiming& timing) const override
    {
        const auto start = Clock::now();
        const auto result = verilog_.empty() ? core::run_design_flow(specs_[i])
                                             : core::run_design_flow_verilog(verilog_[i]);
        timing.flow_ms = seconds_since(start) * 1e3;
        std::string sqd;
        if (result.sidb.has_value())
        {
            std::ostringstream os;
            io::write_sqd(os, *result.sidb);
            sqd = os.str();
        }
        timing.total_ms = seconds_since(start) * 1e3;
        auto out = flow_output(result.layout, result.engine_used, result.equivalence,
                               result.drc.clean(), result.sidb, sqd.size());
        if (const auto* cut = result.diagnostics.first_cut(); cut != nullptr)
        {
            out.fail("stage " + cut->stage + ": " + cut->detail);
        }
        return out;
    }

    /// The stages of run_design_flow(_verilog) with default FlowOptions, in
    /// its order, followed by write_sqd.
    ItemOutput replay(std::size_t i, Recorder& rec, Counters& c) const override
    {
        Recorder::Scope item{rec, "item"};
        try
        {
            logic::LogicNetwork spec;
            if (verilog_.empty())
            {
                spec = specs_[i];
            }
            else
            {
                Recorder::Scope s{rec, "io.parse"};
                spec = io::read_verilog_string(verilog_[i]);
            }
            logic::LogicNetwork xag;
            {
                Recorder::Scope s{rec, "logic.to_xag"};
                xag = logic::to_xag(spec);
            }
            logic::LogicNetwork rewritten;
            {
                Recorder::Scope s{rec, "logic.rewrite"};
                logic::NpnDatabase database;  // fresh per flow, as in production
                logic::RewriteStats stats;
                rewritten = logic::rewrite(xag, database, &stats);
                c["logic.rewrite.npn_classes"] += static_cast<double>(database.num_entries());
                c["logic.rewrite.synth_failures"] +=
                    static_cast<double>(database.num_synthesis_failures());
                c["logic.rewrite.replacements"] += static_cast<double>(stats.replacements);
                c["logic.rewrite.gates_after"] += static_cast<double>(stats.gates_after);
            }
            logic::LogicNetwork mapped;
            {
                Recorder::Scope s{rec, "logic.map"};
                logic::MappingStats stats;
                mapped = logic::map_to_bestagon(rewritten, &stats);
                c["logic.map.fanouts_inserted"] += static_cast<double>(stats.fanouts_inserted);
                c["logic.map.inverters_folded"] += static_cast<double>(stats.inverters_folded);
            }
            // the default engine: exact, with the scalable fallback when the
            // exact engine declines without being cancelled
            std::optional<layout::GateLevelLayout> layout;
            std::string engine = "exact";
            layout::ExactPDStats pd;
            {
                Recorder::Scope s{rec, "layout.exact_pd"};
                layout = layout::exact_physical_design(mapped, core::FlowOptions{}.exact_options,
                                                       &pd);
            }
            c["layout.exact_pd.rungs"] += pd.sizes_tried;
            c["layout.exact_pd.rungs_skipped"] += pd.sizes_skipped;
            c["layout.exact_pd.grid_generations"] += pd.grid_generations;
            c["sat.pnr.conflicts"] += static_cast<double>(pd.total_conflicts);
            c["layout.exact_pd.rungs_unsat"] += static_cast<double>(
                std::count_if(pd.size_verdicts.begin(), pd.size_verdicts.end(), [](const auto& v) {
                    return v.result == sat::Result::unsatisfiable;
                }));
            if (!layout.has_value() && !pd.cancelled)
            {
                Recorder::Scope s{rec, "layout.scalable_pd"};
                layout = layout::scalable_physical_design(mapped);
                engine = "scalable";
                c["core.flow.fallbacks"] += 1;
            }
            if (!layout.has_value())
            {
                return flow_output(layout, engine, layout::EquivalenceResult::unknown, false,
                                   std::nullopt, 0);
            }
            c["layout.exact_pd.area_tiles"] += layout->area();
            auto equivalence = layout::EquivalenceResult::unknown;
            {
                Recorder::Scope s{rec, "layout.equivalence"};
                layout::EquivalenceStats stats;
                equivalence = layout::check_layout_equivalence(mapped, *layout, &stats);
                c["sat.equivalence.conflicts"] += static_cast<double>(stats.conflicts);
            }
            std::optional<layout::SuperTileLayout> supertiles;
            {
                Recorder::Scope s{rec, "layout.supertiles"};
                supertiles =
                    layout::make_supertiles(*layout, core::FlowOptions{}.supertile_expansion);
            }
            layout::DrcReport drc;
            {
                Recorder::Scope s{rec, "layout.drc"};
                drc = layout::check_design_rules(*supertiles);
            }
            std::optional<layout::SiDBLayout> sidb;
            {
                Recorder::Scope s{rec, "layout.apply_library"};
                layout::ApplyStats stats;
                try
                {
                    sidb = layout::apply_gate_library(*layout, &stats);
                }
                catch (const std::exception&)
                {
                    c["layout.apply_library.failures"] += 1;
                }
                c["layout.apply_library.tiles"] += static_cast<double>(stats.tiles_mapped);
                c["layout.apply_library.crossings"] += static_cast<double>(stats.crossings_mapped);
                c["layout.apply_library.unvalidated_tiles"] +=
                    static_cast<double>(stats.unvalidated_tiles);
                c["layout.apply_library.sidbs"] +=
                    sidb ? static_cast<double>(sidb->num_sidbs()) : 0.0;
            }
            std::size_t sqd_bytes = 0;
            if (sidb.has_value())
            {
                Recorder::Scope s{rec, "io.sqd"};
                std::ostringstream os;
                io::write_sqd(os, *sidb);
                sqd_bytes = os.str().size();
                c["io.sqd.bytes"] += static_cast<double>(sqd_bytes);
            }
            return flow_output(layout, engine, equivalence, drc.clean(), sidb, sqd_bytes);
        }
        catch (const std::exception& e)
        {
            ItemOutput out;
            out.fail(std::string{"replay threw: "} + e.what());
            return out;
        }
    }

  protected:
    std::vector<std::string> ids_;
    std::vector<std::string> verilog_;        ///< table1: Verilog texts
    std::vector<logic::LogicNetwork> specs_;  ///< random_flow: networks
};

/// The Table-1 benchmarks, read from benchmarks/*.v.
class Table1Workload final : public FlowWorkload
{
  public:
    explicit Table1Workload(const std::filesystem::path& root)
    {
        std::vector<std::filesystem::path> files;
        for (const auto& entry : std::filesystem::directory_iterator{root / "benchmarks"})
        {
            if (entry.path().extension() == ".v")
            {
                files.push_back(entry.path());
            }
        }
        std::sort(files.begin(), files.end());
        for (const auto& file : files)
        {
            std::ifstream in{file};
            std::ostringstream text;
            text << in.rdbuf();
            if (!in)
            {
                throw std::runtime_error{"cannot read " + file.string()};
            }
            ids_.push_back(file.stem().string());
            verilog_.push_back(text.str());
        }
        if (ids_.empty())
        {
            throw std::runtime_error{"no benchmarks/*.v under " + root.string()};
        }
    }
};

/// Seeded random specifications. The testkit generator is drawn until 128
/// specs without a constant output are kept (exact P&R declines constants).
/// Of those, specs with an input no output depends on are set aside:
/// rewriting leaves that input unconnected, and apply_gate_library has no
/// tile for an unconnected PI (README.md, finding 1).
class RandomFlowWorkload final : public FlowWorkload
{
  public:
    static constexpr unsigned draws_kept = 128;

    RandomFlowWorkload()
    {
        testkit::XagOptions options;
        options.min_gates = 6;
        options.max_gates = 14;
        for (std::uint64_t i = 0; kept_ < draws_kept; ++i)
        {
            testkit::Rng rng{core::derive_seed(corpus_seed, i)};
            auto spec = testkit::random_network(rng, options);
            ++drawn_;
            const auto functions = spec.simulate();
            if (std::any_of(functions.begin(), functions.end(),
                            [](const auto& f) { return f.is_const0() || f.is_const1(); }))
            {
                ++constant_output_;
                continue;
            }
            ++kept_;
            bool every_input_used = true;
            for (unsigned v = 0; v < spec.num_pis(); ++v)
            {
                every_input_used =
                    every_input_used && std::any_of(functions.begin(), functions.end(),
                                                    [v](const auto& f) { return f.depends_on(v); });
            }
            if (!every_input_used)
            {
                ++unused_input_;
                continue;
            }
            ids_.push_back("spec" + std::to_string(i));
            specs_.push_back(std::move(spec));
        }
    }

    [[nodiscard]] Fields context() const override
    {
        return {{"specs_drawn", json_number(drawn_)},
                {"specs_constant_output_dropped", json_number(constant_output_)},
                {"specs_unused_input_set_aside", json_number(unused_input_)},
                {"specs_in_corpus", json_number(static_cast<double>(specs_.size()))}};
    }

  private:
    unsigned drawn_{0};
    unsigned kept_{0};
    unsigned constant_output_{0};
    unsigned unused_input_{0};
};

// --- phys workloads --------------------------------------------------------

/// Replays check_operational (optionally against a defect surface) call by
/// call: the instance cache, then instantiate + find_ground_state for each
/// input pattern.
[[nodiscard]] phys::OperationalResult replay_check(const phys::GateDesign& design,
                                                   const phys::SimulationParameters& params,
                                                   const phys::DefectSurface* defects,
                                                   Recorder& rec, Counters& c)
{
    Recorder::Scope check{rec, "phys.check"};
    check.span().tile = design.name;
    phys::OperationalResult result;
    result.patterns_total = 1ULL << design.num_inputs();
    std::optional<phys::GateInstanceCache> cache;
    {
        Recorder::Scope s{rec, "phys.instance_cache"};
        cache.emplace(design, params, defects);
    }
    if (cache->blocked())
    {
        result.blocked = true;
        return result;
    }
    for (std::uint64_t p = 0; p < result.patterns_total; ++p)
    {
        std::optional<phys::SiDBSystem> system;
        {
            Recorder::Scope s{rec, "phys.instantiate"};
            system.emplace(cache->instantiate(p));
        }
        phys::GroundStateResult ground;
        {
            Recorder::Scope s{rec, "phys.ground_state"};
            s.span().sites = system->size();
            ground = phys::find_ground_state(*system);
        }
        c["phys.ground_state.calls"] += 1;
        bool correct = true;
        for (std::size_t o = 0; o < design.output_pairs.size(); ++o)
        {
            const auto expected =
                design.functions[o].get_bit(p) ? phys::PairState::one : phys::PairState::zero;
            correct = correct && cache->read_output(o, ground.config) == expected;
        }
        result.patterns_correct += correct ? 1 : 0;
    }
    result.operational = result.patterns_correct == result.patterns_total;
    c["phys.tiles_operational"] += result.operational ? 1 : 0;
    return result;
}

/// The 27 Bestagon designs (library plus crossing) at the Fig. 5 point.
class SignoffWorkload final : public Workload
{
  public:
    SignoffWorkload()
    {
        const auto& library = layout::BestagonLibrary::instance();
        for (const auto& impl : library.all())
        {
            designs_.push_back(&impl.design);
        }
        designs_.push_back(&library.crossing().design);
        params_.num_threads = 1;
    }

    [[nodiscard]] std::size_t size() const override { return designs_.size(); }
    [[nodiscard]] std::string item_id(std::size_t i) const override
    {
        return std::to_string(i) + ":" + designs_[i]->name;
    }

    ItemOutput run(std::size_t i, ItemTiming& timing) const override
    {
        const auto start = Clock::now();
        const auto result = phys::check_operational(*designs_[i], params_);
        timing.total_ms = seconds_since(start) * 1e3;
        return output(result);
    }

    ItemOutput replay(std::size_t i, Recorder& rec, Counters& c) const override
    {
        Recorder::Scope item{rec, "item"};
        return output(replay_check(*designs_[i], params_, nullptr, rec, c));
    }

  private:
    [[nodiscard]] static ItemOutput output(const phys::OperationalResult& r)
    {
        ItemOutput out;
        out.pinned = {{"operational", json_bool(r.operational)},
                      {"patterns_correct", json_number(static_cast<double>(r.patterns_correct))},
                      {"patterns_total", json_number(static_cast<double>(r.patterns_total))}};
        if (r.cancelled || r.blocked)
        {
            out.fail("check cut short");
        }
        return out;
    }

    std::vector<const phys::GateDesign*> designs_;
    phys::SimulationParameters params_;
};

/// Monte-Carlo yield sweeps of the `or` tile at the default densities;
/// sweep k samples its defects from derive_seed(corpus_seed, k + 1).
class DefectYieldWorkload final : public Workload
{
  public:
    static constexpr std::size_t sweeps = 4;
    static constexpr unsigned samples = 48;

    DefectYieldWorkload()
    {
        for (const auto& impl : layout::BestagonLibrary::instance().all())
        {
            if (impl.design.name == "or")
            {
                design_ = &impl.design;
                break;
            }
        }
        if (design_ == nullptr)
        {
            throw std::runtime_error{"no `or` tile in the library"};
        }
        // two workers exercise the fan-out and its thread invariance; on a
        // shared machine, each further worker exposes the run to the other
        // tenants' load (README.md)
        threads_ = std::min(2U, std::max(1U, std::thread::hardware_concurrency()));
    }

    [[nodiscard]] std::size_t size() const override { return sweeps; }
    [[nodiscard]] std::string item_id(std::size_t i) const override
    {
        return "sweep" + std::to_string(i);
    }
    [[nodiscard]] unsigned threads() const override { return threads_; }

    ItemOutput run(std::size_t i, ItemTiming& timing) const override
    {
        const auto start = Clock::now();
        const auto result = phys::defect_yield_sweep(*design_, {}, sweep(i, threads_));
        timing.total_ms = seconds_since(start) * 1e3;
        return output(result.points, result.cancelled);
    }

    /// Replays defect_yield_sweep: the same per-sample defect streams, the
    /// same survival walk up the densities, each check through replay_check,
    /// and the samples fanned out over the same threads.
    ItemOutput replay(std::size_t i, Recorder& rec, Counters& c) const override
    {
        Recorder::Scope item{rec, "item"};
        const auto params = sweep(i, threads_);
        const auto region = phys::sweep_region(*design_, params.margin_nm);
        phys::DefectSampleParams sample_params;
        sample_params.charged_fraction = params.charged_fraction;
        sample_params.charge = params.charge;
        sample_params.exclusion_radius_nm = params.exclusion_radius_nm;
        phys::SimulationParameters serial;
        serial.num_threads = 1;

        struct Outcome
        {
            std::size_t first_failure{0};  ///< density index; == size() if never
            bool blocked{false};
            unsigned checks{0};
            unsigned blocked_checks{0};
        };
        std::vector<Outcome> outcomes(params.samples);
        std::vector<Counters> counters(params.samples);
        std::vector<Recorder> recorders;
        recorders.reserve(params.samples);
        for (unsigned s = 0; s < params.samples; ++s)
        {
            recorders.emplace_back(rec.item());
        }
        core::parallel_for(threads_, params.samples, [&](std::size_t s) {
            Recorder& r = recorders[s];
            Recorder::Scope sample{r, "phys.defect_sample"};
            const auto seed = core::derive_seed(params.seed, s);
            std::vector<std::size_t> counts;
            for (const double density : params.densities_per_nm2)
            {
                counts.push_back(phys::defect_count_for_density(region, density, seed));
            }
            const auto full =
                phys::sample_defect_surface(region, sample_params, seed, counts.back());
            auto& outcome = outcomes[s];
            outcome.first_failure = counts.size();
            for (std::size_t k = 0; k < counts.size(); ++k)
            {
                if (k > 0 && counts[k] == counts[k - 1])
                {
                    continue;  // no new defect at this density
                }
                const auto surface = full.prefix(counts[k]);
                const auto check = replay_check(*design_, serial, &surface, r, counters[s]);
                ++outcome.checks;
                outcome.blocked_checks += check.blocked ? 1 : 0;
                if (!check.operational)
                {
                    outcome.first_failure = k;
                    outcome.blocked = check.blocked;
                    break;
                }
            }
        });
        for (unsigned s = 0; s < params.samples; ++s)
        {
            rec.adopt(std::move(recorders[s]));
            for (const auto& [name, value] : counters[s])
            {
                c[name] += value;
            }
            c["phys.defect_sweep.checks"] += outcomes[s].checks;
            c["phys.defect_sweep.blocked"] += outcomes[s].blocked_checks;
        }
        std::vector<phys::YieldPoint> points(params.densities_per_nm2.size());
        for (std::size_t k = 0; k < points.size(); ++k)
        {
            points[k].density_per_nm2 = params.densities_per_nm2[k];
            for (const auto& outcome : outcomes)
            {
                ++points[k].samples_evaluated;
                if (outcome.first_failure > k)
                {
                    ++points[k].operational;
                }
                else if (outcome.blocked)
                {
                    ++points[k].blocked;
                }
            }
        }
        return output(points, false);
    }

    /// The yield curve of sweep 0 must not depend on the thread count.
    [[nodiscard]] std::vector<std::string> final_checks(
        const std::vector<ItemOutput>& outputs) const override
    {
        if (threads_ == 1 || outputs.empty())
        {
            return {};
        }
        const auto serial = phys::defect_yield_sweep(*design_, {}, sweep(0, 1));
        if (!output(serial.points, serial.cancelled).same_as(outputs[0]))
        {
            return {"sweep0: the yield curve at 1 thread differs from the curve at " +
                    std::to_string(threads_) + " threads"};
        }
        return {};
    }

    [[nodiscard]] Fields context() const override
    {
        return {{"gate", json_string(design_->name)},
                {"samples_per_sweep", json_number(samples)}};
    }

  private:
    [[nodiscard]] static phys::DefectSweepParams sweep(std::size_t i, unsigned threads)
    {
        phys::DefectSweepParams params;
        params.samples = samples;
        params.seed = core::derive_seed(corpus_seed, i + 1);
        params.num_threads = threads;
        return params;
    }

    [[nodiscard]] static ItemOutput output(const std::vector<phys::YieldPoint>& points,
                                           bool cancelled)
    {
        ItemOutput out;
        std::vector<std::string> curve;
        unsigned previous = samples;
        for (const auto& p : points)
        {
            curve.push_back(json_object({{"density_per_nm2", json_number(p.density_per_nm2)},
                                         {"operational", json_number(p.operational)},
                                         {"blocked", json_number(p.blocked)}}));
            if (p.samples_evaluated != samples || p.operational > previous ||
                p.operational + p.blocked > p.samples_evaluated)
            {
                out.fail("malformed yield curve");
            }
            previous = p.operational;
        }
        out.pinned = {{"points", json_array(curve)}};
        if (cancelled)
        {
            out.fail("sweep cut short");
        }
        return out;
    }

    const phys::GateDesign* design_{nullptr};
    unsigned threads_{1};
};

[[nodiscard]] std::unique_ptr<Workload> make_workload(const std::string& name,
                                                      const std::filesystem::path& root)
{
    if (name == "table1")
    {
        return std::make_unique<Table1Workload>(root);
    }
    if (name == "signoff")
    {
        return std::make_unique<SignoffWorkload>();
    }
    if (name == "random_flow")
    {
        return std::make_unique<RandomFlowWorkload>();
    }
    if (name == "defect_yield")
    {
        return std::make_unique<DefectYieldWorkload>();
    }
    throw std::invalid_argument{"unknown workload '" + name +
                                "' (table1, signoff, random_flow, defect_yield)"};
}

// ---------------------------------------------------------------------------
// the run
// ---------------------------------------------------------------------------

struct Options
{
    std::string workload;
    std::uint64_t seed{corpus_seed};
    double seconds{45.0};
    std::filesystem::path root{"."};
    std::string trace_path;
    std::string out_path;
    bool setup_only{false};
};

[[nodiscard]] Options parse_options(int argc, char** argv)
{
    Options o;
    for (int a = 1; a < argc; ++a)
    {
        const std::string arg = argv[a];
        const auto eq = arg.find('=');
        const std::string key = arg.substr(0, eq);
        const std::string value = eq == std::string::npos ? "" : arg.substr(eq + 1);
        if (key == "--workload")
        {
            o.workload = value;
        }
        else if (key == "--seed")
        {
            o.seed = std::stoull(value, nullptr, 0);
        }
        else if (key == "--seconds")
        {
            o.seconds = std::stod(value);
        }
        else if (key == "--root")
        {
            o.root = value;
        }
        else if (key == "--trace")
        {
            o.trace_path = value;
        }
        else if (key == "--out")
        {
            o.out_path = value;
        }
        else if (arg == "--setup-only")
        {
            o.setup_only = true;
        }
        else
        {
            throw std::invalid_argument{"unknown argument '" + arg + "'"};
        }
    }
    if (o.workload.empty())
    {
        throw std::invalid_argument{"--workload=<name> is required"};
    }
    if (!(o.seconds > 0.0))
    {
        throw std::invalid_argument{"--seconds must be positive"};
    }
    return o;
}

/// Item order of pass \p pass: a seeded shuffle of the corpus.
[[nodiscard]] std::vector<std::size_t> pass_order(std::size_t n, std::uint64_t seed,
                                                  std::size_t pass)
{
    std::vector<std::size_t> order(n);
    std::iota(order.begin(), order.end(), 0);
    testkit::Rng rng{core::derive_seed(seed, pass)};
    for (std::size_t i = n; i > 1; --i)
    {
        std::swap(order[i - 1], order[rng.below(i)]);
    }
    return order;
}

/// Everything a run measures and checks.
struct RunRecord
{
    std::vector<ItemOutput> warmup;  ///< outputs every later pass must match
    std::vector<std::string> errors;
    std::size_t attempted{0};
    std::size_t failed{0};

    std::vector<double> pass_s;
    std::vector<double> pass_cpu_s;
    std::vector<double> pass_flow_ms;  ///< sum of the run_design_flow calls of a pass
    std::vector<std::vector<double>> item_ms;  ///< per item, one latency per pass

    std::vector<double> traced_pass_s;
    std::vector<Counters> traced_layers;  ///< layer times and counters per traced pass
    std::vector<Span> trace;              ///< every traced span

    void check(const Workload& w, std::size_t i, const ItemOutput& out, const char* what)
    {
        ++attempted;
        if (!out.ok)
        {
            ++failed;
            errors.push_back(w.item_id(i) + ": " + out.error);
        }
        else if (!out.same_as(warmup[i]))
        {
            ++failed;
            errors.push_back(w.item_id(i) + ": " + what + " output differs from the warm-up pass");
        }
    }
};

void untraced_pass(const Workload& w, std::uint64_t seed, std::size_t pass, RunRecord& r)
{
    const auto order = pass_order(w.size(), seed, pass);
    double flow_ms = 0.0;
    const double cpu_start = process_cpu_s();
    const auto start = Clock::now();
    for (const auto i : order)
    {
        ItemTiming timing;
        const auto out = w.run(i, timing);
        r.item_ms[i].push_back(timing.total_ms);
        flow_ms += timing.flow_ms;
        r.check(w, i, out, "untraced");
    }
    r.pass_s.push_back(seconds_since(start));
    r.pass_cpu_s.push_back(process_cpu_s() - cpu_start);
    r.pass_flow_ms.push_back(flow_ms);
}

void traced_pass(const Workload& w, std::uint64_t seed, std::size_t pass, RunRecord& r)
{
    const auto order = pass_order(w.size(), seed, pass);
    std::vector<Span> spans;
    Counters counters;
    const auto start = Clock::now();
    for (const auto i : order)
    {
        Recorder rec{(static_cast<std::uint64_t>(pass) << 32) | i};
        const auto out = w.replay(i, rec, counters);
        r.check(w, i, out, "traced replay");
        const auto base = static_cast<std::int64_t>(spans.size());
        for (auto s : rec.spans())
        {
            s.parent = s.parent < 0 ? -1 : s.parent + base;
            spans.push_back(std::move(s));
        }
    }
    r.traced_pass_s.push_back(seconds_since(start));
    auto layers = layer_times_ms(spans);
    layers.insert(counters.begin(), counters.end());
    r.traced_layers.push_back(std::move(layers));
    r.trace.insert(r.trace.end(), std::make_move_iterator(spans.begin()),
                   std::make_move_iterator(spans.end()));
}

void write_chrome_trace(const std::string& path, const std::vector<Span>& spans)
{
    std::ofstream out{path};
    const std::int64_t t0 = spans.empty() ? 0 : spans.front().start_ns;
    out << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
    for (std::size_t i = 0; i < spans.size(); ++i)
    {
        const auto& s = spans[i];
        Fields args{{"item", json_number(static_cast<double>(s.item))}};
        if (s.sites > 0)
        {
            args.emplace_back("sites", json_number(static_cast<double>(s.sites)));
        }
        if (!s.tile.empty())
        {
            args.emplace_back("tile", json_string(s.tile));
        }
        out << json_object({{"name", json_string(s.name)},
                            {"ph", json_string("X")},
                            {"pid", "1"},
                            {"tid", json_number(s.tid)},
                            {"ts", json_number(static_cast<double>(s.start_ns - t0) * 1e-3)},
                            {"dur", json_number(static_cast<double>(s.dur_ns) * 1e-3)},
                            {"args", json_object(args)}})
            << (i + 1 < spans.size() ? ",\n" : "\n");
    }
    out << "]}\n";
    if (!out)
    {
        throw std::runtime_error{"cannot write " + path};
    }
}

/// Median over traced passes of one per-pass number (0 when absent).
[[nodiscard]] double traced_median(const std::vector<Counters>& passes, const std::string& key)
{
    std::vector<double> values;
    for (const auto& p : passes)
    {
        const auto it = p.find(key);
        values.push_back(it == p.end() ? 0.0 : it->second);
    }
    return median(values);
}

[[nodiscard]] std::string metric(double value, const std::string& unit)
{
    return json_object({{"value", json_number(value)}, {"unit", json_string(unit)}});
}

/// Times are the fastest of the run's passes. Load from other tenants of a
/// shared machine only ever slows a pass down, and it comes in bursts that
/// can cover most of a run, so the median pass measured the machine as much
/// as the program (README.md). Item latency quantiles are taken over the
/// corpus, one value per item: its fastest time in the run.
[[nodiscard]] Fields end_to_end_metrics(const RunRecord& r)
{
    std::vector<double> item_best;
    for (const auto& times : r.item_ms)
    {
        item_best.push_back(*std::min_element(times.begin(), times.end()));
    }
    return {{"wall_s", metric(*std::min_element(r.pass_s.begin(), r.pass_s.end()), "s")},
            {"cpu_s", metric(*std::min_element(r.pass_cpu_s.begin(), r.pass_cpu_s.end()), "s")},
            {"item_p50_ms", metric(quantile(item_best, 0.5), "ms")},
            {"item_p90_ms", metric(quantile(item_best, 0.9), "ms")},
            {"peak_rss_mb", metric(peak_rss_mb(), "MB")}};
}

/// Per-layer values, keyed by metric name: the median over the traced passes
/// of every layer time and counter (0 in a pass that lacks it), and the
/// ratios derived from them. Times are per pass. run.py reports the names
/// BENCHMARK.json lists, 0 for a layer the workload does not reach.
[[nodiscard]] Counters per_layer_values(const Workload& w, const RunRecord& r)
{
    Counters v;
    for (const auto& pass : r.traced_layers)
    {
        for (const auto& entry : pass)
        {
            v[entry.first] = traced_median(r.traced_layers, entry.first);
        }
    }
    const double wall = median(r.pass_s);
    if (median(r.pass_flow_ms) > 0.0)
    {
        // the flow call untraced, minus the traced stages it is made of
        double stages = 0.0;
        for (const char* stage :
             {"io.parse.ms", "logic.to_xag.ms", "logic.rewrite.ms", "logic.map.ms",
              "layout.exact_pd.ms", "layout.scalable_pd.ms", "layout.equivalence.ms",
              "layout.supertiles.ms", "layout.drc.ms", "layout.apply_library.ms"})
        {
            stages += v[stage];
        }
        v["core.flow.overhead.ms"] = median(r.pass_flow_ms) - stages;
    }
    v["core.parallel.efficiency"] = median(r.pass_cpu_s) / (wall * w.threads());
    if (const double checks = v["phys.defect_sweep.checks"]; checks > 0)
    {
        v["phys.defect_sweep.ms_per_check"] = v["phys.check.inclusive.ms"] / checks;
    }
    v["trace.overhead"] = median(r.traced_pass_s) / wall - 1.0;
    return v;
}

/// \p process_start is taken first thing in main(): set-up is everything from
/// there to the end of the warm-up pass.
int run(const Options& o, Clock::time_point process_start)
{
    const auto workload = make_workload(o.workload, o.root);
    const Workload& w = *workload;
    const bool traced = !o.trace_path.empty();
    RunRecord r;
    r.item_ms.resize(w.size());

    // warm-up: fills lazy state and fixes the outputs every later pass must
    // reproduce. It belongs to set-up, so that work moved from the timed
    // passes into a first-use cache shows in setup_s.
    for (std::size_t i = 0; i < w.size(); ++i)
    {
        ItemTiming timing;
        r.warmup.push_back(w.run(i, timing));
        if (!r.warmup.back().ok)
        {
            r.errors.push_back(w.item_id(i) + ": " + r.warmup.back().error);
        }
    }
    const double setup_s = seconds_since(process_start);
    if (o.setup_only)
    {
        for (const auto& e : r.errors)
        {
            std::fprintf(stderr, "bench_flow: %s\n", e.c_str());
        }
        std::printf("%s\n", json_number(setup_s).c_str());
        return r.errors.empty() ? 0 : 1;
    }

    const auto start = Clock::now();
    for (std::size_t pass = 0;; ++pass)
    {
        untraced_pass(w, o.seed, pass, r);
        if (traced)
        {
            traced_pass(w, o.seed, pass, r);
        }
        // begin another pass only if it should end within the budget
        const double elapsed = seconds_since(start);
        if (pass + 1 >= min_passes && elapsed * static_cast<double>(pass + 2) /
                                              static_cast<double>(pass + 1) >
                                          o.seconds)
        {
            break;
        }
    }
    const double measured_s = seconds_since(start);
    for (auto& e : w.final_checks(r.warmup))
    {
        r.errors.push_back(std::move(e));
    }

    Fields context{{"build_type", json_string(BENCH_FLOW_BUILD_TYPE)},
                   {"compiler", json_string(BENCH_FLOW_COMPILER)},
                   {"num_cpus", json_number(std::thread::hardware_concurrency())},
                   {"threads", json_number(w.threads())},
                   {"seed", json_number(static_cast<double>(o.seed))},
                   {"corpus_seed", json_number(static_cast<double>(corpus_seed))},
                   {"seconds", json_number(o.seconds)},
                   {"items_per_pass", json_number(static_cast<double>(w.size()))},
                   {"passes", json_number(static_cast<double>(r.pass_s.size()))},
                   {"traced_passes", json_number(static_cast<double>(r.traced_pass_s.size()))},
                   {"measured_s", json_number(measured_s)}};
    for (auto& f : w.context())
    {
        context.push_back(std::move(f));
    }
    std::vector<std::string> outputs;
    for (std::size_t i = 0; i < w.size(); ++i)
    {
        outputs.push_back(json_object({{"id", json_string(w.item_id(i))},
                                       {"pinned", json_object(r.warmup[i].pinned)},
                                       {"info", json_object(r.warmup[i].info)},
                                       {"ms", json_array(r.item_ms[i])}}));
    }
    std::vector<std::string> errors;
    for (const auto& e : r.errors)
    {
        errors.push_back(json_string(e));
    }
    Fields results{{"workload", json_string(o.workload)},
                   {"mode", json_string(traced ? "traced" : "untraced")},
                   {"context", json_object(context)},
                   {"ok", json_bool(r.errors.empty())},
                   {"errors", json_array(errors)},
                   {"attempted", json_number(static_cast<double>(r.attempted))},
                   {"failed", json_number(static_cast<double>(r.failed))},
                   {"setup_s", json_number(setup_s)},
                   {"pass_s", json_array(r.pass_s)},
                   {"pass_cpu_s", json_array(r.pass_cpu_s)},
                   {"metrics", json_object(end_to_end_metrics(r))},
                   {"outputs", json_array(outputs)}};
    if (traced)
    {
        results.emplace_back("traced_pass_s", json_array(r.traced_pass_s));
        Fields per_layer;
        for (const auto& [name, value] : per_layer_values(w, r))
        {
            per_layer.emplace_back(name, json_number(value));
        }
        results.emplace_back("per_layer", json_object(per_layer));
    }
    const std::string text = json_object(results) + "\n";
    if (o.out_path.empty())
    {
        std::fputs(text.c_str(), stdout);
    }
    else
    {
        std::ofstream out{o.out_path};
        out << text;
        if (!out)
        {
            throw std::runtime_error{"cannot write " + o.out_path};
        }
    }
    if (traced)
    {
        write_chrome_trace(o.trace_path, r.trace);
    }
    for (const auto& e : r.errors)
    {
        std::fprintf(stderr, "bench_flow: %s\n", e.c_str());
    }
    return r.errors.empty() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv)
{
    const auto process_start = Clock::now();
    try
    {
        return run(parse_options(argc, argv), process_start);
    }
    catch (const std::exception& e)
    {
        std::fprintf(stderr, "bench_flow: %s\n", e.what());
        return 2;
    }
}
