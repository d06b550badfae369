/// \file thread_pool.hpp
/// \brief Reusable thread pool and deterministic parallel-for for the
///        physical-simulation layer.
///
/// The simulation stack fans out over *independent* ground-state searches at
/// five points (input patterns, operational-domain grid points, candidate
/// canvases, defect samples, library tiles). All of them funnel through
/// `parallel_for`, which dispatches index-addressed work onto a shared
/// lazily-created pool. Determinism rules:
///
///  - Work items are addressed by index; callers write results into
///    preallocated slots, so scheduling order never reorders outputs.
///  - Randomized work derives its RNG stream from `derive_seed(base, index)`
///    rather than sharing a sequential generator, so results are
///    bit-identical regardless of thread count.
///  - `num_threads == 1` executes inline on the calling thread (no pool
///    involvement at all), and `num_threads == 0` resolves to the hardware
///    concurrency.
///  - Nested `parallel_for` calls issued from inside a pool worker run
///    inline, which both avoids deadlock (workers never block on the queue
///    they drain) and caps the total worker count at the pool size.

#pragma once

#include "core/run_control.hpp"
#include "core/thread_annotations.hpp"

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <thread>
#include <vector>

namespace bestagon::core
{

/// Resolves a user-facing thread-count knob: 0 = hardware concurrency
/// (at least 1); explicit requests are honored up to a sanity cap of 256 so
/// tests may oversubscribe a small machine.
[[nodiscard]] unsigned resolve_thread_count(unsigned requested) noexcept;

/// Deterministically derives an independent 64-bit seed for work item
/// \p index from \p base (splitmix64 finalizer). Streams for distinct
/// indices are statistically independent, and the mapping depends only on
/// (base, index) — never on thread count or scheduling.
[[nodiscard]] std::uint64_t derive_seed(std::uint64_t base, std::uint64_t index) noexcept;

/// A fixed-size pool of worker threads draining a shared task queue.
/// Tasks are plain `void()` closures; `parallel_for` (below) is the
/// intended entry point for simulation code.
class ThreadPool
{
  public:
    /// Spawns \p num_threads workers (resolved via resolve_thread_count).
    explicit ThreadPool(unsigned num_threads);
    ~ThreadPool();

    ThreadPool(const ThreadPool&) = delete;
    ThreadPool& operator=(const ThreadPool&) = delete;

    /// Number of worker threads owned by the pool.
    [[nodiscard]] std::size_t size() const noexcept { return workers_.size(); }

    /// Runs `body(0) ... body(count-1)` cooperatively: up to
    /// \p max_workers - 1 pool workers plus the calling thread pull indices
    /// from a shared atomic counter (dynamic load balancing). Blocks until
    /// every index has been processed; the first exception thrown by any
    /// \p body invocation is rethrown on the calling thread.
    void run(std::size_t count, const std::function<void(std::size_t)>& body, unsigned max_workers);

    /// The process-wide pool used by `parallel_for`; created on first use,
    /// sized for the hardware (minimum 4 workers so determinism and race
    /// tests exercise real concurrency even on small machines).
    static ThreadPool& shared();

    /// True iff the calling thread is a pool worker (used to run nested
    /// parallel sections inline).
    [[nodiscard]] static bool inside_worker() noexcept;

  private:
    void worker_loop();
    void enqueue(std::function<void()> task) EXCLUDES(mutex_);

    std::vector<std::thread> workers_;  ///< written by ctor/dtor only
    Mutex mutex_;
    std::deque<std::function<void()>> queue_ GUARDED_BY(mutex_);
    std::condition_variable wake_;
    bool stop_ GUARDED_BY(mutex_){false};
};

/// Executes `body(i)` for all `i` in `[0, count)` using at most
/// `resolve_thread_count(num_threads)` concurrent workers. Runs inline when
/// the resolved count is 1, when there is at most one work item, or when
/// called from inside a pool worker (nested parallelism). The 1-thread path
/// is byte-for-byte the plain serial loop.
void parallel_for(unsigned num_threads, std::size_t count,
                  const std::function<void(std::size_t)>& body);

/// Run-controlled variant: every participating thread polls \p run between
/// work items and stops pulling new indices once the budget is stopped
/// (items already started still finish — bodies are never interrupted
/// mid-update). Callers must therefore tolerate unprocessed slots after a
/// stop. With an unlimited budget this forwards to the plain overload and
/// is bit-identical to it.
void parallel_for(unsigned num_threads, std::size_t count, const RunBudget& run,
                  const std::function<void(std::size_t)>& body);

}  // namespace bestagon::core
