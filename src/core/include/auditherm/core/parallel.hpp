#pragma once

/// \file parallel.hpp
/// Deterministic thread-pool parallelism for the library's hot paths.
///
/// Design goals, in priority order:
///   1. **Bitwise determinism.** A parallel region's result is identical to
///      serial execution at any thread count. Work is split into *static
///      chunks* whose boundaries depend only on (range, grainsize) — never
///      on the thread count — and reductions combine per-chunk accumulators
///      in ascending chunk order. Threads race only for *which* chunk they
///      execute, never for what a chunk computes.
///   2. **Zero cost when disabled.** A resolved thread count of 1 runs the
///      body inline on the calling thread; no pool is ever spun up.
///   3. **Safe nesting.** A parallel region entered from inside another
///      parallel region (worker or participating caller) runs serially, so
///      coarse-grained sweeps can wrap the parallel kernels without
///      deadlock or thread explosion.
///
/// Thread count resolution, strongest first: set_thread_count() override >
/// the AUDITHERM_THREADS environment variable > hardware_concurrency().
/// The CLI's --threads flag sets the override; benches and tests pin a
/// count with ThreadCountScope.

#include <cstddef>
#include <exception>
#include <functional>
#include <utility>
#include <vector>

namespace auditherm::core {

/// Resolved number of threads parallel regions may use (always >= 1).
[[nodiscard]] std::size_t thread_count();

/// Override the thread count process-wide; `n == 0` clears the override
/// (falling back to AUDITHERM_THREADS, then hardware_concurrency()).
/// Returns the previous override (0 when none was set).
std::size_t set_thread_count(std::size_t n);

/// RAII thread-count override. `n == 0` leaves the current setting alone
/// ("inherit").
class ThreadCountScope {
 public:
  explicit ThreadCountScope(std::size_t n)
      : active_(n > 0), previous_(active_ ? set_thread_count(n) : 0) {}
  ~ThreadCountScope() {
    if (active_) set_thread_count(previous_);
  }
  ThreadCountScope(const ThreadCountScope&) = delete;
  ThreadCountScope& operator=(const ThreadCountScope&) = delete;

 private:
  bool active_;
  std::size_t previous_;
};

namespace detail {

/// Number of static chunks a range of `n` items splits into at `grain`
/// items per chunk. Depends only on (n, grain) — this is what makes the
/// decomposition thread-count independent.
[[nodiscard]] constexpr std::size_t chunk_count(std::size_t n,
                                                std::size_t grain) noexcept {
  if (grain == 0) grain = 1;
  return n == 0 ? 0 : (n + grain - 1) / grain;
}

/// True while the current thread is executing inside a parallel region
/// (worker or participating caller); nested regions then run serially.
[[nodiscard]] bool in_parallel_region() noexcept;

/// Execute task(0) .. task(count - 1), each exactly once, using up to
/// thread_count() threads (the caller participates). Tasks are claimed
/// dynamically, so completion order is unspecified — tasks must write to
/// disjoint state. All tasks run even if one throws; afterwards the
/// lowest-index captured exception is rethrown on the calling thread.
void run_tasks(std::size_t count, const std::function<void(std::size_t)>& task);

}  // namespace detail

/// Apply `body(chunk_begin, chunk_end)` over static chunks of
/// [begin, end). Chunk boundaries are determined solely by the range and
/// `grain`; chunks must not share mutable state.
template <typename Body>
void parallel_for_chunks(std::size_t begin, std::size_t end, std::size_t grain,
                         Body&& body) {
  if (end <= begin) return;
  if (grain == 0) grain = 1;
  const std::size_t n = end - begin;
  const std::size_t chunks = detail::chunk_count(n, grain);
  if (chunks == 1) {
    body(begin, end);
    return;
  }
  detail::run_tasks(chunks, [&](std::size_t c) {
    const std::size_t lo = begin + c * grain;
    const std::size_t hi = lo + grain < end ? lo + grain : end;
    body(lo, hi);
  });
}

/// Apply `body(i)` for each i in [begin, end), chunked by `grain`.
/// Iterations must be independent (disjoint writes).
template <typename Body>
void parallel_for(std::size_t begin, std::size_t end, std::size_t grain,
                  Body&& body) {
  parallel_for_chunks(begin, end, grain,
                      [&](std::size_t lo, std::size_t hi) {
                        for (std::size_t i = lo; i < hi; ++i) body(i);
                      });
}

/// Ordered reduction over [begin, end): `map(chunk_begin, chunk_end) -> T`
/// produces one accumulator per static chunk; `combine(acc, value)` folds
/// them **in ascending chunk order**, starting from `identity`. Because
/// the chunking and the fold order are fixed, the result is bitwise
/// identical at any thread count (including 1).
template <typename T, typename MapFn, typename CombineFn>
[[nodiscard]] T parallel_reduce(std::size_t begin, std::size_t end,
                                std::size_t grain, T identity, MapFn&& map,
                                CombineFn&& combine) {
  if (end <= begin) return identity;
  if (grain == 0) grain = 1;
  const std::size_t chunks = detail::chunk_count(end - begin, grain);
  std::vector<T> partial(chunks);
  detail::run_tasks(chunks, [&](std::size_t c) {
    const std::size_t lo = begin + c * grain;
    const std::size_t hi = lo + grain < end ? lo + grain : end;
    partial[c] = map(lo, hi);
  });
  T acc = std::move(identity);
  for (std::size_t c = 0; c < chunks; ++c) {
    acc = combine(std::move(acc), std::move(partial[c]));
  }
  return acc;
}

/// Grainsize so each chunk carries roughly `target_ops` worth of work:
/// items with heavy bodies get small grains (down to 1), cheap bodies get
/// large grains so serial ranges skip the pool entirely.
[[nodiscard]] constexpr std::size_t grain_for_cost(
    std::size_t ops_per_item, std::size_t target_ops = 16384) noexcept {
  if (ops_per_item == 0) ops_per_item = 1;
  const std::size_t g = target_ops / ops_per_item;
  return g == 0 ? 1 : g;
}

}  // namespace auditherm::core
