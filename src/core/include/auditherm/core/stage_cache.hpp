#pragma once

/// \file stage_cache.hpp
/// Content-keyed memoization of the modeling pipeline's expensive stages.
///
/// The paper's evaluation sweeps (Tables I-II, Figs 8-11) rerun the
/// pipeline across selection strategies and seeds over a *fixed*
/// clustering: the training view, similarity graph, Laplacian spectrum,
/// k-means labels, evaluation windows, and measured cluster means never
/// depend on strategy or seed. A StageCache memoizes those artifacts under
/// a cheap structural hash of everything they *do* depend on, so a sweep
/// over N cases performs the Step-1 work exactly once (amgcl's
/// setup/solve split: build the expensive operator once, reuse it across
/// many solves).
///
/// Key rules (see DESIGN.md §"Stage cache"):
///   * Keys are chained: each stage's key folds its upstream stage's key
///     with the options that stage newly consumes. Changing, say, the
///     spectral options invalidates the clustering but still reuses the
///     similarity graph.
///   * Trace content enters keys via trace_fingerprint(): grid, channel
///     ids, and every sample's bit pattern (NaN gaps normalized to one
///     pattern). Two bitwise-equal traces share cache entries; any edit
///     misses.
///   * Hits return shared_ptr aliases of the stored artifact — callers
///     never copy, and a cached run is bitwise identical to an uncached
///     one because both execute the same builder code on the same inputs.
///
/// Memory budget: a long-running cache (the `auditherm serve` daemon
/// shares one across every request) is constructed with a CacheBudget;
/// completed artifacts are byte-accounted through the sized_artifact
/// trait and evicted least-recently-used once the resident set exceeds
/// the budget. Eviction only ever removes *completed* entries — an entry
/// with a builder in flight has no value (and no bytes) and is skipped.
/// Hits keep their shared_ptr aliases alive across eviction, so eviction
/// is always safe; it only costs a rebuild on the next touch of that key.
/// A builder that throws leaves no entry behind: waiters parked on it wake
/// and rebuild, as does the next caller.
///
/// Thread safety: get_or_build() may be called concurrently from serve's
/// request threads (or any threads outside a parallel region). One mutex
/// guards the table and the hit/miss counts; builders run with NO cache
/// lock held (a builder may itself fan out over the thread pool, so
/// holding a lock across build() would order it against the pool's batch
/// mutex — a lock-order inversion TSan rejects). Hit/miss/eviction events
/// are mirrored into the current obs recorder only *after* mutex_ is
/// released, so the cache lock never couples with the recorder's shard
/// locks (serve installs a long-lived recorder that every request thread
/// records into). A key's first toucher claims it and later publishes;
/// concurrent touchers park on a condition variable until it does, so a
/// key is built exactly once. Parking from inside a pooled batch could
/// deadlock (a pool thread waiting on a builder that waits for the pool's
/// batch mutex), so a call from inside a parallel region throws
/// std::logic_error: a sweep prepares its Step-1 artifacts before its
/// fan-out, and its cases never touch the cache.

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <type_traits>
#include <unordered_map>
#include <vector>

#include "auditherm/core/stage_key.hpp"
#include "auditherm/timeseries/multi_trace.hpp"

namespace auditherm::core {

/// Structural fingerprint of a trace: grid, channel ids, and all sample
/// bits. O(rows x channels) but pure streaming arithmetic — microseconds
/// against the milliseconds-to-seconds stages it guards. Takes a view and
/// hashes the *viewed* content, so a zero-copy subset keys identically to
/// the materialized trace it is equivalent to (a MultiTrace converts
/// implicitly and keys exactly as before).
[[nodiscard]] std::uint64_t trace_fingerprint(
    const timeseries::TraceView& trace);

/// Memory budget for a StageCache. `bytes == 0` (the default) means
/// unlimited — the historical grow-only behavior, right for one-shot CLI
/// runs and sweeps whose working set is bounded by construction.
struct CacheBudget {
  std::size_t bytes = 0;
};

/// --- sized_artifact: per-entry byte accounting ---------------------------
///
/// Estimated resident bytes of a cached artifact, used by the budgeted
/// cache's LRU accounting. Customize for a type by providing an
/// ADL-visible `std::size_t cache_footprint(const T&)` in T's namespace
/// (the library does so for Matrix, MultiTrace, SimilarityGraph,
/// SpectralAnalysis, and ClusteringResult). Without one, std::vector
/// payloads are recursed generically and anything else is accounted as
/// sizeof(T). Estimates need not be exact — they must only be
/// deterministic and proportional, so eviction order and budget
/// enforcement are reproducible.
namespace size_detail {
template <typename T>
inline constexpr bool is_std_vector = false;
template <typename T, typename A>
inline constexpr bool is_std_vector<std::vector<T, A>> = true;
}  // namespace size_detail

template <typename T>
struct sized_artifact {
  [[nodiscard]] static std::size_t bytes(const T& v) {
    if constexpr (requires { cache_footprint(v); }) {
      return static_cast<std::size_t>(cache_footprint(v));
    } else if constexpr (size_detail::is_std_vector<T>) {
      using U = typename T::value_type;
      std::size_t total = sizeof(T) + v.capacity() * sizeof(U);
      if constexpr (!std::is_trivially_copyable_v<U>) {
        // Non-trivial elements own further heap payloads; their in-buffer
        // header bytes are already counted in the capacity term.
        for (const auto& e : v) total += sized_artifact<U>::bytes(e) - sizeof(U);
      }
      return total;
    } else {
      return sizeof(T);
    }
  }
};

/// Hit/miss counters for one stage (or the cache-wide totals), kept in the
/// cache's table under its mutex. When a run recorder is installed
/// (obs::RecorderScope) each event is also mirrored there as a
/// `stage_cache.hit.<stage>` / `stage_cache.miss.<stage>` counter, so
/// --metrics-out JSON carries them without any caller-side plumbing.
struct StageStats {
  std::size_t hits = 0;
  std::size_t misses = 0;  ///< == number of times the stage was computed
};

/// Thread-safe content-keyed memo table for pipeline stage artifacts,
/// optionally bounded by a byte budget with LRU eviction.
///
/// Values are type-erased internally; get_or_build<T> stores and returns
/// shared_ptr<const T>. A key must always be used with the same T (keys
/// fold in a per-stage tag, so distinct stages never collide).
class StageCache {
 public:
  StageCache() = default;
  explicit StageCache(CacheBudget budget) : budget_(budget) {}
  StageCache(const StageCache&) = delete;
  StageCache& operator=(const StageCache&) = delete;

  /// Return the artifact for (stage, key). On first touch `build` runs
  /// once; concurrent first-touchers wait for it, so every caller receives
  /// the same stored artifact. Throws std::logic_error when called from
  /// inside a parallel region (see the file comment).
  template <typename T, typename BuildFn>
  std::shared_ptr<const T> get_or_build(std::string_view stage,
                                        std::uint64_t key, BuildFn&& build) {
    auto erased = get_or_build_erased(
        stage, tag_key(stage, key), [&]() -> ErasedArtifact {
          auto value = std::make_shared<const T>(build());
          const std::size_t bytes = sized_artifact<T>::bytes(*value);
          return ErasedArtifact{std::move(value), bytes};
        });
    return std::static_pointer_cast<const T>(std::move(erased));
  }

  /// Counters for one stage name ({0,0} for a never-seen stage).
  [[nodiscard]] StageStats stats(std::string_view stage) const;
  /// Counters summed over all stages.
  [[nodiscard]] StageStats totals() const;
  /// Number of cached artifacts.
  [[nodiscard]] std::size_t size() const;
  /// Byte-accounted size of every completed artifact currently resident.
  [[nodiscard]] std::size_t resident_bytes() const;
  /// The configured budget (0 = unlimited).
  [[nodiscard]] std::size_t budget_bytes() const noexcept {
    return budget_.bytes;
  }
  /// Entries evicted over the cache's lifetime (monotonic).
  [[nodiscard]] std::uint64_t eviction_count() const;
  /// Bytes reclaimed by eviction over the cache's lifetime (monotonic).
  [[nodiscard]] std::uint64_t evicted_bytes() const;

 private:
  /// A type-erased artifact plus its sized_artifact byte estimate.
  struct ErasedArtifact {
    std::shared_ptr<const void> value;
    std::size_t bytes = 0;
  };

  struct Entry {
    std::shared_ptr<const void> value;
    std::size_t bytes = 0;
    bool building = false;  ///< a builder is running for this key
    std::string stage;  ///< stage name, for eviction counters
    /// Position in lru_, valid iff `value` is set: only completed entries
    /// are LRU-linked, so eviction can never remove an in-flight build.
    std::list<std::uint64_t>::iterator lru;
  };

  /// Deferred counter mirror: (name, delta) pairs recorded while holding
  /// mutex_ and flushed into the current obs recorder after it is
  /// released, so the cache lock never nests recorder locks.
  using PendingEvents = std::vector<std::pair<std::string, std::uint64_t>>;

  /// Fold the stage name into the key so two stages with equal content
  /// keys address different slots.
  [[nodiscard]] static std::uint64_t tag_key(std::string_view stage,
                                             std::uint64_t key) noexcept;

  std::shared_ptr<const void> get_or_build_erased(
      std::string_view stage, std::uint64_t tagged_key,
      const std::function<ErasedArtifact()>& build);

  /// Mirror a hit/miss into the current run recorder. Called with mutex_
  /// NOT held.
  static void mirror_event(std::string_view stage, bool hit);
  /// Flush deferred eviction/gauge events. Called with mutex_ NOT held.
  void flush_events(const PendingEvents& events);

  // --- locked helpers (caller holds mutex_) ------------------------------
  /// The counters of `stage`, created on first use.
  StageStats& stats_locked(std::string_view stage);
  /// Evict LRU-tail entries until resident_bytes_ fits the budget,
  /// appending one eviction counter event per entry to `events`.
  void evict_over_budget_locked(PendingEvents& events);

  mutable std::mutex mutex_;
  std::condition_variable build_done_;
  std::unordered_map<std::uint64_t, Entry> entries_;
  /// Completed entries, most recently used first.
  std::list<std::uint64_t> lru_;
  CacheBudget budget_;
  std::size_t resident_bytes_ = 0;
  std::uint64_t evictions_ = 0;
  std::uint64_t evicted_bytes_ = 0;
  /// Hit/miss counts per stage name.
  std::map<std::string, StageStats, std::less<>> stats_;
};

}  // namespace auditherm::core
