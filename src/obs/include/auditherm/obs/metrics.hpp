#pragma once

/// \file metrics.hpp
/// Lock-cheap metrics registry: counters, gauges, and fixed-layout
/// histograms, recorded into per-thread shards and merged deterministically
/// at snapshot time.
///
/// Design (see DESIGN.md §"Observability"):
///   * Metric names are interned process-wide into dense indices
///     (counter_id() / gauge_id() / histogram_id()); hot paths resolve a
///     MetricId once (function-local static) and then record with one
///     relaxed atomic RMW into a thread-local shard — no lock, no string.
///   * Each thread gets its own shard per registry, created on first use
///     (the only locked path). Writes are single-writer; atomics exist
///     only so a concurrent snapshot never reads a torn value.
///   * snapshot() merges shards **in registration order** and sorts the
///     output by metric name. Counter and bucket merges are integer sums
///     (order-independent); histogram value sums are doubles folded in
///     that fixed shard order. Recording never feeds back into the
///     computation being measured, which is why instrumented runs stay
///     bitwise identical to uninstrumented ones.
///   * Gauges are last-write-wins and rare; they live under the registry
///     mutex rather than in shards.

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

namespace auditherm::obs {

/// True when observability instrumentation is compiled in (the default);
/// building with -DAUDITHERM_OBS=OFF defines AUDITHERM_NO_OBS, turning the
/// hot-path helpers in trace_span.hpp into constant-folded no-ops. The
/// registry itself stays real in both modes; code that needs a count for
/// its own logic (StageCache's hit/miss accessors) keeps it outside obs.
#if defined(AUDITHERM_NO_OBS)
inline constexpr bool kCompiledIn = false;
#else
inline constexpr bool kCompiledIn = true;
#endif

enum class MetricKind : std::uint8_t { kCounter, kGauge, kHistogram };

/// The one fixed histogram bucket layout: exponential, bucket b counts
/// values <= 2^b (b = 0..kBucketCount-2), last bucket is the overflow.
/// Durations are recorded in microseconds, so the layout spans 1 µs to
/// ~67 s before overflowing — wide enough for any stage this library runs.
struct HistogramLayout {
  static constexpr std::size_t kBucketCount = 28;

  /// Upper bound of bucket b (inclusive); the last bucket is unbounded.
  [[nodiscard]] static constexpr double upper_bound(std::size_t b) noexcept {
    return static_cast<double>(std::uint64_t{1} << b);
  }

  /// Index of the bucket `value` falls into (negatives clamp to bucket 0).
  [[nodiscard]] static std::size_t bucket_of(double value) noexcept;
};

/// Dense handle for an interned metric; resolve once, record many times.
class MetricId {
 public:
  constexpr MetricId() = default;

  [[nodiscard]] constexpr bool valid() const noexcept {
    return index_ != kInvalid;
  }
  [[nodiscard]] constexpr std::size_t index() const noexcept { return index_; }
  /// Shard slot for histogram metrics (kInvalid otherwise).
  [[nodiscard]] constexpr std::size_t histogram_slot() const noexcept {
    return slot_;
  }

 private:
  friend MetricId intern_metric(std::string_view, MetricKind);
  static constexpr std::size_t kInvalid = static_cast<std::size_t>(-1);
  constexpr MetricId(std::size_t index, std::size_t slot) noexcept
      : index_(index), slot_(slot) {}

  std::size_t index_ = kInvalid;
  std::size_t slot_ = kInvalid;
};

/// Intern `name` as a metric of `kind`, returning its dense id. Idempotent
/// for a (name, kind) pair; throws std::invalid_argument when the name was
/// already interned with a different kind, std::length_error past the
/// fixed capacity (256 metrics / 64 histograms).
[[nodiscard]] MetricId intern_metric(std::string_view name, MetricKind kind);

[[nodiscard]] inline MetricId counter_id(std::string_view name) {
  return intern_metric(name, MetricKind::kCounter);
}
[[nodiscard]] inline MetricId gauge_id(std::string_view name) {
  return intern_metric(name, MetricKind::kGauge);
}
[[nodiscard]] inline MetricId histogram_id(std::string_view name) {
  return intern_metric(name, MetricKind::kHistogram);
}

/// Merged view of one histogram.
struct HistogramSnapshot {
  std::string name;
  std::uint64_t count = 0;
  double sum = 0.0;
  double max = 0.0;
  std::array<std::uint64_t, HistogramLayout::kBucketCount> buckets{};

  [[nodiscard]] double mean() const noexcept {
    return count == 0 ? 0.0 : sum / static_cast<double>(count);
  }
};

/// Deterministic merged view of a registry: every sequence sorted by
/// metric name; zero-valued counters and empty histograms are omitted.
struct MetricsSnapshot {
  std::vector<std::pair<std::string, std::uint64_t>> counters;
  std::vector<std::pair<std::string, double>> gauges;
  std::vector<HistogramSnapshot> histograms;
};

/// Thread-sharded metrics store. Recording through a MetricId is
/// lock-free after a thread's first touch; name-based conveniences intern
/// on the fly (two short critical sections) and suit cold paths like the
/// StageCache's counter mirror.
class MetricsRegistry {
 public:
  /// Fixed shard capacities; intern_metric throws beyond them.
  static constexpr std::size_t kMaxMetrics = 256;
  static constexpr std::size_t kMaxHistograms = 64;

  MetricsRegistry();
  ~MetricsRegistry();
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  void add(MetricId id, std::uint64_t delta = 1) noexcept;
  void set(MetricId id, double value);
  void observe(MetricId id, double value) noexcept;

  void add_counter(std::string_view name, std::uint64_t delta = 1);

  /// Current value of a counter by name (0 when never recorded here).
  [[nodiscard]] std::uint64_t counter(std::string_view name) const;

  [[nodiscard]] MetricsSnapshot snapshot() const;

 private:
  struct Shard;

  [[nodiscard]] Shard& local_shard() noexcept;
  Shard& register_shard();

  /// Process-unique identity for the thread-local shard cache; never
  /// reused, so a stale cache entry can't match a new registry that
  /// happens to land at the same address.
  const std::uint64_t epoch_;
  mutable std::mutex mutex_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::unordered_map<std::thread::id, Shard*> shard_by_thread_;
  std::map<std::size_t, double> gauges_;  ///< metric index -> last value
};

}  // namespace auditherm::obs
