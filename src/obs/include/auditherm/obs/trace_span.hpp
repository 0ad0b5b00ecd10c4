#pragma once

/// \file trace_span.hpp
/// RAII tracing spans and the per-run Recorder they feed.
///
/// A Recorder bundles a MetricsRegistry with a span log for one pipeline
/// run (or bench, or CLI invocation). Installing it with RecorderScope
/// makes it the process-wide *current* recorder; every TraceSpan and every
/// hot-path helper below records into it. With no recorder installed the
/// cost of an instrumentation site is one relaxed atomic load and a
/// predictable branch; building with -DAUDITHERM_OBS=OFF compiles the
/// sites out entirely (see kCompiledIn in metrics.hpp).
///
/// Span trees and determinism: spans only *observe* — they read the
/// steady clock and append a record, never feeding anything back into the
/// computation they wrap — so instrumented runs are bitwise identical to
/// uninstrumented ones (pinned by test_obs). Parent linkage is a
/// thread-local stack; spans opened on pool worker threads (whose stacks
/// are empty) attach to the *ambient parent* the parallel runtime sets
/// around each batch, which is race-free because top-level batches are
/// serialized.

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "auditherm/obs/metrics.hpp"

namespace auditherm::obs {

/// One closed span. `start_ns` is measured from the recorder's creation;
/// `thread` is a dense per-recorder ordinal (0 = first thread seen).
struct SpanRecord {
  std::uint64_t id = 0;      ///< 1-based; ids increase construction order
  std::uint64_t parent = 0;  ///< 0 = root
  std::string name;
  std::uint64_t start_ns = 0;
  std::uint64_t duration_ns = 0;
  std::uint32_t thread = 0;
};

/// Per-run observability sink: metrics + span log.
class Recorder {
 public:
  /// Spans beyond this are dropped (counted in the `obs.dropped_spans`
  /// counter) so a runaway loop can't balloon the log.
  static constexpr std::size_t kMaxSpans = 65536;

  Recorder();
  Recorder(const Recorder&) = delete;
  Recorder& operator=(const Recorder&) = delete;

  [[nodiscard]] MetricsRegistry& metrics() noexcept { return metrics_; }
  [[nodiscard]] const MetricsRegistry& metrics() const noexcept {
    return metrics_;
  }

  /// Closed spans, ordered by id (== construction order).
  [[nodiscard]] std::vector<SpanRecord> spans() const;

  // -- TraceSpan internals (public so the parallel runtime can batch) ----
  [[nodiscard]] std::uint64_t next_span_id() noexcept;
  [[nodiscard]] std::uint64_t now_ns() const noexcept;
  void append(SpanRecord&& record);

 private:
  [[nodiscard]] std::uint32_t thread_ordinal();

  MetricsRegistry metrics_;
  std::uint64_t origin_ns_;
  std::atomic<std::uint64_t> next_id_{1};
  mutable std::mutex mutex_;
  std::vector<SpanRecord> spans_;
  std::unordered_map<std::thread::id, std::uint32_t> thread_ordinals_;
};

/// The process-wide current recorder (nullptr = observability off).
[[nodiscard]] Recorder* current() noexcept;

/// True when some recorder is installed.
[[nodiscard]] inline bool enabled() noexcept { return current() != nullptr; }

/// RAII installation of a recorder as the process-wide current one; to
/// observe a pipeline call, install one around it. A null or
/// already-current recorder makes the scope a no-op, so a caller may pass
/// an optional sink unconditionally and nested layers can install the
/// same recorder without fighting. Concurrent scopes installing
/// *different* recorders are unsupported.
class RecorderScope {
 public:
  explicit RecorderScope(Recorder* recorder) noexcept;
  ~RecorderScope();
  RecorderScope(const RecorderScope&) = delete;
  RecorderScope& operator=(const RecorderScope&) = delete;

 private:
  bool active_;
  Recorder* previous_ = nullptr;
};

/// Parent span id for spans opened on threads with an empty span stack
/// (pool workers). Set by the parallel runtime around each batch; 0
/// clears it. Top-level batches are serialized, so one global suffices.
void set_ambient_parent(std::uint64_t span_id) noexcept;

#if defined(AUDITHERM_NO_OBS)

/// Compile-time no-op span: the name argument is evaluated but nothing is
/// recorded and no clock is read.
class TraceSpan {
 public:
  explicit TraceSpan(std::string_view) noexcept {}
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;
  [[nodiscard]] std::uint64_t id() const noexcept { return 0; }
};

inline void add_counter(MetricId, std::uint64_t = 1) noexcept {}
inline void set_gauge(MetricId, double) noexcept {}
inline void observe(MetricId, double) noexcept {}
inline void add_counter(std::string_view, std::uint64_t = 1) noexcept {}

#else

/// RAII scoped timer: opens on construction, appends a SpanRecord to the
/// current recorder on destruction. Free when no recorder is installed.
/// Must not outlive the recorder that was current at its construction.
class TraceSpan {
 public:
  explicit TraceSpan(std::string_view name);
  ~TraceSpan();
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

  /// This span's id, or 0 when recording is disabled.
  [[nodiscard]] std::uint64_t id() const noexcept { return id_; }

 private:
  Recorder* recorder_ = nullptr;  ///< captured at construction
  std::uint64_t id_ = 0;
  std::uint64_t parent_ = 0;
  std::uint64_t start_ns_ = 0;
  std::string name_;
};

/// Record into the current recorder, if any. MetricId overloads are the
/// hot-path form; resolve the id once with a function-local static.
inline void add_counter(MetricId id, std::uint64_t delta = 1) noexcept {
  if (Recorder* r = current()) r->metrics().add(id, delta);
}
inline void set_gauge(MetricId id, double value) {
  if (Recorder* r = current()) r->metrics().set(id, value);
}
inline void observe(MetricId id, double value) noexcept {
  if (Recorder* r = current()) r->metrics().observe(id, value);
}
inline void add_counter(std::string_view name, std::uint64_t delta = 1) {
  if (Recorder* r = current()) r->metrics().add_counter(name, delta);
}

#endif  // AUDITHERM_NO_OBS

}  // namespace auditherm::obs
