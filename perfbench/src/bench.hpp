#pragma once

// Shared pieces of the auditherm benchmark program: options, the result
// record every workload fills, timing/percentile helpers, the seeded input
// generators and the span ledger.

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "auditherm/obs/trace_span.hpp"
#include "auditherm/timeseries/multi_trace.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double ms_between(Clock::time_point a,
                                       Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string data_dir;
  /// Cap on measured (and traced) ops; 0 = run for `seconds`.
  std::size_t max_ops = 0;
  /// Setup repetitions whose median is setup_s.
  std::size_t setup_reps = 3;
};

/// One generated input file and its FNV-1a-64 fingerprint over the bytes.
struct InputRecord {
  std::string name;
  std::size_t bytes = 0;
  std::uint64_t fingerprint = 0;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one workload run produced.
struct Outcome {
  bool correct = true;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<InputRecord> inputs;
  /// Why `correct` is false (first few mismatches), for stderr.
  std::vector<std::string> problems;

  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  void fail(std::string why) {
    correct = false;
    if (problems.size() < 8) problems.push_back(std::move(why));
  }
};

/// Nearest-rank percentile (p in [0, 100]); 0 for an empty sample.
[[nodiscard]] double percentile(std::vector<double> values, double p);
[[nodiscard]] double mean(const std::vector<double>& values);
[[nodiscard]] double median(std::vector<double> values);
/// Peak resident set size of this process so far, in MB.
[[nodiscard]] double peak_rss_mb();

// --- inputs ---------------------------------------------------------------

/// Write `trace` as CSV to `path` and fingerprint the written bytes.
InputRecord write_input(const std::string& name, const std::string& path,
                        const auditherm::timeseries::MultiTrace& trace);

/// Read a whole file into memory; throws std::runtime_error on failure.
[[nodiscard]] std::string read_file(const std::string& path);

/// Seeded synthetic building under the CLI channel conventions: sensors
/// 200.., thermostats 40/41, VAV flows 101..104, occupancy/lighting/ambient
/// 110/111/112; 30-minute steps. Every sensor follows one of four thermal
/// zones with its own seeded disturbance, so the zones are what clustering
/// should recover. `zone_of[i]` is sensor i's zone (ids 200 + i).
[[nodiscard]] auditherm::timeseries::MultiTrace make_zoned_building(
    std::size_t sensors, std::size_t days, std::uint64_t seed,
    std::vector<int>* zone_of = nullptr);

// --- ledger ---------------------------------------------------------------

/// Layer self times (ms) per root span of `spans`. Spans are bucketed by
/// the layer their name maps to; an unmapped span (a parallel batch, a
/// sweep case) belongs to its nearest mapped ancestor, and everything under
/// a sweep stays in core.sweep. Roots are spans named `root_name`.
[[nodiscard]] std::vector<std::map<std::string, double>> layer_times(
    const std::vector<auditherm::obs::SpanRecord>& spans,
    const std::string& root_name);

/// The ledger layers in report order (each becomes "<layer>_ms").
[[nodiscard]] const std::vector<std::string>& ledger_layers();

// --- metrics --------------------------------------------------------------

/// One timed phase of ops: latency of every attempted op (from its due
/// time), how many were correct within the workload's latency limit, and
/// the phase's wall time.
struct PhaseStats {
  std::vector<double> latency_ms;
  std::size_t good = 0;
  double wall_s = 0.0;
};

/// Append the end-to-end metrics (the --trace 0 set).
void emit_end_to_end(Outcome& out, double setup_s, const PhaseStats& phase);

/// Inputs of the per-layer metrics (the --trace 1 set).
struct LayerReport {
  /// Layer self times of each traced op (layer_times()).
  std::vector<std::map<std::string, double>> layer_ms;
  /// Wall time of each traced op, of the same op run with no recorder,
  /// and of each untraced end-to-end op (the service call).
  std::vector<double> traced_ms;
  std::vector<double> plain_ms;
  std::vector<double> untraced_ms;
  /// Recorder counters summed over the traced ops.
  std::map<std::string, double> counters;
  /// CSV bytes each traced op parsed (0 when parsing is not spanned).
  double csv_bytes_per_op = 0.0;
  /// Stage-cache activity of the untraced phase and its op count.
  double cache_hits = 0.0;
  double cache_misses = 0.0;
  double cache_evictions = 0.0;
  double cache_resident_bytes = 0.0;
  std::size_t cache_ops = 0;
  /// Service time (send to response) and generator lateness per request.
  std::vector<double> service_ms;
  std::vector<double> send_late_ms;
};

/// Append the per-layer metrics (the --trace 1 set).
void emit_layers(Outcome& out, const LayerReport& report);

/// Recorder counters the ledger reports, summed into `into`.
void add_counters(const auditherm::obs::Recorder& recorder,
                  std::map<std::string, double>& into);

// --- workloads ------------------------------------------------------------

[[nodiscard]] Outcome run_analyze_workload(const Options& options);
[[nodiscard]] Outcome run_serve_workload(const Options& options);

}  // namespace perfbench
