#pragma once

/// \file service.hpp
/// The transport-independent analysis service behind `auditherm serve`
/// and the one-shot `auditherm analyze` subcommand.
///
/// Both front-ends decode their inputs into one AnalyzeRequest and render
/// the result through the same report builder, which is what makes a
/// daemon response byte-identical to the one-shot CLI's stdout for the
/// same inputs — there is exactly one code path from request to text.
///
/// Concurrent requests deduplicate through the shared StageCache alone
/// (DESIGN.md §"Serving"): every Step-1 stage is keyed by content, and a
/// request that needs a stage another request is still building parks on
/// that in-flight key and reuses the artifact instead of recomputing it.

#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "auditherm/core/pipeline.hpp"
#include "auditherm/core/stage_cache.hpp"
#include "auditherm/serve/json.hpp"
#include "auditherm/timeseries/multi_trace.hpp"

namespace auditherm::serve {

/// One analysis request — a field per `auditherm analyze` flag, with the
/// same defaults, so CLI args and JSON bodies decode into the same shape.
struct AnalyzeRequest {
  std::string data;     ///< trace CSV path (required)
  std::string metric;   ///< "" or "correlation" (default) | "euclidean"
  long clusters = 0;    ///< 0 = eigengap choice
  long order = 2;       ///< model order, 1 | 2
  long per_cluster = 1; ///< representatives per cluster
  long sweep = 0;       ///< seeds for the strategy sweep (0 = none)
  std::string graph;    ///< "" = epsilon | knn
  long knn = 0;         ///< neighbors for --graph knn (0 = default)
  /// Sliding-window length in rows for the streaming-identification
  /// section (`analyze --stream`); 0 = off, -1 = growing window.
  long stream = 0;
  /// Occupancy input source (`--occupancy` / JSON "inputs" object):
  /// "" or "truth" = the ground-truth channel, "estimated" = CO2
  /// mass-balance estimate calibrated on the training split, "schedule" =
  /// two-level HVAC-schedule prior.
  std::string occupancy;
  /// Round the estimated occupancy to whole occupants (inputs.round).
  bool occupancy_round = false;
  /// Upper clamp on the estimate (inputs.clamp_max; NaN = none).
  double occupancy_clamp = std::numeric_limits<double>::quiet_NaN();
};

/// Decode a JSON object body ({"data": "...", "clusters": 3, ...}) into a
/// request. Unknown keys and wrongly typed values throw
/// std::invalid_argument — a typo'd option silently falling back to a
/// default would return a *valid-looking but wrong* report.
[[nodiscard]] AnalyzeRequest request_from_json(const json::Value& body);

/// Partition a loaded trace's channels by the library conventions:
/// ids 40/41 are the HVAC thermostats, other ids < 100 are wireless
/// temperature sensors, 101..109 VAV flows, 110/111/112 the
/// occupancy/lighting/ambient inputs. Ids >= 200 are *extended-range*
/// temperature sensors — synthetic campus-scale buildings outgrow the
/// two-digit id space of the paper's auditorium; 100..199 stays reserved.
struct ChannelSets {
  std::vector<timeseries::ChannelId> sensors;
  std::vector<timeseries::ChannelId> thermostats;
  std::vector<timeseries::ChannelId> inputs;  ///< [flows..., occ, light, amb]
};

/// Classify `trace`'s channels; throws timeseries::InputError when fewer
/// than 2 sensors or 2 inputs are present (the pipeline needs both).
[[nodiscard]] ChannelSets classify_channels(
    const timeseries::MultiTrace& trace);

/// Build the identification input plan a request asks for over the
/// classified inputs: every slot ground truth except the occupancy
/// channel, which follows request.occupancy ("estimated" swaps in a CO2
/// mass-balance slot fed by the trace's VAV flows, "schedule" a two-level
/// schedule prior). Throws core::cli::UsageError for unknown occupancy
/// values and timeseries::InputError when the trace has no occupancy
/// channel to replace; "" / "truth" return a pure ground-truth plan.
[[nodiscard]] sysid::InputPlan input_plan_for(const AnalyzeRequest& request,
                                              const ChannelSets& sets);

/// Human-readable strategy name used in sweep tables.
[[nodiscard]] const char* strategy_name(core::SelectionStrategy strategy);

/// Service configuration.
struct ServiceConfig {
  /// Byte budget for the shared stage cache (0 = unlimited). The daemon
  /// front-end sets this from --cache-budget-mb.
  core::CacheBudget cache_budget;
  /// When false the stage cache is bypassed entirely; results are bitwise
  /// identical either way (the uncached service is the reference the
  /// serve tests compare the cached one against).
  bool cache_enabled = true;
};

/// Stateful analysis engine: owns the shared StageCache and turns
/// AnalyzeRequests into report strings. Thread-safe — serve's worker
/// threads call analyze() concurrently; the one-shot CLI constructs a
/// short-lived instance and calls it once.
class AnalysisService {
 public:
  explicit AnalysisService(ServiceConfig config = {});
  AnalysisService(const AnalysisService&) = delete;
  AnalysisService& operator=(const AnalysisService&) = delete;

  /// Run one analysis and return the report text (the one-shot CLI's
  /// exact stdout). Throws core::cli::UsageError for a bad option value
  /// (an unknown name, or a negative clusters/knn/sweep, per_cluster < 1,
  /// order outside {1, 2}, stream < -1) before the trace is read;
  /// timeseries::InputError for bad input data (an unreadable or
  /// malformed trace, too few channels, more clusters than sensors —
  /// checked before any Step-1 stage runs — too few usable transitions, a
  /// non-finite result) and std::runtime_error for other data problems.
  [[nodiscard]] std::string analyze(const AnalyzeRequest& request);

  [[nodiscard]] const core::StageCache& cache() const noexcept {
    return cache_;
  }
  [[nodiscard]] core::StageCache& cache() noexcept { return cache_; }

 private:
  /// Load a trace CSV, memoized in the stage cache under the raw byte
  /// hash (stage "trace_load") so repeated requests against the same file
  /// skip the parse.
  [[nodiscard]] std::shared_ptr<const timeseries::MultiTrace> load_trace(
      const std::string& path);

  /// Translate request options into a pipeline configuration (validates
  /// the metric and graph values; throws core::cli::UsageError on an
  /// unknown one).
  [[nodiscard]] static core::PipelineConfig make_config(
      const AnalyzeRequest& request);

  ServiceConfig config_;
  core::StageCache cache_;
};

}  // namespace auditherm::serve
