#pragma once

/// \file pipeline.hpp
/// The paper's three-step modeling method (Section VII):
///   1. cluster the dense sensor network from training data,
///   2. select representative sensor(s) per cluster,
///   3. identify a simplified dynamic model over the selected sensors,
/// plus the evaluation of the reduced model against measured cluster means
/// (Fig. 11).

#include <cstdint>
#include <memory>
#include <string_view>
#include <vector>

#include "auditherm/clustering/spectral.hpp"
#include "auditherm/core/parallel.hpp"
#include "auditherm/core/split.hpp"
#include "auditherm/core/stage_cache.hpp"
#include "auditherm/obs/trace_span.hpp"
#include "auditherm/selection/evaluation.hpp"
#include "auditherm/selection/gp_placement.hpp"
#include "auditherm/selection/strategies.hpp"
#include "auditherm/sysid/estimator.hpp"
#include "auditherm/sysid/evaluation.hpp"
#include "auditherm/sysid/input_plan.hpp"
#include "auditherm/sysid/streaming.hpp"

namespace auditherm::core {

/// Which representative-selection strategy step 2 uses.
enum class SelectionStrategy {
  kStratifiedNearMean,  ///< SMS — the paper's recommendation
  kStratifiedRandom,    ///< SRS
  kSimpleRandom,        ///< RS baseline
  kThermostats,         ///< the HVAC's own thermostats
  kGaussianProcess,     ///< Krause et al. MI placement
};

/// Pipeline configuration. Runs model kPipelineMode, evaluate with
/// kPipelineEvaluation and use the process-wide thread count (results are
/// bitwise identical at any count — see parallel.hpp).
struct PipelineConfig {
  clustering::SimilarityOptions similarity;  ///< correlation metric default
  clustering::SpectralOptions spectral;      ///< eigengap-chosen k default
  SelectionStrategy strategy = SelectionStrategy::kStratifiedNearMean;
  std::size_t sensors_per_cluster = 1;
  std::uint64_t selection_seed = 7;          ///< SRS / RS draws
  sysid::ModelOrder order = sysid::ModelOrder::kSecond;
  sysid::EstimationOptions estimation;
};

/// The schedule mode every pipeline run trains and validates in: the
/// paper identifies the occupied (HVAC-on) regime (Section VII).
inline constexpr hvac::Mode kPipelineMode = hvac::Mode::kOccupied;

/// Validation-window options every pipeline run evaluates with: 13.5 h
/// horizons, windows of at least 4 predicted steps (sysid::EvaluationOptions
/// defaults, the paper's Fig. 11 setup).
inline constexpr sysid::EvaluationOptions kPipelineEvaluation{};

/// StageCache stage names used by the pipeline (for stats() queries; see
/// DESIGN.md for the key-chaining rules).
namespace stage {
inline constexpr std::string_view kTrainingView = "training_view";
inline constexpr std::string_view kSimilarityGraph = "similarity_graph";
inline constexpr std::string_view kSpectrum = "spectrum";
inline constexpr std::string_view kClustering = "clustering";
inline constexpr std::string_view kClusterSets = "cluster_sets";
inline constexpr std::string_view kClusterMeans = "cluster_means";
inline constexpr std::string_view kWindows = "evaluation_windows";
}  // namespace stage

/// The strategy/seed-independent Step-1 artifacts a sweep's cases share:
/// everything the pipeline computes before representative selection.
/// Obtained from ThermalModelingPipeline::prepare(); fields are shared
/// pointers so cache hits alias the stored artifacts without copying.
struct StageArtifacts {
  /// Training days in the configured mode, rows reindexed — a zero-copy
  /// view. On the uncached path it views the caller's source trace (the
  /// artifacts must not outlive it); on the cached path it views the
  /// materialized copy owned by `training_store`. Either way every
  /// consumer reads identical bits.
  timeseries::TraceView training;
  /// Owns the materialized training trace when a StageCache is in play
  /// (cache entries must outlive the source trace); null on the zero-copy
  /// uncached path.
  std::shared_ptr<const timeseries::MultiTrace> training_store;
  std::shared_ptr<const clustering::SimilarityGraph> graph;
  /// Laplacian eigendecomposition of the graph: its needed_eigenpairs()
  /// smallest pairs, reused across cluster counts up to kEigengapMaxK + 1
  /// — only the cheap k-means embedding depends on k.
  std::shared_ptr<const clustering::SpectralAnalysis> spectrum;
  std::shared_ptr<const clustering::ClusteringResult> clustering;
  std::shared_ptr<const selection::ClusterSets> clusters;
  /// Validation evaluation windows (mode rows with valid inputs).
  std::shared_ptr<const std::vector<timeseries::Segment>> windows;
  /// Measured all-sensor mean per cluster over the whole trace.
  std::shared_ptr<const std::vector<linalg::Vector>> cluster_means;
  /// Train-day AND mode rows on the source trace (cheap, never cached).
  std::vector<bool> train_mode_mask;
  /// Resolved input plan (null when the run uses raw input_ids — the
  /// ground-truth default). Owns the derived columns, so augmented views
  /// built from it stay valid as long as the artifacts are.
  std::shared_ptr<const sysid::ResolvedInputPlan> inputs;
};

/// Per-call knobs for the unified run() / run_strategy_sweep() entry
/// points. Every field is optional; a default-constructed RunOptions
/// reproduces the plain uncached run. The struct only points at caller
/// resources — it owns nothing but the thermostat id list.
struct RunOptions {
  /// HVAC thermostat channels; read only by the kThermostats strategy
  /// (may stay empty otherwise).
  std::vector<timeseries::ChannelId> thermostat_ids;
  /// Stage cache to fetch/store the Step-1 artifacts through (null =
  /// build them inline). Results are bitwise identical either way.
  StageCache* cache = nullptr;
  /// Precomputed Step-1 artifacts (from prepare()); when set, the run
  /// skips prepare() entirely and `cache` is not consulted. Must outlive
  /// the call.
  const StageArtifacts* artifacts = nullptr;
  /// Input-source plan for the identification input block. Null (the
  /// default) reads the passed input_ids literally — the pre-plan
  /// behavior, bit for bit. When set, the plan's resolved channel ids
  /// replace input_ids and its fingerprint enters the stage keys, so
  /// cached artifacts never alias across input sources. Ignored when
  /// `artifacts` is set (the artifacts carry their own resolved plan).
  const sysid::InputPlan* input_plan = nullptr;
};

/// Everything the pipeline produces.
struct PipelineResult {
  clustering::ClusteringResult clustering;
  selection::Selection selection;
  sysid::ThermalModel reduced_model;
  /// Reduced-model prediction errors vs the selected sensors' own readings.
  sysid::PredictionEvaluation reduced_eval;
  /// Reduced-model predictions vs measured cluster means (Fig. 11 metric).
  selection::ClusterMeanErrors cluster_mean_errors;
};

/// The three-step pipeline.
class ThermalModelingPipeline {
 public:
  /// Throws std::invalid_argument when sensors_per_cluster == 0.
  explicit ThermalModelingPipeline(PipelineConfig config);

  [[nodiscard]] const PipelineConfig& config() const noexcept {
    return config_;
  }

  /// Run on one trace with a prepared split — the single entry point.
  ///
  /// `sensor_ids` are the dense-network temperature channels, `input_ids`
  /// the [h; o; l; w] block; everything optional (thermostats, stage
  /// cache, precomputed artifacts, input plan) rides in `options`.
  /// Caching never changes the result: every combination of options is
  /// bitwise identical on the same inputs. To observe a call, install an
  /// obs::RecorderScope around it; instrumentation only observes (pinned
  /// by test_obs). Safe to call concurrently when sharing one cache, but
  /// not with a cache from inside a parallel region (see StageCache).
  [[nodiscard]] PipelineResult run(
      const timeseries::MultiTrace& trace, const hvac::Schedule& schedule,
      const DataSplit& split,
      const std::vector<timeseries::ChannelId>& sensor_ids,
      const std::vector<timeseries::ChannelId>& input_ids,
      const RunOptions& options) const;

  /// Build (or fetch, when `cache` is non-null) the Step-1 artifacts:
  /// resolved input plan, training view, similarity graph, spectrum,
  /// clustering, cluster sets, evaluation windows, and measured cluster
  /// means. Strategy and seed do not enter the cache keys, so every case
  /// of a sweep resolves to the same entries. A non-null `input_plan` is
  /// resolved against the training split and its fingerprint folded into
  /// every stage key; null keeps the raw input_ids path bit for bit.
  [[nodiscard]] StageArtifacts prepare(
      const timeseries::MultiTrace& trace, const hvac::Schedule& schedule,
      const DataSplit& split,
      const std::vector<timeseries::ChannelId>& sensor_ids,
      const std::vector<timeseries::ChannelId>& input_ids,
      StageCache* cache = nullptr,
      const sysid::InputPlan* input_plan = nullptr) const;

 private:
  /// Steps 2 + 3 + evaluation on prepared Step-1 artifacts.
  [[nodiscard]] PipelineResult run_from(
      const StageArtifacts& artifacts, const timeseries::MultiTrace& trace,
      const std::vector<timeseries::ChannelId>& sensor_ids,
      const std::vector<timeseries::ChannelId>& input_ids,
      const std::vector<timeseries::ChannelId>& thermostat_ids) const;

  PipelineConfig config_;
};

/// One case of a strategy sweep: a selection strategy plus the seed its
/// random draws use (ignored by the deterministic strategies).
struct SweepCase {
  SelectionStrategy strategy = SelectionStrategy::kStratifiedNearMean;
  std::uint64_t seed = 7;
};

/// Run the pipeline once per case (the per-strategy × per-seed evaluation
/// sweeps behind Tables I-II and Figs 8-11), parallelized over cases with
/// the deterministic runtime: results arrive in case order and each case
/// equals a standalone run() with that strategy/seed. `base` supplies
/// every other configuration field.
///
/// The strategy/seed-independent Step-1 prefix (training view, similarity
/// graph, eigendecomposition, clustering, windows, cluster means) is
/// prepared exactly once, before the fan-out, and every case runs on
/// those artifacts; only Step 2 + Step 3 + evaluation fan out, and no case
/// touches the stage cache. Set `options.cache` to share the prefix across
/// successive sweeps too (e.g. per-k sweeps reuse the spectrum); leave it
/// null to prepare a zero-copy prefix that views `trace`. Set
/// `options.artifacts` to skip the prefix computation entirely. Results
/// stay bitwise identical to per-case run() at any thread count and under
/// any option combination.
[[nodiscard]] std::vector<PipelineResult> run_strategy_sweep(
    const PipelineConfig& base, const std::vector<SweepCase>& cases,
    const timeseries::MultiTrace& trace, const hvac::Schedule& schedule,
    const DataSplit& split,
    const std::vector<timeseries::ChannelId>& sensor_ids,
    const std::vector<timeseries::ChannelId>& input_ids,
    const RunOptions& options);

/// Configuration for the streaming-identification entry point.
struct StreamingRunConfig {
  sysid::ModelOrder order = sysid::ModelOrder::kSecond;
  /// Window and drift-detector knobs. The default
  /// EstimationOptions inside match the batch pipeline's.
  sysid::StreamingOptions streaming;
};

/// What one streaming pass produced.
struct StreamingRunResult {
  sysid::StreamingStats stats;
  /// Transitions inside the window when the stream ended.
  std::size_t window_transitions = 0;
  std::vector<sysid::DriftEvent> drift_events;
  /// Largest one-sided CUSUM statistic at end of stream (sigma units).
  double cusum = 0.0;
  bool has_model = false;
  /// Final-window model + its pooled AIC; meaningful when has_model.
  sysid::ThermalModel model;
  double aic = 0.0;
};

/// Run streaming identification over `trace` row by row (ROADMAP item 4:
/// the online counterpart of the batch Step-3 fit). `state_ids` are the
/// temperature channels to model, `input_ids` the [h; o; l; w] block;
/// `row_filter`, when non-empty, must match trace.size() and excluded rows
/// count as gaps. Deterministic at any thread count: the pass is one
/// serial sweep whose result depends only on the trace and config.
[[nodiscard]] StreamingRunResult run_streaming_identification(
    const timeseries::TraceView& trace,
    const std::vector<timeseries::ChannelId>& state_ids,
    const std::vector<timeseries::ChannelId>& input_ids,
    const StreamingRunConfig& config,
    const std::vector<bool>& row_filter = {});

}  // namespace auditherm::core
