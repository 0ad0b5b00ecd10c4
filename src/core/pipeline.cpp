#include "auditherm/core/pipeline.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

namespace auditherm::core {

namespace {

using timeseries::ChannelId;

/// Deduplicate while preserving order (a sensor may represent two
/// clusters under the thermostat baseline).
std::vector<ChannelId> unique_ordered(const std::vector<ChannelId>& ids) {
  std::vector<ChannelId> out;
  for (ChannelId id : ids) {
    if (std::find(out.begin(), out.end(), id) == out.end()) {
      out.push_back(id);
    }
  }
  return out;
}

void add_similarity_options(StageKeyHasher& h,
                            const clustering::SimilarityOptions& o) {
  h.add(static_cast<std::uint64_t>(o.metric));
  h.add(o.sigma);
  h.add(o.threshold);
  h.add(o.threshold_quantile);
  h.add(static_cast<std::uint64_t>(o.knn_floor));
  h.add(static_cast<std::uint64_t>(o.sparsification));
  h.add(static_cast<std::uint64_t>(o.knn_k));
}

/// Pipeline-level metrics, resolved once. Purely observational: counts
/// and clock reads never feed back into the computation.
struct PipelineMetrics {
  obs::MetricId runs = obs::counter_id("pipeline.runs");
  obs::MetricId prepares = obs::counter_id("pipeline.prepares");
  obs::MetricId sweep_cases = obs::counter_id("pipeline.sweep_cases");
  obs::MetricId run_us = obs::histogram_id("pipeline.run_us");
};

const PipelineMetrics& pipeline_metrics() {
  static const PipelineMetrics m;
  return m;
}

/// Span name for a cached stage ("stage." + name); tiny and off any hot
/// loop — prepare() runs once per pipeline run.
std::string stage_span_name(std::string_view name) {
  std::string s;
  s.reserve(6 + name.size());
  s.append("stage.");
  s.append(name);
  return s;
}

/// Evaluate a reduced model's cluster-mean predictions (Fig. 11 metric):
/// simulate the model over each window, average the predicted selected
/// sensors per cluster, and compare against the measured all-sensor
/// cluster mean wherever it exists. The measured per-cluster means come
/// precomputed (the stage-cache path: they depend only on trace and
/// clustering, so a sweep computes them once); `cluster_means[c]` must be
/// row-aligned with `trace`. Throws std::invalid_argument on count
/// mismatch.
selection::ClusterMeanErrors evaluate_reduced_model_cluster_mean(
    const sysid::ThermalModel& model, const timeseries::TraceView& trace,
    const selection::ClusterSets& clusters,
    const selection::Selection& selection,
    const std::vector<timeseries::Segment>& windows,
    const std::vector<linalg::Vector>& cluster_means) {
  if (selection.per_cluster.size() != clusters.size()) {
    throw std::invalid_argument(
        "evaluate_reduced_model_cluster_mean: cluster count mismatch");
  }
  if (cluster_means.size() != clusters.size()) {
    throw std::invalid_argument(
        "evaluate_reduced_model_cluster_mean: cluster mean count mismatch");
  }

  // Map each cluster to the model-state indices of its selected sensors.
  std::vector<std::vector<std::size_t>> cluster_state_idx(clusters.size());
  for (std::size_t c = 0; c < clusters.size(); ++c) {
    for (ChannelId id : selection.per_cluster[c]) {
      const auto& states = model.state_channels();
      const auto it = std::find(states.begin(), states.end(), id);
      if (it == states.end()) {
        throw std::invalid_argument(
            "evaluate_reduced_model_cluster_mean: selected sensor not a "
            "model state");
      }
      cluster_state_idx[c].push_back(
          static_cast<std::size_t>(it - states.begin()));
    }
    if (cluster_state_idx[c].empty()) {
      throw std::invalid_argument(
          "evaluate_reduced_model_cluster_mean: cluster with no selection");
    }
  }

  // Each window's open-loop simulation is independent; per-window error
  // buffers are concatenated in window order afterwards, so the pooled
  // error samples are identical at any thread count.
  std::vector<std::vector<linalg::Vector>> window_errors(windows.size());
  parallel_for(0, windows.size(), 1, [&](std::size_t w) {
    const auto wp = sysid::predict_window(model, trace, windows[w],
                                           kPipelineEvaluation);
    if (!wp) return;
    auto& local = window_errors[w];
    local.resize(clusters.size());
    for (std::size_t k = 0; k < wp->predicted.rows(); ++k) {
      const std::size_t row = wp->first_row + k;
      for (std::size_t c = 0; c < clusters.size(); ++c) {
        const double target = cluster_means[c][row];
        if (std::isnan(target)) continue;
        double pred = 0.0;
        for (std::size_t s : cluster_state_idx[c]) {
          pred += wp->predicted(k, s);
        }
        pred /= static_cast<double>(cluster_state_idx[c].size());
        local[c].push_back(std::abs(pred - target));
      }
    }
  });

  selection::ClusterMeanErrors errors;
  errors.per_cluster_abs.resize(clusters.size());
  for (const auto& local : window_errors) {
    for (std::size_t c = 0; c < local.size(); ++c) {
      errors.per_cluster_abs[c].insert(errors.per_cluster_abs[c].end(),
                                       local[c].begin(), local[c].end());
    }
  }
  return errors;
}

}  // namespace

ThermalModelingPipeline::ThermalModelingPipeline(PipelineConfig config)
    : config_(std::move(config)) {
  if (config_.sensors_per_cluster == 0) {
    throw std::invalid_argument(
        "ThermalModelingPipeline: sensors_per_cluster == 0");
  }
}

StageArtifacts ThermalModelingPipeline::prepare(
    const timeseries::MultiTrace& trace, const hvac::Schedule& schedule,
    const DataSplit& split, const std::vector<ChannelId>& sensor_ids,
    const std::vector<ChannelId>& input_ids, StageCache* cache,
    const sysid::InputPlan* input_plan) const {
  obs::TraceSpan prepare_span("pipeline.prepare");
  obs::add_counter(pipeline_metrics().prepares);
  const auto mode_mask = schedule.mode_mask(trace.grid(), kPipelineMode);

  StageArtifacts art;
  art.train_mode_mask = and_masks(split.train_mask, mode_mask);

  // --- Input-plan resolution (not cached: calibration is cheap and its
  // result is what the fingerprint below keys everything else on). -------
  if (input_plan != nullptr) {
    art.inputs = std::make_shared<const sysid::ResolvedInputPlan>(
        sysid::resolve_input_plan(*input_plan, trace, split.train_mask));
  }
  const std::vector<ChannelId>& effective_inputs =
      art.inputs != nullptr ? art.inputs->channel_ids : input_ids;
  // 0 with no plan or a pure ground-truth one — folded unconditionally so
  // ground-truth runs all key identically while any non-trivial plan (or
  // recalibration) re-keys the whole chain.
  const std::uint64_t inputs_fp =
      art.inputs != nullptr ? art.inputs->fingerprint : 0;

  // Runs a stage through the cache, or builds it inline when uncached;
  // both paths execute the same builder, which is what makes cached and
  // uncached results bitwise identical. The stage span covers the cache
  // probe too, so a hit shows up as a near-zero-duration stage.
  const auto run_stage = [&](std::string_view name, std::uint64_t key,
                             auto build) {
    obs::TraceSpan stage_span(stage_span_name(name));
    using T = std::remove_cvref_t<decltype(build())>;
    if (cache != nullptr) return cache->get_or_build<T>(name, key, build);
    return std::shared_ptr<const T>(std::make_shared<const T>(build()));
  };

  // Keys chain: each stage folds its upstream key with the options it
  // newly consumes, so editing one knob invalidates exactly the suffix
  // that depends on it. Strategy and seed never enter any key. Without a
  // cache no key is read, so the trace is not hashed.
  const std::uint64_t fp = cache != nullptr ? trace_fingerprint(trace) : 0;

  // --- Training view: train days in mode, rows reindexed. ----------------
  // Uncached, this is a pure index mapping over the caller's trace — no
  // samples are copied and the artifacts borrow the trace's lifetime.
  // Cached, the view must outlive the caller, so the cache stores a
  // materialized copy (built by the same filter, so identical bits) and
  // the view reads that.
  StageKeyHasher train_h;
  train_h.add(fp);
  train_h.add(inputs_fp);
  train_h.add(split.train_mask);
  train_h.add(mode_mask);
  const std::uint64_t train_key = train_h.value();
  {
    obs::TraceSpan stage_span(stage_span_name(stage::kTrainingView));
    if (cache != nullptr) {
      art.training_store = cache->get_or_build<timeseries::MultiTrace>(
          stage::kTrainingView, train_key,
          [&] { return trace.filter_rows(art.train_mode_mask); });
      art.training = timeseries::TraceView(*art.training_store);
    } else {
      art.training =
          timeseries::TraceView(trace).filter_rows(art.train_mode_mask);
    }
  }

  // --- Similarity graph over the dense network. --------------------------
  StageKeyHasher graph_h;
  graph_h.add(train_key);
  graph_h.add(sensor_ids);
  add_similarity_options(graph_h, config_.similarity);
  const std::uint64_t graph_key = graph_h.value();
  art.graph = run_stage(stage::kSimilarityGraph, graph_key, [&] {
    return clustering::build_similarity_graph(art.training, sensor_ids,
                                              config_.similarity);
  });

  // --- Laplacian eigendecomposition (the expensive operator). ------------
  // The solver is a function of the vertex and pair counts, so the key
  // folds in the pair count: a partial artifact can never be mistaken for
  // a wider one, while sweep cases (same k) share one spectrum.
  const std::size_t eigen_pairs = clustering::needed_eigenpairs(
      config_.spectral, art.graph->weights.rows());
  StageKeyHasher spectrum_h;
  spectrum_h.add(graph_key);
  spectrum_h.add(static_cast<std::uint64_t>(config_.spectral.laplacian));
  spectrum_h.add(static_cast<std::uint64_t>(eigen_pairs));
  const std::uint64_t spectrum_key = spectrum_h.value();
  art.spectrum = run_stage(stage::kSpectrum, spectrum_key, [&] {
    return clustering::analyze_spectrum(
        art.graph->weights, config_.spectral.laplacian, eigen_pairs);
  });

  // --- Clustering: eigengap + k-means on the spectral embedding. ---------
  // Everything spectral_cluster consumes beyond the spectrum itself.
  StageKeyHasher cluster_h;
  cluster_h.add(spectrum_key);
  cluster_h.add(static_cast<std::uint64_t>(config_.spectral.cluster_count));
  cluster_h.add(config_.spectral.normalize_rows);
  const std::uint64_t cluster_key = cluster_h.value();
  art.clustering = run_stage(stage::kClustering, cluster_key, [&] {
    return clustering::spectral_cluster(*art.graph, *art.spectrum,
                                        config_.spectral);
  });
  art.clusters = run_stage(stage::kClusterSets, cluster_key, [&] {
    return art.clustering->clusters();
  });

  // --- Measured all-sensor mean per cluster over the whole trace. --------
  art.cluster_means = run_stage(stage::kClusterMeans, cluster_key, [&] {
    std::vector<linalg::Vector> means;
    means.reserve(art.clusters->size());
    for (const auto& members : *art.clusters) {
      means.push_back(timeseries::row_mean(trace, members));
    }
    return means;
  });

  // --- Evaluation windows on the validation days. ------------------------
  // Input validity is checked on the plan-augmented view: a derived input
  // (estimated occupancy) has its own gaps, so the windows — like every
  // downstream fit — see exactly the columns the model will consume.
  StageKeyHasher windows_h;
  windows_h.add(fp);
  windows_h.add(inputs_fp);
  windows_h.add(split.validation_mask);
  windows_h.add(mode_mask);
  windows_h.add(effective_inputs);
  art.windows = run_stage(stage::kWindows, windows_h.value(), [&] {
    const timeseries::TraceView full =
        art.inputs != nullptr ? art.inputs->augment(trace)
                              : timeseries::TraceView(trace);
    auto window_mask = and_masks(split.validation_mask, mode_mask);
    window_mask = and_masks(
        window_mask, timeseries::rows_with_all_valid(full, effective_inputs));
    return timeseries::find_segments(
        window_mask, std::max<std::size_t>(kPipelineEvaluation.min_steps, 2));
  });

  return art;
}

PipelineResult ThermalModelingPipeline::run_from(
    const StageArtifacts& artifacts, const timeseries::MultiTrace& trace,
    const std::vector<ChannelId>& sensor_ids,
    const std::vector<ChannelId>& input_ids,
    const std::vector<ChannelId>& thermostat_ids) const {
  const timeseries::TraceView& training = artifacts.training;
  const auto& clusters = *artifacts.clusters;

  // Resolved input plan (when present) supersedes the raw input ids: the
  // fit and every evaluation read the plan-augmented view, whose derived
  // columns the artifacts keep alive. Without a plan `full` is the plain
  // whole-trace view — the exact object the implicit conversions below
  // used to build.
  const std::vector<ChannelId>& effective_inputs =
      artifacts.inputs != nullptr ? artifacts.inputs->channel_ids : input_ids;
  const timeseries::TraceView full = artifacts.inputs != nullptr
                                         ? artifacts.inputs->augment(trace)
                                         : timeseries::TraceView(trace);

  PipelineResult result;
  result.clustering = *artifacts.clustering;

  // --- Step 2: representative selection. --------------------------------
  {
    obs::TraceSpan select_span("pipeline.select");
    switch (config_.strategy) {
      case SelectionStrategy::kStratifiedNearMean:
        result.selection = selection::stratified_near_mean(
            training, clusters, config_.sensors_per_cluster);
        break;
      case SelectionStrategy::kStratifiedRandom:
        result.selection = selection::stratified_random(
            clusters, config_.selection_seed, config_.sensors_per_cluster);
        break;
      case SelectionStrategy::kSimpleRandom:
        result.selection = selection::simple_random(
            training, clusters, config_.selection_seed,
            config_.sensors_per_cluster);
        break;
      case SelectionStrategy::kThermostats:
        result.selection =
            selection::thermostat_baseline(thermostat_ids, clusters.size());
        break;
      case SelectionStrategy::kGaussianProcess: {
        const auto chosen = selection::gp_mutual_information_selection(
            training, sensor_ids,
            std::min(config_.sensors_per_cluster * clusters.size(),
                     sensor_ids.size()));
        result.selection = selection::assign_to_clusters(
            training, clusters, chosen, config_.sensors_per_cluster);
        break;
      }
    }
  }

  // --- Step 3: identify the reduced model over the selected sensors. ----
  {
    obs::TraceSpan identify_span("pipeline.identify");
    const auto states = unique_ordered(result.selection.flattened());
    const sysid::ModelEstimator estimator(states, effective_inputs,
                                          config_.order, config_.estimation);
    result.reduced_model = estimator.fit(full, artifacts.train_mode_mask);
  }

  // --- Evaluation on the validation days. --------------------------------
  {
    obs::TraceSpan evaluate_span("pipeline.evaluate");
    result.reduced_eval = sysid::evaluate_prediction(
        result.reduced_model, full, *artifacts.windows, kPipelineEvaluation);
    result.cluster_mean_errors = evaluate_reduced_model_cluster_mean(
        result.reduced_model, full, clusters, result.selection,
        *artifacts.windows, *artifacts.cluster_means);
  }
  return result;
}

PipelineResult ThermalModelingPipeline::run(
    const timeseries::MultiTrace& trace, const hvac::Schedule& schedule,
    const DataSplit& split, const std::vector<ChannelId>& sensor_ids,
    const std::vector<ChannelId>& input_ids,
    const RunOptions& options) const {
  obs::Recorder* rec = obs::kCompiledIn ? obs::current() : nullptr;
  obs::TraceSpan run_span("pipeline.run");
  const std::uint64_t t0 = rec != nullptr ? rec->now_ns() : 0;
  if (rec != nullptr) rec->metrics().add(pipeline_metrics().runs);

  PipelineResult result;
  if (options.artifacts != nullptr) {
    result = run_from(*options.artifacts, trace, sensor_ids, input_ids,
                      options.thermostat_ids);
  } else {
    const auto artifacts = prepare(trace, schedule, split, sensor_ids,
                                   input_ids, options.cache,
                                   options.input_plan);
    result = run_from(artifacts, trace, sensor_ids, input_ids,
                      options.thermostat_ids);
  }
  if (rec != nullptr) {
    rec->metrics().observe(pipeline_metrics().run_us,
                           static_cast<double>(rec->now_ns() - t0) / 1e3);
  }
  return result;
}

std::vector<PipelineResult> run_strategy_sweep(
    const PipelineConfig& base, const std::vector<SweepCase>& cases,
    const timeseries::MultiTrace& trace, const hvac::Schedule& schedule,
    const DataSplit& split, const std::vector<ChannelId>& sensor_ids,
    const std::vector<ChannelId>& input_ids, const RunOptions& options) {
  obs::TraceSpan sweep_span("pipeline.sweep");
  obs::add_counter(pipeline_metrics().sweep_cases, cases.size());

  // Prepare (or fetch, through options.cache) the shared Step-1 prefix
  // exactly once, before the fan-out: strategy and seed are not part of
  // it, so every case runs on the same artifacts and none of them enters
  // the cache from inside the pool.
  StageArtifacts prepared;
  if (options.artifacts == nullptr) {
    prepared = ThermalModelingPipeline(base).prepare(
        trace, schedule, split, sensor_ids, input_ids, options.cache,
        options.input_plan);
  }
  RunOptions case_options;
  case_options.thermostat_ids = options.thermostat_ids;
  case_options.artifacts =
      options.artifacts != nullptr ? options.artifacts : &prepared;

  std::vector<PipelineResult> results(cases.size());
  // Cases fan out across the pool; each case's own kernels then run
  // serially (nested regions are inline), which is the right granularity:
  // whole pipeline runs dwarf any single kernel. Each case computes only
  // Step 2 + Step 3 + evaluation.
  parallel_for(0, cases.size(), 1, [&](std::size_t i) {
    obs::TraceSpan case_span("sweep.case");
    PipelineConfig config = base;
    config.strategy = cases[i].strategy;
    config.selection_seed = cases[i].seed;
    const ThermalModelingPipeline pipeline(config);
    results[i] = pipeline.run(trace, schedule, split, sensor_ids, input_ids,
                              case_options);
  });
  return results;
}

StreamingRunResult run_streaming_identification(
    const timeseries::TraceView& trace,
    const std::vector<timeseries::ChannelId>& state_ids,
    const std::vector<timeseries::ChannelId>& input_ids,
    const StreamingRunConfig& config, const std::vector<bool>& row_filter) {
  obs::TraceSpan span("pipeline.streaming");
  sysid::StreamingEstimator estimator(state_ids, input_ids, config.order,
                                      config.streaming);
  estimator.push_trace(trace, row_filter);
  StreamingRunResult result;
  result.stats = estimator.stats();
  result.window_transitions = estimator.window_transitions();
  result.drift_events = estimator.drift_events();
  result.cusum = estimator.cusum_statistic();
  result.has_model = estimator.has_model();
  if (result.has_model) {
    result.model = estimator.model();
    result.aic = estimator.aic();
  }
  return result;
}

}  // namespace auditherm::core
