#include "auditherm/serve/service.hpp"

#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <fstream>
#include <string>
#include <utility>

#include "auditherm/core/cli.hpp"
#include "auditherm/hvac/schedule.hpp"
#include "auditherm/obs/trace_span.hpp"
#include "auditherm/sim/dataset.hpp"
#include "auditherm/timeseries/csv_io.hpp"

namespace auditherm::serve {

namespace {

/// printf-style accumulation into a string. The report uses the exact
/// format strings the one-shot CLI used to printf to stdout — same
/// formats, same snprintf engine, hence the same bytes.
class Report {
 public:
  [[gnu::format(printf, 2, 3)]] void append(const char* fmt, ...) {
    std::va_list args;
    va_start(args, fmt);
    char stack[512];
    std::va_list copy;
    va_copy(copy, args);
    const int n = std::vsnprintf(stack, sizeof(stack), fmt, args);
    va_end(args);
    if (n < 0) {
      va_end(copy);
      return;
    }
    if (static_cast<std::size_t>(n) < sizeof(stack)) {
      text_.append(stack, static_cast<std::size_t>(n));
    } else {
      std::string big(static_cast<std::size_t>(n) + 1, '\0');
      std::vsnprintf(big.data(), big.size(), fmt, copy);
      text_.append(big.data(), static_cast<std::size_t>(n));
    }
    va_end(copy);
  }

  [[nodiscard]] std::string take() { return std::move(text_); }

 private:
  std::string text_;
};

/// Every floating-point value the analyze report prints passes through
/// here, so a non-finite result (an overflowing sample poisons the fit)
/// fails the op with a named input error instead of printing "nan" or
/// "inf".
double finite(double v, const char* name) {
  if (!std::isfinite(v)) {
    throw timeseries::InputError(std::string("analyze: non-finite ") + name);
  }
  return v;
}

long integer_field(const json::Value& v, const std::string& key) {
  // Outside long's range (e.g. 1e300) the cast below would be undefined.
  if (!v.is_number() || v.number != std::floor(v.number) ||
      !(std::abs(v.number) < 0x1p63)) {
    throw std::invalid_argument("analyze request: '" + key +
                                "' must be an integer");
  }
  return static_cast<long>(v.number);
}

std::string string_field(const json::Value& v, const std::string& key) {
  if (!v.is_string()) {
    throw std::invalid_argument("analyze request: '" + key +
                                "' must be a string");
  }
  return v.string;
}

/// The one list of occupancy input sources (AnalyzeRequest::occupancy).
/// A request keeps "" for the unset CLI flag, meaning "truth"; a JSON body
/// that sets inputs.occupancy must name one of these.
bool is_occupancy_source(const std::string& source) {
  return source == "truth" || source == "estimated" || source == "schedule";
}

/// The service-side occupancy check shared by analyze() and
/// input_plan_for(): an unset source or a known one.
void require_occupancy_source(const AnalyzeRequest& request) {
  if (!request.occupancy.empty() && !is_occupancy_source(request.occupancy)) {
    throw core::cli::UsageError("analyze: unknown --occupancy value '" +
                                request.occupancy + "'");
  }
}

/// Reject out-of-range numeric fields before any work: a negative count
/// cast to std::size_t would otherwise run a huge or default-valued
/// analysis and exit 0. `clusters` is checked against the sensor count
/// once the trace is classified.
void require_numeric_ranges(const AnalyzeRequest& request) {
  const auto require = [](bool ok, const char* message) {
    if (!ok) throw core::cli::UsageError(message);
  };
  require(request.clusters >= 0,
          "analyze: --clusters must be >= 0 (0 = eigengap choice)");
  require(request.order == 1 || request.order == 2,
          "analyze: --order must be 1 or 2");
  require(request.per_cluster >= 1, "analyze: --per-cluster must be >= 1");
  require(request.sweep >= 0, "analyze: --sweep must be >= 0 (0 = none)");
  require(request.knn >= 0, "analyze: --knn must be >= 0 (0 = default)");
  require(request.stream >= -1,
          "analyze: --stream expects a window length in rows, 0 (off), or "
          "-1 (growing window)");
}

/// Decode the nested "inputs" object. Errors carry the full key path
/// (inputs.<key>) so a client sees exactly which field is wrong.
void decode_inputs(const json::Value& v, AnalyzeRequest& request) {
  if (!v.is_object()) {
    throw std::invalid_argument(
        "analyze request: 'inputs' must be an object");
  }
  for (const auto& [key, value] : v.object) {
    if (key == "occupancy") {
      if (!value.is_string()) {
        throw std::invalid_argument(
            "analyze request: inputs.occupancy: must be a string");
      }
      if (!is_occupancy_source(value.string)) {
        throw std::invalid_argument(
            "analyze request: inputs.occupancy: unknown source '" +
            value.string + "'");
      }
      request.occupancy = value.string;
    } else if (key == "round") {
      if (!value.is_bool()) {
        throw std::invalid_argument(
            "analyze request: inputs.round: must be a boolean");
      }
      request.occupancy_round = value.boolean;
    } else if (key == "clamp_max") {
      if (!value.is_number()) {
        throw std::invalid_argument(
            "analyze request: inputs.clamp_max: must be a number");
      }
      request.occupancy_clamp = value.number;
    } else {
      throw std::invalid_argument("analyze request: unknown key 'inputs." +
                                  key + "'");
    }
  }
}

}  // namespace

AnalyzeRequest request_from_json(const json::Value& body) {
  if (!body.is_object()) {
    throw std::invalid_argument("analyze request: body must be a JSON object");
  }
  AnalyzeRequest request;
  for (const auto& [key, value] : body.object) {
    if (key == "data") {
      request.data = string_field(value, key);
    } else if (key == "metric") {
      request.metric = string_field(value, key);
    } else if (key == "clusters") {
      request.clusters = integer_field(value, key);
    } else if (key == "order") {
      request.order = integer_field(value, key);
    } else if (key == "per_cluster") {
      request.per_cluster = integer_field(value, key);
    } else if (key == "sweep") {
      request.sweep = integer_field(value, key);
    } else if (key == "graph") {
      request.graph = string_field(value, key);
    } else if (key == "knn") {
      request.knn = integer_field(value, key);
    } else if (key == "stream") {
      request.stream = integer_field(value, key);
    } else if (key == "inputs") {
      decode_inputs(value, request);
    } else {
      throw std::invalid_argument("analyze request: unknown key '" + key +
                                  "'");
    }
  }
  if (request.data.empty()) {
    throw std::invalid_argument("analyze request: 'data' is required");
  }
  return request;
}

const char* strategy_name(core::SelectionStrategy strategy) {
  switch (strategy) {
    case core::SelectionStrategy::kStratifiedNearMean: return "near-mean";
    case core::SelectionStrategy::kStratifiedRandom: return "stratified-random";
    case core::SelectionStrategy::kSimpleRandom: return "simple-random";
    case core::SelectionStrategy::kThermostats: return "thermostats";
    case core::SelectionStrategy::kGaussianProcess: return "gaussian-process";
  }
  return "?";
}

ChannelSets classify_channels(const timeseries::MultiTrace& trace) {
  ChannelSets sets;
  std::vector<timeseries::ChannelId> flows;
  for (auto id : trace.channels()) {
    if (id == 40 || id == 41) {
      sets.thermostats.push_back(id);
    } else if (id < 100 || id >= 200) {
      sets.sensors.push_back(id);
    } else if (id >= sim::DatasetChannels::kVavBase &&
               id < sim::DatasetChannels::kOccupancy) {
      flows.push_back(id);
    }
  }
  sets.inputs = flows;
  for (auto id : {sim::DatasetChannels::kOccupancy,
                  sim::DatasetChannels::kLighting,
                  sim::DatasetChannels::kAmbient}) {
    if (trace.channel_index(id)) sets.inputs.push_back(id);
  }
  if (sets.sensors.size() < 2 || sets.inputs.size() < 2) {
    throw timeseries::InputError(
        "analyze: trace lacks sensor (<100) or input (>=101) channels");
  }
  return sets;
}

sysid::InputPlan input_plan_for(const AnalyzeRequest& request,
                                const ChannelSets& sets) {
  require_occupancy_source(request);
  sysid::InputPlan plan;
  plan.slots.reserve(sets.inputs.size());
  bool replaced = false;
  for (auto id : sets.inputs) {
    if (id == sim::DatasetChannels::kOccupancy &&
        request.occupancy == "estimated") {
      replaced = true;
      sysid::Co2Channels co2;
      co2.vav_flows.clear();
      for (auto flow : sets.inputs) {
        if (flow >= sim::DatasetChannels::kVavBase &&
            flow < sim::DatasetChannels::kOccupancy) {
          co2.vav_flows.push_back(flow);
        }
      }
      auto slot = sysid::InputSlot::co2_estimated(std::move(co2));
      slot.round_to_integer = request.occupancy_round;
      slot.clamp_max = request.occupancy_clamp;
      plan.slots.push_back(std::move(slot));
    } else if (id == sim::DatasetChannels::kOccupancy &&
               request.occupancy == "schedule") {
      // Two-level prior scaled to a nominal full house; identification
      // absorbs the scale, the schedule carries the timing.
      replaced = true;
      plan.slots.push_back(sysid::InputSlot::schedule_prior(
          hvac::Schedule{}, 100.0, 0.0));
    } else {
      plan.slots.push_back(sysid::InputSlot::ground_truth(id));
    }
  }
  if (!replaced && !request.occupancy.empty() && request.occupancy != "truth") {
    throw timeseries::InputError(
        "analyze: trace has no occupancy channel to replace with --occupancy " +
        request.occupancy);
  }
  return plan;
}

AnalysisService::AnalysisService(ServiceConfig config)
    : config_(config), cache_(config.cache_budget) {}

std::shared_ptr<const timeseries::MultiTrace> AnalysisService::load_trace(
    const std::string& path) {
  const obs::TraceSpan span("serve.load_trace");
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw timeseries::InputError("analyze: could not read '" + path + "'",
                                 /*missing=*/true);
  }
  // The bytes live once: read in one pass, hashed, and parsed in place by
  // `parse`, which the cache runs at most once and only after the hash.
  const std::string bytes = timeseries::read_all(in);
  const auto parse = [&] { return timeseries::read_csv(bytes); };
  if (!config_.cache_enabled) {
    return std::make_shared<const timeseries::MultiTrace>(parse());
  }
  core::StageKeyHasher h;
  h.add(std::string_view(bytes));
  return cache_.get_or_build<timeseries::MultiTrace>("trace_load", h.value(),
                                                     parse);
}

core::PipelineConfig AnalysisService::make_config(
    const AnalyzeRequest& request) {
  namespace cli = core::cli;
  core::PipelineConfig config;
  if (request.metric == "euclidean") {
    config.similarity.metric = clustering::SimilarityMetric::kEuclidean;
  } else if (!request.metric.empty() && request.metric != "correlation") {
    throw cli::UsageError("analyze: unknown --metric value '" +
                          request.metric + "'");
  }
  config.spectral.cluster_count = static_cast<std::size_t>(request.clusters);
  if (!request.graph.empty()) {
    if (request.graph == "epsilon") {
      config.similarity.sparsification =
          clustering::GraphSparsification::kEpsilon;
    } else if (request.graph == "knn") {
      config.similarity.sparsification = clustering::GraphSparsification::kKnn;
    } else {
      throw cli::UsageError("analyze: unknown --graph value '" +
                            request.graph + "'");
    }
  }
  if (request.knn > 0) {
    config.similarity.knn_k = static_cast<std::size_t>(request.knn);
  }
  config.order = request.order == 1 ? sysid::ModelOrder::kFirst
                                    : sysid::ModelOrder::kSecond;
  config.sensors_per_cluster = static_cast<std::size_t>(request.per_cluster);
  return config;
}

std::string AnalysisService::analyze(const AnalyzeRequest& request) {
  obs::add_counter("serve.request");
  require_occupancy_source(request);
  require_numeric_ranges(request);
  const core::PipelineConfig config = make_config(request);
  Report report;
  report.append("loading %s...\n", request.data.c_str());
  const auto trace = load_trace(request.data);
  const ChannelSets sets = classify_channels(*trace);
  if (static_cast<std::size_t>(request.clusters) > sets.sensors.size()) {
    throw timeseries::InputError(
        "analyze: --clusters " + std::to_string(request.clusters) +
        " exceeds the trace's " + std::to_string(sets.sensors.size()) +
        " sensors");
  }
  auto required = sets.sensors;
  required.insert(required.end(), sets.thermostats.begin(),
                  sets.thermostats.end());
  required.insert(required.end(), sets.inputs.begin(), sets.inputs.end());
  const hvac::Schedule schedule;
  const core::DataSplit split =
      core::split_dataset(*trace, required, schedule, hvac::Mode::kOccupied);
  report.append("channels: %zu sensors, %zu thermostats, %zu inputs; %zu "
                "samples at %lld-minute steps\n",
                sets.sensors.size(), sets.thermostats.size(),
                sets.inputs.size(), trace->size(),
                static_cast<long long>(trace->grid().step()));
  report.append("usable days: %zu (train %zu / validate %zu)\n",
                split.usable_days.size(), split.train_days.size(),
                split.validation_days.size());
  if (request.occupancy == "estimated") {
    report.append(
        "occupancy input: estimated from CO2 mass balance "
        "(calibrated on the training split)\n");
  } else if (request.occupancy == "schedule") {
    report.append("occupancy input: two-level schedule prior\n");
  }

  // Step 1 goes through the shared StageCache, which is also what
  // deduplicates concurrent requests: a stage another request is still
  // building is waited for, not rebuilt. A non-truth occupancy source
  // rides in as an input plan; the ground-truth default passes none,
  // keeping that path bit for bit.
  const core::ThermalModelingPipeline pipeline(config);
  core::StageCache* cache = config_.cache_enabled ? &cache_ : nullptr;
  const bool planned =
      request.occupancy == "estimated" || request.occupancy == "schedule";
  sysid::InputPlan plan;
  if (planned) plan = input_plan_for(request, sets);
  const core::StageArtifacts artifacts =
      pipeline.prepare(*trace, schedule, split, sets.sensors, sets.inputs,
                       cache, planned ? &plan : nullptr);
  core::RunOptions run_options;
  run_options.thermostat_ids = sets.thermostats;
  run_options.artifacts = &artifacts;
  const auto result = pipeline.run(*trace, schedule, split, sets.sensors,
                                   sets.inputs, run_options);

  report.append("\nclusters (%zu):\n", result.clustering.cluster_count);
  const auto clusters = result.clustering.clusters();
  for (std::size_t c = 0; c < clusters.size(); ++c) {
    report.append("  cluster %zu:", c + 1);
    for (auto id : clusters[c]) report.append(" %d", id);
    report.append("   -> keep:");
    for (auto id : result.selection.per_cluster[c]) report.append(" %d", id);
    report.append("\n");
  }
  report.append("\nreduced %s-order model over %zu sensors:\n",
                config.order == sysid::ModelOrder::kFirst ? "first" : "second",
                result.reduced_model.state_count());
  report.append("  spectral radius: %.4f\n",
                finite(result.reduced_model.spectral_radius_bound(),
                       "spectral radius"));
  report.append("  validation pooled RMS (own sensors): %.3f degC\n",
                finite(result.reduced_eval.pooled_rms, "pooled RMS"));
  report.append("  cluster-mean 99th-pct error: %.3f degC\n",
                finite(result.cluster_mean_errors.percentile(99.0),
                       "cluster-mean p99"));

  if (request.stream != 0) {
    core::StreamingRunConfig stream_config;
    stream_config.order = config.order;
    stream_config.streaming.estimation = config.estimation;
    stream_config.streaming.window_rows =
        request.stream > 0 ? static_cast<std::size_t>(request.stream) : 0;
    // Stream the reduced model's own channels over the full trace (the
    // plan-augmented view when an input plan is in play — estimated
    // inputs are pushed row-at-a-time like any other column): the online
    // counterpart of the batch Step-3 fit above.
    const timeseries::TraceView stream_view =
        artifacts.inputs != nullptr ? artifacts.inputs->augment(*trace)
                                    : timeseries::TraceView(*trace);
    const auto streamed = core::run_streaming_identification(
        stream_view, result.reduced_model.state_channels(),
        result.reduced_model.input_channels(), stream_config);
    if (request.stream > 0) {
      report.append("\nstreaming identification (window %ld rows):\n",
                    request.stream);
    } else {
      report.append("\nstreaming identification (growing window):\n");
    }
    report.append("  rows %zu, window transitions %zu, qr updates %zu\n",
                  streamed.stats.rows_pushed, streamed.window_transitions,
                  streamed.stats.transitions);
    if (streamed.has_model) {
      report.append("  final-window spectral radius: %.4f, AIC %.1f\n",
                    finite(streamed.model.spectral_radius_bound(),
                           "final-window spectral radius"),
                    finite(streamed.aic, "AIC"));
    } else {
      report.append("  final window below the minimum transition count\n");
    }
    report.append("  drift events: %zu", streamed.drift_events.size());
    for (const auto& event : streamed.drift_events) {
      report.append("  [row %zu, %+.0f sigma]", event.row,
                    finite(event.direction * event.statistic,
                           "drift statistic"));
    }
    report.append("\n");
  }

  if (request.sweep > 0) {
    std::vector<core::SweepCase> cases;
    for (long s = 1; s <= request.sweep; ++s) {
      const auto seed = static_cast<std::uint64_t>(s);
      cases.push_back({core::SelectionStrategy::kStratifiedNearMean, seed});
      cases.push_back({core::SelectionStrategy::kStratifiedRandom, seed});
      cases.push_back({core::SelectionStrategy::kSimpleRandom, seed});
    }
    if (!sets.thermostats.empty()) {
      cases.push_back({core::SelectionStrategy::kThermostats, 1});
    }
    const auto sweep =
        core::run_strategy_sweep(config, cases, *trace, schedule, split,
                                 sets.sensors, sets.inputs, run_options);
    report.append("\nstrategy sweep (%zu cases, %ld seeds):\n", cases.size(),
                  request.sweep);
    for (std::size_t i = 0; i < cases.size(); ++i) {
      report.append("  %-22s seed %-3llu  pooled RMS %.3f  p99 %.3f\n",
                    strategy_name(cases[i].strategy),
                    static_cast<unsigned long long>(cases[i].seed),
                    finite(sweep[i].reduced_eval.pooled_rms,
                           "sweep pooled RMS"),
                    finite(sweep[i].cluster_mean_errors.percentile(99.0),
                           "sweep p99"));
    }
  }
  return report.take();
}

}  // namespace auditherm::serve
