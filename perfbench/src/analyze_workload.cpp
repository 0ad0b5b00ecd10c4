// The two closed-loop `analyze` workloads: one client, each op a fresh
// serve::AnalysisService::analyze on the CSV written at setup (exactly
// what the one-shot `auditherm analyze` runs).
//
//   paper-analyze  the paper's 98-day auditorium trace (simulated with the
//                  paper seed 1234, so the golden pins gate every op),
//                  analyze --sweep 4 --stream 336
//   campus-knn     eight seeded 512-sensor, 10-day, 4-zone buildings, ops
//                  round-robin over them, analyze --graph knn --clusters 4
//                  (a run covers several inputs, so its median does not
//                  rest on one building's Lanczos convergence)
//
// The traced run recomposes each op from the public entry points in the
// service's order, one span per call, and checks the recomposed result
// against the untraced report.

#include <cstdio>
#include <set>
#include <sstream>

#include "auditherm/core/pipeline.hpp"
#include "auditherm/core/split.hpp"
#include "auditherm/serve/service.hpp"
#include "auditherm/sim/scenario.hpp"
#include "auditherm/timeseries/csv_io.hpp"
#include "bench.hpp"

namespace perfbench {

namespace {

using namespace auditherm;

constexpr std::size_t kCampusBuildings = 8;
constexpr std::size_t kCampusSensors = 512;
constexpr std::size_t kCampusDays = 10;
constexpr std::size_t kCampusZones = 4;
constexpr int kFirstSensorId = 200;
/// Closed-loop latency limits for goodput: an op slower than this counts
/// as missed (several times the measured p50 on a 4-CPU host).
constexpr double kPaperLimitMs = 1000.0;
constexpr double kCampusLimitMs = 5000.0;

struct Workload {
  bool paper = false;
  /// One request per input file; ops cycle through them.
  std::vector<serve::AnalyzeRequest> requests;
  /// What AnalysisService builds from these requests (the recomposed ops
  /// use it directly).
  core::PipelineConfig config;
  double limit_ms = 0.0;
};

Workload make_workload(const Options& options) {
  Workload w;
  w.paper = options.workload == "paper-analyze";
  if (w.paper) {
    serve::AnalyzeRequest request;
    request.data = options.data_dir + "/paper.csv";
    request.sweep = 4;
    request.stream = 336;
    w.requests.push_back(request);
    w.limit_ms = kPaperLimitMs;
  } else {
    for (std::size_t b = 0; b < kCampusBuildings; ++b) {
      serve::AnalyzeRequest request;
      request.data =
          options.data_dir + "/campus_" + std::to_string(b) + ".csv";
      request.graph = "knn";
      request.clusters = static_cast<long>(kCampusZones);
      w.requests.push_back(request);
    }
    w.config.similarity.sparsification = clustering::GraphSparsification::kKnn;
    w.config.spectral.cluster_count = kCampusZones;
    w.limit_ms = kCampusLimitMs;
  }
  return w;
}

/// Member lists of the report's "  cluster N: ... -> keep: ..." lines.
std::vector<std::vector<int>> report_clusters(const std::string& report) {
  std::vector<std::vector<int>> clusters;
  std::istringstream lines(report);
  std::string line;
  while (std::getline(lines, line)) {
    if (!line.starts_with("  cluster ")) continue;
    const auto colon = line.find(':');
    const auto arrow = line.find("->");
    if (colon == std::string::npos || arrow == std::string::npos) continue;
    std::istringstream ids(line.substr(colon + 1, arrow - colon - 1));
    std::vector<int> members;
    for (int id = 0; ids >> id;) members.push_back(id);
    clusters.push_back(std::move(members));
  }
  return clusters;
}

/// The correctness gate on a report; "" when it passes.
std::string check_report(const Workload& w, const std::string& report,
                         const std::vector<int>& zones) {
  if (w.paper) {
    // The repository's golden pins for the paper run.
    for (const char* pin :
         {"\nclusters (2):\n",
          "  validation pooled RMS (own sensors): 0.648 degC\n",
          "  cluster-mean 99th-pct error: 2.017 degC\n"}) {
      if (report.find(pin) == std::string::npos) {
        return std::string("paper report lacks golden pin '") + pin + "'";
      }
    }
    return {};
  }
  // Campus: the clusters must be the generator's zones exactly (label
  // agreement 1.0 under the best relabelling).
  const auto clusters = report_clusters(report);
  if (clusters.size() != kCampusZones) {
    return "campus report has " + std::to_string(clusters.size()) +
           " clusters, expected " + std::to_string(kCampusZones);
  }
  std::set<int> seen_zones;
  std::size_t members = 0;
  for (const auto& cluster : clusters) {
    const int zone = zones.at(static_cast<std::size_t>(
        cluster.front() - kFirstSensorId));
    for (const int id : cluster) {
      if (zones.at(static_cast<std::size_t>(id - kFirstSensorId)) != zone) {
        return "campus sensor " + std::to_string(id) +
               " clustered outside its zone";
      }
    }
    seen_zones.insert(zone);
    members += cluster.size();
  }
  if (seen_zones.size() != kCampusZones || members != zones.size()) {
    return "campus clusters do not partition the sensors by zone";
  }
  return {};
}

/// One op recomposed from the public calls the service makes, each in its
/// own span. Returns the report's cluster block and p99 line as this op
/// reproduces them.
std::vector<std::string> recomposed_op(const Workload& w,
                                       const serve::AnalyzeRequest& request,
                                       double& csv_bytes) {
  const obs::TraceSpan op("bench.op");
  std::string bytes;
  {
    const obs::TraceSpan span("bench.file_read");
    bytes = read_file(request.data);
  }
  csv_bytes = static_cast<double>(bytes.size());
  timeseries::MultiTrace trace;
  {
    const obs::TraceSpan span("timeseries.read_csv");
    std::istringstream stream(bytes);
    trace = timeseries::read_csv(stream);
  }
  serve::ChannelSets sets;
  {
    const obs::TraceSpan span("serve.classify_channels");
    sets = serve::classify_channels(trace);
  }
  const hvac::Schedule schedule;
  core::DataSplit split;
  {
    const obs::TraceSpan span("core.split_dataset");
    auto required = sets.sensors;
    required.insert(required.end(), sets.thermostats.begin(),
                    sets.thermostats.end());
    required.insert(required.end(), sets.inputs.begin(), sets.inputs.end());
    split = core::split_dataset(trace, required, schedule,
                                hvac::Mode::kOccupied);
  }
  core::StageCache cache;
  const core::ThermalModelingPipeline pipeline(w.config);
  const auto artifacts = pipeline.prepare(trace, schedule, split, sets.sensors,
                                          sets.inputs, &cache);
  core::RunOptions run_options;
  run_options.thermostat_ids = sets.thermostats;
  run_options.artifacts = &artifacts;
  run_options.cache = &cache;
  const auto result = pipeline.run(trace, schedule, split, sets.sensors,
                                   sets.inputs, run_options);
  if (request.stream > 0) {
    const obs::TraceSpan span("core.run_streaming_identification");
    core::StreamingRunConfig stream_config;
    stream_config.order = w.config.order;
    stream_config.streaming.estimation = w.config.estimation;
    stream_config.streaming.window_rows =
        static_cast<std::size_t>(request.stream);
    (void)core::run_streaming_identification(
        timeseries::TraceView(trace), result.reduced_model.state_channels(),
        result.reduced_model.input_channels(), stream_config);
  }
  if (request.sweep > 0) {
    const obs::TraceSpan span("core.run_strategy_sweep");
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
    (void)core::run_strategy_sweep(w.config, cases, trace, schedule, split,
                                   sets.sensors, sets.inputs, run_options);
  }

  // The service's own format strings for the parts being compared.
  std::string block;
  char buf[64];
  std::snprintf(buf, sizeof(buf), "\nclusters (%zu):\n",
                result.clustering.cluster_count);
  block += buf;
  const auto clusters = result.clustering.clusters();
  const auto append_ids = [&block](const auto& ids) {
    for (const auto id : ids) {
      block += ' ';
      block += std::to_string(id);
    }
  };
  for (std::size_t c = 0; c < clusters.size(); ++c) {
    block += "  cluster ";
    block += std::to_string(c + 1);
    block += ':';
    append_ids(clusters[c]);
    block += "   -> keep:";
    append_ids(result.selection.per_cluster[c]);
    block += '\n';
  }
  std::snprintf(buf, sizeof(buf), "  cluster-mean 99th-pct error: %.3f degC\n",
                result.cluster_mean_errors.percentile(99.0));
  return {block, buf};
}

bool reproduces(const std::string& reference,
                const std::vector<std::string>& parts) {
  for (const auto& part : parts) {
    if (reference.find(part) == std::string::npos) return false;
  }
  return true;
}

bool keep_going(const Options& o, Clock::time_point deadline,
                std::size_t ops) {
  if (o.max_ops > 0) return ops < o.max_ops;
  return ops == 0 || Clock::now() < deadline;
}

}  // namespace

Outcome run_analyze_workload(const Options& options) {
  const Workload w = make_workload(options);
  Outcome out;

  // --- setup: generate and write the inputs, several times ----------------
  const std::size_t files = w.requests.size();
  std::vector<double> setup_s;
  std::vector<std::vector<int>> zones(files);
  for (std::size_t rep = 0; rep < options.setup_reps; ++rep) {
    const auto t0 = Clock::now();
    for (std::size_t b = 0; b < files; ++b) {
      const auto trace =
          w.paper ? sim::run_scenario(sim::ScenarioSpec{}).trace
                  : make_zoned_building(
                        kCampusSensors, kCampusDays,
                        sim::derive_entity_seed(options.seed, b), &zones[b]);
      const std::string& path = w.requests[b].data;
      const InputRecord input =
          write_input(path.substr(path.rfind('/') + 1), path, trace);
      if (out.inputs.size() < files) {
        out.inputs.push_back(input);
      } else if (out.inputs[b].fingerprint != input.fingerprint) {
        out.fail("setup wrote different bytes on repetition " +
                 std::to_string(rep));
      }
    }
    setup_s.push_back(ms_between(t0, Clock::now()) / 1000.0);
  }

  // One-shot reference reports; every timed op must reproduce its own.
  std::vector<std::string> references;
  for (std::size_t b = 0; b < files; ++b) {
    serve::AnalysisService service;
    references.push_back(service.analyze(w.requests[b]));
    if (const std::string why = check_report(w, references[b], zones[b]);
        !why.empty()) {
      out.fail(w.requests[b].data + ": " + why);
    }
  }
  const bool references_ok = out.correct;

  // --- timed ops ---------------------------------------------------------
  PhaseStats phase;
  LayerReport ledger;
  // One untraced service op: the end-to-end unit of work.
  const auto service_op = [&](std::size_t b) {
    const auto t0 = Clock::now();
    serve::AnalysisService service;
    const std::string report = service.analyze(w.requests[b]);
    const double ms = ms_between(t0, Clock::now());
    phase.latency_ms.push_back(ms);
    const auto totals = service.cache().totals();
    ledger.cache_hits += static_cast<double>(totals.hits);
    ledger.cache_misses += static_cast<double>(totals.misses);
    ledger.cache_evictions +=
        static_cast<double>(service.cache().eviction_count());
    ledger.cache_resident_bytes =
        static_cast<double>(service.cache().resident_bytes());
    ++out.attempted;
    if (report != references[b] || !references_ok) {
      ++out.failed;
      out.fail("op " + std::to_string(out.attempted) +
               " report differs from the one-shot reference");
    } else if (ms <= w.limit_ms) {
      ++phase.good;
    }
  };

  const auto start = Clock::now();
  const auto deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(options.seconds));
  for (std::size_t op = 0; keep_going(options, deadline, op); ++op) {
    const std::size_t b = op % files;
    service_op(b);
    if (!options.trace) continue;
    // The traced run follows each service op with the same op recomposed
    // from the public calls, once plain and once traced, so the three
    // timings behind the unattributed time and the tracing overhead see
    // the same machine state.
    obs::Recorder recorder;
    for (obs::Recorder* installed :
         {static_cast<obs::Recorder*>(nullptr), &recorder}) {
      const obs::RecorderScope scope(installed);
      const auto t0 = Clock::now();
      const auto parts =
          recomposed_op(w, w.requests[b], ledger.csv_bytes_per_op);
      (installed != nullptr ? ledger.traced_ms : ledger.plain_ms)
          .push_back(ms_between(t0, Clock::now()));
      ++out.attempted;
      if (!reproduces(references[b], parts)) {
        ++out.failed;
        out.fail("recomposed op did not reproduce the report's clusters and "
                 "p99; the ledger is rejected");
      }
    }
    auto per_op = layer_times(recorder.spans(), "bench.op");
    ledger.layer_ms.insert(ledger.layer_ms.end(), per_op.begin(), per_op.end());
    add_counters(recorder, ledger.counters);
  }
  phase.wall_s = ms_between(start, Clock::now()) / 1000.0;

  if (!options.trace) {
    emit_end_to_end(out, median(setup_s), phase);
    return out;
  }
  ledger.untraced_ms = phase.latency_ms;
  ledger.service_ms = phase.latency_ms;
  ledger.send_late_ms = {0.0};  // closed loop: every op is sent when due
  ledger.cache_ops = phase.latency_ms.size();
  if (ledger.counters["obs.dropped_spans"] > 0) {
    out.fail("recorder dropped spans; the ledger is incomplete");
  }
  emit_layers(out, ledger);
  return out;
}

}  // namespace perfbench
