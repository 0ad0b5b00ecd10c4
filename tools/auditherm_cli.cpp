// auditherm command-line tool.
//
//   auditherm simulate --out trace.csv [--spec spec.json] [--days N]
//       [--failure-days N] [--dropout P] [--seed S] [--truth truth.csv]
//   auditherm simulate --fleet specs.json [--out-dir DIR]
//   auditherm analyze --data trace.csv [--metric correlation|euclidean]
//       [--clusters K] [--order 1|2] [--per-cluster N] [--sweep SEEDS]
//       [--graph epsilon|knn] [--knn K] [--stream ROWS]
//       [--occupancy truth|estimated|schedule]
//   auditherm serve --port P [--workers N] [--cache-budget-mb MB]
//
// Every subcommand also accepts the shared flags (--threads,
// --metrics-out, --trace); see core/cli.hpp. Observability output goes to
// stderr / the JSON file, so stdout stays byte-identical with the flags
// off — and byte-identical to a daemon response for the same request,
// because analyze renders through the same serve::AnalysisService.
//
// The CSV uses the library's channel conventions: ids < 100 are
// temperature sensors (40/41 the HVAC thermostats), 101..100+m the VAV
// flows, 110 occupancy, 111 lighting, 112 ambient, 113 supply temperature.
// Ids >= 200 are extended-range temperature sensors for synthetic
// buildings larger than the two-digit id space.

#include <atomic>
#include <csignal>
#include <cstdio>
#include <fstream>
#include <functional>
#include <memory>
#include <sstream>
#include <string>

#include "auditherm/auditherm.hpp"
#include "auditherm/serve/scenario_codec.hpp"
#include "auditherm/serve/server.hpp"
#include "auditherm/serve/service.hpp"

using namespace auditherm;
namespace cli = auditherm::core::cli;

namespace {

/// Observability lifecycle for one CLI invocation: installs a recorder
/// when --trace / --metrics-out asked for one and writes the requested
/// outputs when the command finishes.
class ObsRun {
 public:
  explicit ObsRun(const cli::CommonOptions& common)
      : common_(common),
        recorder_(common.observability_enabled() ? new obs::Recorder
                                                 : nullptr),
        scope_(recorder_.get()) {}

  ObsRun(const ObsRun&) = delete;
  ObsRun& operator=(const ObsRun&) = delete;

  ~ObsRun() {
    if (recorder_ == nullptr) return;
    if (common_.trace) obs::write_summary(stderr, *recorder_);
    if (!common_.metrics_out.empty() &&
        !obs::write_json_file(common_.metrics_out, *recorder_)) {
      std::fprintf(stderr, "warning: could not write %s\n",
                   common_.metrics_out.c_str());
    }
  }

  [[nodiscard]] obs::Recorder* recorder() const noexcept {
    return recorder_.get();
  }

 private:
  cli::CommonOptions common_;
  std::unique_ptr<obs::Recorder> recorder_;
  obs::RecorderScope scope_;
};

cli::OptionSet simulate_options() {
  std::vector<cli::OptionSpec> specs = {
      {"out", true, false, "FILE", "write the simulated trace CSV here"},
      {"spec", true, false, "FILE",
       "scenario spec JSON (see scenario_codec.hpp); other flags override "
       "its fields"},
      {"fleet", true, false, "FILE",
       "fleet spec JSON; simulate every scenario in parallel and write "
       "per-building CSVs + manifest.json"},
      {"out-dir", true, false, "DIR",
       "fleet output directory (overrides the fleet file's out_dir)"},
      {"days", true, false, "N", "days to simulate (default 98)"},
      {"failure-days", true, false, "N",
       "days with injected sensor failures (default 34)"},
      {"dropout", true, false, "P",
       "per sensor-day wireless dropout probability (default 0.04)"},
      {"seed", true, false, "S", "simulation seed (default 1234)"},
      {"truth", true, false, "FILE",
       "noise-free truth CSV path (default <out stem>.truth.csv)"},
  };
  for (auto& spec : cli::common_options()) specs.push_back(std::move(spec));
  return cli::OptionSet("simulate", std::move(specs));
}

cli::OptionSet analyze_options() {
  std::vector<cli::OptionSpec> specs = {
      {"data", true, true, "FILE", "trace CSV to analyze"},
      {"metric", true, false, "correlation|euclidean",
       "similarity metric (default correlation)"},
      {"clusters", true, false, "K", "cluster count (0 = eigengap choice)"},
      {"order", true, false, "1|2", "model order (default 2)"},
      {"per-cluster", true, false, "N",
       "representative sensors per cluster (default 1)"},
      {"sweep", true, false, "SEEDS",
       "compare strategies over SEEDS seeds, reusing cached stages"},
      {"graph", true, false, "epsilon|knn",
       "similarity-graph sparsifier (default epsilon: the paper's "
       "quantile threshold; knn keeps each sensor's K strongest edges)"},
      {"knn", true, false, "K",
       "neighbors per sensor for --graph knn (default 8)"},
      {"stream", true, false, "ROWS",
       "append a streaming-identification section: sliding-window online "
       "refit of the reduced model over ROWS rows with drift detection "
       "(-1 = growing window, 0 = off)"},
      {"occupancy", true, false, "truth|estimated|schedule",
       "occupancy input source for identification (default truth; "
       "estimated = CO2 mass-balance inversion calibrated on the "
       "training split, schedule = two-level HVAC-schedule prior)"},
  };
  for (auto& spec : cli::common_options()) specs.push_back(std::move(spec));
  return cli::OptionSet("analyze", std::move(specs));
}

cli::OptionSet serve_options() {
  std::vector<cli::OptionSpec> specs = {
      {"port", true, true, "P",
       "listen on 127.0.0.1:P (0 = pick an ephemeral port)"},
      {"workers", true, false, "N", "request worker threads (default 2)"},
      {"cache-budget-mb", true, false, "MB",
       "stage-cache memory budget; LRU eviction above it (default 256, "
       "0 = unlimited)"},
  };
  for (auto& spec : cli::common_options()) specs.push_back(std::move(spec));
  return cli::OptionSet("serve", std::move(specs));
}

int usage() {
  std::fprintf(stderr,
               "usage: auditherm <simulate|analyze|serve> [flags]\n\n%s\n%s\n%s",
               simulate_options().usage().c_str(),
               analyze_options().usage().c_str(),
               serve_options().usage().c_str());
  return 2;
}

/// Read a whole text file (a --spec / --fleet JSON document).
std::string read_text_file(const std::string& path) {
  std::ifstream f(path);
  if (!f) throw std::runtime_error("simulate: cannot read " + path);
  std::ostringstream os;
  os << f.rdbuf();
  if (f.bad()) throw std::runtime_error("simulate: read failed for " + path);
  return std::move(os).str();
}

/// Fail fast when an output path cannot be written (probing in append
/// mode creates the file without truncating an existing one), so a bad
/// --out reports a clear error *before* the simulation burns minutes
/// instead of dying on a silent partial file afterwards.
void require_writable(const std::string& path) {
  std::ofstream probe(path, std::ios::app);
  if (!probe) throw std::runtime_error("simulate: cannot write " + path);
}

/// trace.csv -> trace<suffix>; paths without the .csv extension get the
/// suffix appended.
std::string sidecar_path(const std::string& out, const std::string& suffix) {
  if (out.size() > 4 && out.ends_with(".csv")) {
    return out.substr(0, out.size() - 4) + suffix;
  }
  return out + suffix;
}

/// One scenario resolved from --spec (or defaults) with the individual
/// flags layered on top — a flag always overrides the spec file.
sim::ScenarioSpec scenario_from_args(const cli::ParsedOptions& args) {
  sim::ScenarioSpec spec;
  if (args.has("spec")) {
    spec = serve::scenario_from_json(
        serve::json::parse(read_text_file(args.require("spec"))));
  }
  if (args.has("days")) {
    spec.days = static_cast<std::size_t>(args.get_long("days", 0));
  }
  if (args.has("failure-days")) {
    spec.failure_days =
        static_cast<std::size_t>(args.get_long("failure-days", 0));
  }
  if (args.has("dropout")) {
    spec.dropout = args.get_double("dropout", spec.dropout);
  }
  if (args.has("seed")) {
    spec.seed = static_cast<std::uint64_t>(args.get_long("seed", 0));
  }
  spec.validate();
  return spec;
}

int cmd_simulate_fleet(const cli::ParsedOptions& args) {
  for (const char* flag :
       {"out", "spec", "days", "failure-days", "dropout", "seed", "truth"}) {
    if (args.has(flag)) {
      throw cli::UsageError(std::string("--fleet cannot be combined with --") +
                            flag + " (put it in the fleet file's scenarios)");
    }
  }
  const serve::SimulateRequest request = serve::simulate_request_from_json(
      serve::json::parse(read_text_file(args.require("fleet"))));

  sim::FleetOptions options;
  options.out_dir = args.get("out-dir").value_or(request.out_dir);
  if (options.out_dir.empty()) {
    throw cli::UsageError(
        "--fleet needs an output directory: pass --out-dir or put "
        "\"out_dir\" in the fleet file");
  }

  std::printf("simulating fleet of %zu buildings...\n", request.specs.size());
  const auto outcomes = sim::run_fleet(request.specs, options);
  std::size_t total_steps = 0;
  for (const auto& outcome : outcomes) {
    total_steps += outcome.control_steps;
    std::printf("  %s: %zu samples x %zu channels, coverage %.1f%%\n",
                outcome.spec.name.c_str(), outcome.samples, outcome.channels,
                100.0 * outcome.coverage);
  }
  std::printf("wrote %s/manifest.json (%zu buildings, %zu control steps)\n",
              options.out_dir.c_str(), outcomes.size(), total_steps);
  return 0;
}

int cmd_simulate(const cli::ParsedOptions& args,
                 const cli::CommonOptions& common) {
  const ObsRun obs_run(common);
  obs::TraceSpan span("cli.simulate");

  if (args.has("fleet")) return cmd_simulate_fleet(args);

  const sim::ScenarioSpec spec = scenario_from_args(args);
  const auto out = args.require("out");
  const std::string truth_path =
      args.get("truth").value_or(sidecar_path(out, ".truth.csv"));
  const std::string meta_path = sidecar_path(out, ".meta.json");
  require_writable(out);
  require_writable(truth_path);
  require_writable(meta_path);

  std::printf("simulating %zu days (seed %llu)...\n", spec.days,
              static_cast<unsigned long long>(spec.seed));
  // A fleet of one: the CLI shares run_fleet's code path (and therefore
  // its fingerprints), which is what the bench's bitwise cross-check
  // between `simulate` and fleet runs rests on.
  auto outcomes = sim::run_fleet({spec});
  auto& outcome = outcomes.front();
  const auto& dataset = *outcome.dataset;
  timeseries::write_csv_file(out, dataset.trace);
  std::printf("wrote %s: %zu samples x %zu channels, coverage %.1f%%\n",
              out.c_str(), dataset.trace.size(),
              dataset.trace.channel_count(),
              100.0 * dataset.trace.coverage());
  timeseries::write_csv_file(truth_path, dataset.truth);
  std::printf("wrote %s (noise-free ground truth)\n", truth_path.c_str());

  outcome.trace_file = out;
  outcome.truth_file = truth_path;
  {
    std::ofstream meta(meta_path);
    meta << sim::fleet_manifest_json(outcomes);
    meta.flush();
    if (!meta) {
      throw std::runtime_error("simulate: cannot write " + meta_path);
    }
  }
  std::printf("wrote %s (run metadata)\n", meta_path.c_str());
  return 0;
}

/// Decode the analyze flags into the transport-independent request shape
/// shared with the daemon.
serve::AnalyzeRequest analyze_request_from_args(
    const cli::ParsedOptions& args) {
  serve::AnalyzeRequest request;
  request.data = args.require("data");
  if (const auto metric = args.get("metric")) request.metric = *metric;
  request.clusters = args.get_long("clusters", 0);
  request.order = args.get_long("order", 2);
  request.per_cluster = args.get_long("per-cluster", 1);
  request.sweep = args.get_long("sweep", 0);
  if (const auto graph = args.get("graph")) request.graph = *graph;
  request.knn = args.get_long("knn", 0);
  request.stream = args.get_long("stream", 0);
  if (const auto occupancy = args.get("occupancy")) {
    request.occupancy = *occupancy;
  }
  return request;
}

int cmd_analyze(const cli::ParsedOptions& args,
                const cli::CommonOptions& common) {
  const ObsRun obs_run(common);
  obs::TraceSpan span("cli.analyze");

  serve::AnalysisService service;
  const auto report = service.analyze(analyze_request_from_args(args));
  std::fputs(report.c_str(), stdout);

  // Cache bookkeeping is diagnostics, not analysis output: it goes to
  // stderr so stdout stays byte-identical to a daemon response (whose
  // long-lived shared cache would report different totals).
  const auto totals = service.cache().totals();
  std::fprintf(stderr, "stage cache: %zu hits / %zu misses (%zu artifacts)\n",
               totals.hits, totals.misses, service.cache().size());
  return 0;
}

/// The running server, for the signal handler; request_stop() only
/// stores an atomic flag, so calling it from a handler is safe.
std::atomic<serve::Server*> g_server{nullptr};

void handle_stop_signal(int) {
  if (auto* server = g_server.load()) server->request_stop();
}

int cmd_serve(const cli::ParsedOptions& args,
              const cli::CommonOptions& common) {
  const long port = args.get_long("port", 0);
  if (port < 0 || port > 65535) {
    throw cli::UsageError("--port must be in [0, 65535]");
  }
  const long workers = args.get_long("workers", 2);
  if (workers < 1) throw cli::UsageError("--workers must be >= 1");
  const long budget_mb = args.get_long("cache-budget-mb", 256);
  if (budget_mb < 0) throw cli::UsageError("--cache-budget-mb must be >= 0");

  serve::ServiceConfig service_config;
  service_config.cache_budget.bytes =
      static_cast<std::size_t>(budget_mb) * 1024 * 1024;
  serve::AnalysisService service(service_config);

  // Server-lifetime recorder: every request thread records into it and
  // GET /metrics exports it. Written to --metrics-out on shutdown too.
  obs::Recorder recorder;
  const obs::RecorderScope scope(&recorder);

  serve::ServerConfig server_config;
  server_config.port = static_cast<std::uint16_t>(port);
  server_config.workers = static_cast<std::size_t>(workers);
  serve::Server server(server_config, service, &recorder);
  server.start();

  g_server.store(&server);
  std::signal(SIGINT, handle_stop_signal);
  std::signal(SIGTERM, handle_stop_signal);

  std::fprintf(stderr,
               "auditherm serve: listening on 127.0.0.1:%u "
               "(%ld workers, cache budget %ld MB)\n",
               static_cast<unsigned>(server.port()), workers, budget_mb);
  server.run();
  g_server.store(nullptr);
  std::fprintf(stderr, "auditherm serve: shutdown complete\n");

  if (common.trace) obs::write_summary(stderr, recorder);
  if (!common.metrics_out.empty() &&
      !obs::write_json_file(common.metrics_out, recorder)) {
    std::fprintf(stderr, "warning: could not write %s\n",
                 common.metrics_out.c_str());
  }
  return 0;
}

using Command = std::function<int(const cli::ParsedOptions&,
                                  const cli::CommonOptions&)>;

int run_command(const cli::OptionSet& options, int argc, char** argv,
                const Command& command) {
  cli::ParsedOptions args;
  cli::CommonOptions common;
  try {
    args = options.parse(argc, argv, 2);
    common = cli::parse_common(args);
  } catch (const cli::UsageError& e) {
    std::fprintf(stderr, "error: %s\n\n%s", e.what(),
                 options.usage().c_str());
    return 2;
  }
  if (common.threads > 0) core::set_thread_count(common.threads);
  try {
    return command(args, common);
  } catch (const cli::UsageError& e) {
    std::fprintf(stderr, "error: %s\n\n%s", e.what(),
                 options.usage().c_str());
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string command = argv[1];
  if (command == "simulate") {
    return run_command(simulate_options(), argc, argv, cmd_simulate);
  }
  if (command == "analyze") {
    return run_command(analyze_options(), argc, argv, cmd_analyze);
  }
  if (command == "serve") {
    return run_command(serve_options(), argc, argv, cmd_serve);
  }
  std::fprintf(stderr, "unknown command '%s'\n", command.c_str());
  return usage();
}
