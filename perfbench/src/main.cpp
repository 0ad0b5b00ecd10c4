// auditherm benchmark program.
//
//   perfbench --workload paper-analyze|campus-knn|serve-mixed --seed N
//             --seconds S --trace 0|1 --data-dir DIR
//             [--max-ops K] [--setup-reps R] [--commit ID] [--source-digest H]
//
// Prints one environment line and, last, the result line:
//   {"correct": ..., "attempted": N, "failed": N, "metrics": {...}}
// --trace 0 measures the end-to-end metrics with no recorder installed;
// --trace 1 prints the per-layer ledger. perfbench/run.py builds this
// program and checks its metric names against BENCHMARK.json.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <string>
#include <thread>

#include "auditherm/core/parallel.hpp"
#include "auditherm/obs/metrics.hpp"
#include "auditherm/serve/json.hpp"
#include "bench.hpp"

namespace perfbench {

void emit_end_to_end(Outcome& out, double setup_s, const PhaseStats& phase) {
  const auto& l = phase.latency_ms;
  std::fprintf(stderr,
               "perfbench: %zu ops in %.2f s; latency ms p50 %.2f p90 %.2f "
               "p95 %.2f p99 %.2f max %.2f\n",
               l.size(), phase.wall_s, percentile(l, 50), percentile(l, 90),
               percentile(l, 95), percentile(l, 99), percentile(l, 100));
  out.add("setup_s", setup_s, "s");
  out.add("peak_rss_mb", peak_rss_mb(), "MB");
  out.add("latency_p50_ms", percentile(phase.latency_ms, 50.0), "ms");
  out.add("latency_mean_ms", mean(phase.latency_ms), "ms");
  out.add("goodput_per_s",
          phase.wall_s > 0.0 ? static_cast<double>(phase.good) / phase.wall_s
                             : 0.0,
          "1/s");
}

void add_counters(const auditherm::obs::Recorder& recorder,
                  std::map<std::string, double>& into) {
  for (const char* name :
       {"linalg.eigen_lanczos_passes", "linalg.eigen_lanczos_iterations",
        "linalg.spmv_calls", "parallel.batches", "parallel.tasks",
        "sysid.stream.rows", "sysid.stream.reanchors",
        "linalg.qr_downdate_calls", "serve.batch.lead", "serve.batch.join",
        "obs.dropped_spans"}) {
    into[name] += static_cast<double>(recorder.metrics().counter(name));
  }
}

void emit_layers(Outcome& out, const LayerReport& r) {
  const double ops =
      static_cast<double>(std::max<std::size_t>(1, r.layer_ms.size()));
  const auto layer = [&](const std::string& name) {
    double total = 0.0;
    for (const auto& op : r.layer_ms) {
      if (const auto it = op.find(name); it != op.end()) total += it->second;
    }
    return total / ops;
  };
  const auto per_op = [&](const std::string& counter) {
    const auto it = r.counters.find(counter);
    return it == r.counters.end() ? 0.0 : it->second / ops;
  };
  const auto rate = [](double amount, double ms) {
    return ms > 0.0 ? amount / (ms / 1000.0) : 0.0;
  };

  double attributed = 0.0;
  for (const auto& name : ledger_layers()) {
    const double ms = layer(name);
    attributed += ms;
    out.add(name + "_ms", ms, "ms");
  }
  out.add("timeseries.read_csv_mb_per_s",
          rate(r.csv_bytes_per_op / 1e6, layer("timeseries.read_csv")),
          "MB/s");
  out.add("linalg.lanczos_passes", per_op("linalg.eigen_lanczos_passes"),
          "count");
  out.add("linalg.lanczos_iterations",
          per_op("linalg.eigen_lanczos_iterations"), "count");
  out.add("linalg.spmv_calls", per_op("linalg.spmv_calls"), "count");
  out.add("core.parallel.batches", per_op("parallel.batches"), "count");
  out.add("core.parallel.tasks", per_op("parallel.tasks"), "count");
  out.add("sysid.stream_rows_per_s",
          rate(per_op("sysid.stream.rows"), layer("sysid.stream")), "1/s");
  out.add("sysid.stream_reanchors", per_op("sysid.stream.reanchors"),
          "count");
  out.add("sysid.stream_downdates", per_op("linalg.qr_downdate_calls"),
          "count");

  const double lookups = r.cache_hits + r.cache_misses;
  const double cache_ops =
      static_cast<double>(std::max<std::size_t>(1, r.cache_ops));
  out.add("core.stage_cache.hit_rate",
          lookups > 0.0 ? r.cache_hits / lookups : 0.0, "ratio");
  out.add("core.stage_cache.hits", r.cache_hits / cache_ops, "count");
  out.add("core.stage_cache.misses", r.cache_misses / cache_ops, "count");
  out.add("core.stage_cache.evictions", r.cache_evictions / cache_ops,
          "count");
  out.add("core.stage_cache.resident_mb", r.cache_resident_bytes / 1e6, "MB");

  out.add("serve.batch_leads", per_op("serve.batch.lead"), "count");
  out.add("serve.batch_joins", per_op("serve.batch.join"), "count");
  out.add("serve.service_p50_ms", percentile(r.service_ms, 50.0), "ms");
  out.add("serve.service_p95_ms", percentile(r.service_ms, 95.0), "ms");
  out.add("serve.send_late_p95_ms", percentile(r.send_late_ms, 95.0), "ms");

  out.add("bench.unattributed_ms", mean(r.untraced_ms) - attributed, "ms");
  out.add("obs.tracing_overhead_ms", mean(r.traced_ms) - mean(r.plain_ms),
          "ms");
  out.add("bench.traced_ops", static_cast<double>(r.layer_ms.size()),
          "count");
}

}  // namespace perfbench

namespace {

using namespace perfbench;
namespace json = auditherm::serve::json;

std::string number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1 --data-dir DIR [--max-ops K] "
               "[--setup-reps R] [--commit ID] [--source-digest H]\n",
               why);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  std::string commit = "unknown";
  std::string source_digest = "unknown";
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      options.trace = value == "1";
    } else if (flag == "--data-dir") {
      options.data_dir = value;
    } else if (flag == "--max-ops") {
      options.max_ops = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--setup-reps") {
      options.setup_reps = std::max<std::size_t>(
          1, std::strtoull(value.c_str(), nullptr, 10));
    } else if (flag == "--commit") {
      commit = value;
    } else if (flag == "--source-digest") {
      source_digest = value;
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  if (options.data_dir.empty()) usage("--data-dir is required");
  if (!(options.seconds > 0.0)) usage("--seconds must be positive");

  // One process drives the load with the pool pinned to the CPU count, at
  // most four threads; both are recorded below.
  const std::size_t cpus = std::max(1u, std::thread::hardware_concurrency());
  const std::size_t threads = std::min<std::size_t>(4, cpus);
  auditherm::core::set_thread_count(threads);

  std::printf(
      "{\"environment\": {\"workload\": \"%s\", \"seed\": %llu, "
      "\"cpus\": %zu, \"threads\": %zu, \"build_type\": \"%s\", "
      "\"compiler\": \"%s\", \"obs_compiled_in\": %s, \"commit\": \"%s\", "
      "\"source_digest\": \"%s\"}}\n",
      json::escape(options.workload).c_str(),
      static_cast<unsigned long long>(options.seed), cpus, threads,
      PERFBENCH_BUILD_TYPE, json::escape(PERFBENCH_COMPILER).c_str(),
      auditherm::obs::kCompiledIn ? "true" : "false",
      json::escape(commit).c_str(), json::escape(source_digest).c_str());
  std::fflush(stdout);

  Outcome out;
  try {
    std::filesystem::create_directories(options.data_dir);
    if (options.workload == "paper-analyze" ||
        options.workload == "campus-knn") {
      out = run_analyze_workload(options);
    } else if (options.workload == "serve-mixed") {
      out = run_serve_workload(options);
    } else {
      usage(("unknown workload " + options.workload).c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }

  for (const auto& problem : out.problems) {
    std::fprintf(stderr, "perfbench: check failed: %s\n", problem.c_str());
  }
  std::string inputs;
  for (const auto& in : out.inputs) {
    char fp[17];
    std::snprintf(fp, sizeof(fp), "%016llx",
                  static_cast<unsigned long long>(in.fingerprint));
    inputs += std::string(inputs.empty() ? "" : ", ") + "{\"name\": \"" +
              json::escape(in.name) + "\", \"bytes\": " +
              std::to_string(in.bytes) + ", \"fnv1a64\": \"" + fp + "\"}";
  }
  std::printf("{\"inputs\": [%s]}\n", inputs.c_str());

  std::string metrics;
  for (const auto& m : out.metrics) {
    metrics += std::string(metrics.empty() ? "" : ", ") + "\"" + m.name +
               "\": {\"value\": " + number(m.value) + ", \"unit\": \"" +
               m.unit + "\"}";
  }
  std::printf(
      "{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
      "\"metrics\": {%s}}\n",
      out.correct && out.failed == 0 ? "true" : "false", out.attempted,
      out.failed, metrics.c_str());
  return 0;
}
