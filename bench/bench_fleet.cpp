// Fleet-scale scenario generation bench: simulates a 6-building mixed
// fleet through sim::run_fleet, reports per-building wall time and fleet
// throughput (control steps / second), checks thread scaling at 1/2/4/8
// workers with a bitwise fingerprint cross-check, and verifies that a
// fleet-of-1 paper-hall spec reproduces generate_dataset() byte for byte.
// Writes BENCH_fleet.json.
//
// On the 1-CPU CI container thread "scaling" is honestly ~1.0x; the
// bitwise checks are the point there — the wall-time columns become
// meaningful on multi-core hosts.

#include <chrono>
#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include "bench_common.hpp"

#include "auditherm/serve/json.hpp"
#include "auditherm/serve/scenario_codec.hpp"

namespace core = auditherm::core;
namespace serve = auditherm::serve;
namespace sim = auditherm::sim;
namespace timeseries = auditherm::timeseries;

namespace {

/// The bench fleet, in the same JSON shape `simulate --fleet` takes, so
/// this file doubles as a worked example. 14 days per building keeps the
/// bench under a minute while still exercising failure days and dropout.
constexpr const char kFleetJson[] = R"({
  "base_seed": 2014,
  "scenarios": [
    {"name": "paper-hall",   "days": 14, "failure_days": 5},
    {"name": "winter-hall",  "days": 14, "failure_days": 5,
     "season": "winter", "occupancy": "busy"},
    {"name": "summer-grid",  "days": 14, "failure_days": 3,
     "building": "grid", "sensors": 96, "season": "summer"},
    {"name": "eco-grid",     "days": 14, "failure_days": 3,
     "building": "grid", "sensors": 64, "hvac": "eco",
     "occupancy": "quiet"},
    {"name": "campus-2x48",  "days": 14, "failure_days": 4,
     "building": "campus", "halls": 2, "sensors_per_hall": 48,
     "season": "shoulder"},
    {"name": "fixed-supply", "days": 14, "failure_days": 5,
     "hvac": "fixed-supply", "dropout": 0.08}
  ]
})";

std::string csv_bytes(const timeseries::MultiTrace& trace) {
  std::ostringstream os;
  timeseries::write_csv(os, trace);
  return std::move(os).str();
}

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

}  // namespace

int main() {
  const bench::ObsSession obs;
  bench::print_header(
      "Fleet scenario generation: 6 buildings behind one ScenarioSpec API");

  const serve::SimulateRequest request =
      serve::simulate_request_from_json(serve::json::parse(kFleetJson));

  // --- Reference run (thread pool default) ------------------------------
  const auto start = std::chrono::steady_clock::now();
  const auto outcomes = sim::run_fleet(request.specs);
  const double fleet_seconds = seconds_since(start);

  std::size_t total_steps = 0;
  std::size_t total_samples = 0;
  std::printf("%-14s %8s %9s %9s %10s  %s\n", "building", "sensors",
              "samples", "steps", "wall s", "trace fingerprint");
  for (const auto& outcome : outcomes) {
    total_steps += outcome.control_steps;
    total_samples += outcome.samples * outcome.channels;
    std::printf("%-14s %8zu %9zu %9zu %10.3f  0x%016llx\n",
                outcome.spec.name.c_str(), outcome.sensor_count,
                outcome.samples, outcome.control_steps, outcome.wall_seconds,
                static_cast<unsigned long long>(outcome.trace_fingerprint));
  }
  const double throughput = static_cast<double>(total_steps) / fleet_seconds;
  std::printf("fleet: %zu buildings, %zu control steps in %.3f s "
              "(%.0f steps/s)\n",
              outcomes.size(), total_steps, fleet_seconds, throughput);

  // --- Thread scaling with bitwise cross-check --------------------------
  bool bitwise_identical = true;
  std::vector<bench::JsonObject> scaling;
  for (const std::size_t threads : {1u, 2u, 4u, 8u}) {
    core::ThreadCountScope scope(threads);
    const auto t0 = std::chrono::steady_clock::now();
    const auto repeat = sim::run_fleet(request.specs);
    const double seconds = seconds_since(t0);
    for (std::size_t i = 0; i < outcomes.size(); ++i) {
      if (repeat[i].trace_fingerprint != outcomes[i].trace_fingerprint ||
          repeat[i].truth_fingerprint != outcomes[i].truth_fingerprint) {
        bitwise_identical = false;
        std::printf("!! fingerprint mismatch at %zu threads (%s)\n", threads,
                    repeat[i].spec.name.c_str());
      }
    }
    std::printf("threads %zu: %.3f s (%.0f steps/s)\n", threads, seconds,
                static_cast<double>(total_steps) / seconds);
    scaling.push_back(
        bench::JsonObject().add("threads", threads).add("seconds", seconds));
  }
  std::printf("bitwise identical across thread counts: %s\n",
              bitwise_identical ? "yes" : "NO");

  // --- Fleet-of-1 vs generate_dataset -----------------------------------
  sim::ScenarioSpec solo;
  solo.name = "solo";
  solo.days = 14;
  solo.failure_days = 5;
  const auto fleet_of_1 = sim::run_fleet({solo});
  sim::DatasetConfig config;
  config.days = solo.days;
  config.failure_days = solo.failure_days;
  const auto reference = sim::generate_dataset(config);
  const bool fleet_of_1_matches =
      csv_bytes(fleet_of_1[0].dataset->trace) == csv_bytes(reference.trace) &&
      csv_bytes(fleet_of_1[0].dataset->truth) == csv_bytes(reference.truth);
  std::printf("fleet-of-1 matches generate_dataset bitwise: %s\n",
              fleet_of_1_matches ? "yes" : "NO");

  auto json = bench::artifact("fleet", core::thread_count());
  json.add("buildings", outcomes.size());
  json.add("total_control_steps", total_steps);
  json.add("total_trace_cells", total_samples);
  json.add("fleet_seconds", fleet_seconds);
  json.add("steps_per_second", throughput);
  std::vector<bench::JsonObject> per_building;
  for (const auto& outcome : outcomes) {
    per_building.push_back(bench::JsonObject()
                               .add("name", outcome.spec.name)
                               .add("wall_seconds", outcome.wall_seconds)
                               .add("control_steps", outcome.control_steps));
  }
  json.add("per_building", per_building);
  json.add("thread_scaling", scaling);
  json.add("bitwise_identical_across_threads", bitwise_identical);
  json.add("fleet_of_1_matches_generate_dataset", fleet_of_1_matches);
  if (!bench::write_artifact(json, "BENCH_fleet.json")) return 1;
  return bitwise_identical && fleet_of_1_matches ? 0 : 1;
}
