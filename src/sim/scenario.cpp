#include "auditherm/sim/scenario.hpp"

#include <charconv>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <unordered_set>
#include <utility>

#include "auditherm/core/parallel.hpp"
#include "auditherm/obs/trace_span.hpp"
#include "auditherm/timeseries/csv_io.hpp"

namespace auditherm::sim {

namespace {

/// Largest synthetic sensor count whose VAV bank (max(4, n/32)) still
/// fits the 9-wide flow-channel band 101..109.
constexpr std::size_t kMaxSyntheticSensors = 288;

/// Integers up to 2^53 survive a double round-trip exactly; JSON numbers
/// are doubles, so bigger seeds are encoded as decimal strings.
constexpr std::uint64_t kMaxExactJsonInteger = 1ull << 53;

/// FNV-1a-64 of the exact CSV bytes. manifest.json and the README name
/// this hash, so it stays FNV-1a even if the stage-cache key hash
/// (core/stage_key.hpp) changes.
std::uint64_t fnv1a(std::string_view bytes) noexcept {
  std::uint64_t h = 1469598103934665603ull;
  for (const unsigned char c : bytes) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

/// Shortest round-trip decimal form (std::to_chars), so "0.04" stays
/// "0.04" in specs and manifests yet reparses to the identical double.
std::string json_double(double v) {
  char buf[32];
  const auto result = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, result.ptr);
}

std::string json_seed(std::uint64_t seed) {
  if (seed <= kMaxExactJsonInteger) return std::to_string(seed);
  return "\"" + std::to_string(seed) + "\"";
}

std::string hex_fingerprint(std::uint64_t fp) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "0x%016llx",
                static_cast<unsigned long long>(fp));
  return buf;
}

const char* building_name(BuildingKind kind) {
  switch (kind) {
    case BuildingKind::kPaperHall: return "paper";
    case BuildingKind::kGrid: return "grid";
    case BuildingKind::kCampus: return "campus";
  }
  return "?";
}

const char* season_name(Season season) {
  switch (season) {
    case Season::kPaper: return "paper";
    case Season::kWinter: return "winter";
    case Season::kSummer: return "summer";
    case Season::kShoulder: return "shoulder";
  }
  return "?";
}

const char* occupancy_name(OccupancyRegime regime) {
  switch (regime) {
    case OccupancyRegime::kPaper: return "paper";
    case OccupancyRegime::kQuiet: return "quiet";
    case OccupancyRegime::kBusy: return "busy";
  }
  return "?";
}

const char* hvac_name(HvacRegime regime) {
  switch (regime) {
    case HvacRegime::kPaper: return "paper";
    case HvacRegime::kFixedSupply: return "fixed-supply";
    case HvacRegime::kEco: return "eco";
  }
  return "?";
}

/// Serialize a trace to its exact CSV bytes (the unit every fingerprint
/// and on-disk file is defined over).
std::string csv_bytes(const timeseries::MultiTrace& trace) {
  std::ostringstream os;
  timeseries::write_csv(os, trace);
  return std::move(os).str();
}

/// Write `bytes` to `path`; no partial file survives a failure.
void write_bytes_file(const std::filesystem::path& path,
                      const std::string& bytes) {
  std::ofstream f(path);
  if (!f) {
    throw std::runtime_error("run_fleet: cannot open " + path.string());
  }
  f.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  f.flush();
  const bool ok = static_cast<bool>(f);
  f.close();
  if (!ok || f.fail()) {
    std::error_code ec;
    std::filesystem::remove(path, ec);
    throw std::runtime_error("run_fleet: write failed for " + path.string() +
                             " (partial file removed)");
  }
}

/// Simulate one logical process; pure function of `spec` except for the
/// optional file writes (disjoint paths per scenario, so concurrent LPs
/// never contend).
ScenarioOutcome run_one(const ScenarioSpec& spec, const FleetOptions& options,
                        const std::filesystem::path& dir) {
  obs::TraceSpan span("sim.fleet.building");
  const auto start = std::chrono::steady_clock::now();

  ScenarioOutcome out;
  out.spec = spec;
  const DatasetConfig config = scenario_config(spec);
  AuditoriumDataset dataset = generate_dataset(scenario_plan(spec), config);
  out.sensor_count = dataset.sensor_ids().size();
  out.samples = dataset.trace.size();
  out.channels = dataset.trace.channel_count();
  out.coverage = dataset.trace.coverage();
  out.control_steps = spec.days * static_cast<std::size_t>(
                                      timeseries::kMinutesPerDay) /
                      static_cast<std::size_t>(config.control_dt_s / 60.0);

  const std::string trace_csv = csv_bytes(dataset.trace);
  const std::string truth_csv = csv_bytes(dataset.truth);
  out.trace_fingerprint = fnv1a(trace_csv);
  out.truth_fingerprint = fnv1a(truth_csv);

  const bool writing = !options.out_dir.empty();
  if (writing) {
    out.trace_file = spec.name + ".csv";
    out.truth_file = spec.name + ".truth.csv";
    write_bytes_file(dir / out.trace_file, trace_csv);
    write_bytes_file(dir / out.truth_file, truth_csv);
  }
  if (!writing) out.dataset = std::move(dataset);

  out.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  obs::add_counter("sim.fleet.buildings");
  obs::add_counter("sim.fleet.steps", out.control_steps);
  return out;
}

}  // namespace

void ScenarioSpec::validate() const {
  const auto fail = [this](const std::string& what) {
    throw std::invalid_argument("scenario '" + name + "': " + what);
  };
  if (name.empty() || name.size() > 64) {
    fail("name must be 1..64 characters");
  }
  for (const char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '.' || c == '_' || c == '-';
    if (!ok) fail("name may only contain [A-Za-z0-9._-]");
  }
  if (days == 0) fail("days must be >= 1");
  if (failure_days > days) fail("failure_days exceeds days");
  if (!(dropout >= 0.0 && dropout <= 1.0)) fail("dropout must be in [0, 1]");
  if (building == BuildingKind::kGrid) {
    if (sensors == 0) fail("grid building needs sensors >= 1");
    if (sensors > kMaxSyntheticSensors) {
      fail("grid building has " + std::to_string(sensors) +
           " sensors; at most 288 fit the 9-VAV flow-channel band 101..109");
    }
  }
  if (building == BuildingKind::kCampus) {
    if (halls == 0 || sensors_per_hall == 0) {
      fail("campus building needs halls >= 1 and sensors_per_hall >= 1");
    }
    if (halls * sensors_per_hall > kMaxSyntheticSensors) {
      fail("campus has " + std::to_string(halls * sensors_per_hall) +
           " sensors; at most 288 fit the 9-VAV flow-channel band 101..109");
    }
  }
}

FloorPlan scenario_plan(const ScenarioSpec& spec) {
  spec.validate();
  switch (spec.building) {
    case BuildingKind::kPaperHall: return FloorPlan::brauer_auditorium();
    case BuildingKind::kGrid: return FloorPlan::synthetic_grid(spec.sensors);
    case BuildingKind::kCampus:
      return FloorPlan::synthetic_campus(spec.halls, spec.sensors_per_hall);
  }
  throw std::invalid_argument("scenario_plan: unknown building kind");
}

DatasetConfig scenario_config(const ScenarioSpec& spec) {
  spec.validate();
  DatasetConfig config;
  config.days = spec.days;
  config.failure_days = spec.failure_days;
  config.sensor_dropout_probability = spec.dropout;
  config.seed = spec.seed;

  // Season presets reshape the weather generator; every non-paper season
  // also spans its ramp over the scenario's own run length (the paper
  // preset keeps the published 98-day winter-to-spring ramp so default
  // specs stay bitwise-equal to generate_dataset(DatasetConfig{})).
  switch (spec.season) {
    case Season::kPaper:
      break;
    case Season::kWinter:
      config.weather.start_mean_c = -6.0;
      config.weather.end_mean_c = 1.0;
      config.weather.diurnal_amplitude_c = 4.0;
      config.weather.day_offset_std_c = 4.0;
      config.weather.season_days = static_cast<double>(spec.days);
      break;
    case Season::kSummer:
      config.weather.start_mean_c = 23.0;
      config.weather.end_mean_c = 29.0;
      config.weather.diurnal_amplitude_c = 6.5;
      config.weather.coldest_minute = 5 * 60;
      config.weather.season_days = static_cast<double>(spec.days);
      break;
    case Season::kShoulder:
      config.weather.start_mean_c = 11.0;
      config.weather.end_mean_c = 16.0;
      config.weather.diurnal_amplitude_c = 7.0;
      config.weather.season_days = static_cast<double>(spec.days);
      break;
  }

  switch (spec.occupancy) {
    case OccupancyRegime::kPaper:
      break;
    case OccupancyRegime::kQuiet:
      config.occupancy.class_probability = 0.20;
      config.occupancy.evening_probability = 0.05;
      config.occupancy.weekend_probability = 0.04;
      break;
    case OccupancyRegime::kBusy:
      config.occupancy.class_probability = 0.85;
      config.occupancy.evening_probability = 0.40;
      config.occupancy.weekend_probability = 0.35;
      break;
  }

  switch (spec.hvac) {
    case HvacRegime::kPaper:
      break;
    case HvacRegime::kFixedSupply:
      config.use_controller_supply = false;
      break;
    case HvacRegime::kEco:
      config.thermostat.setpoint_c = 22.0;
      config.thermostat.deadband_c = 0.8;
      config.idle_supply_temp_c = 19.0;
      break;
  }
  return config;
}

AuditoriumDataset run_scenario(const ScenarioSpec& spec) {
  return generate_dataset(scenario_plan(spec), scenario_config(spec));
}

std::string scenario_to_json(const ScenarioSpec& spec) {
  spec.validate();  // the name charset keeps this escaping-free
  std::string out = "{";
  out += "\"name\": \"" + spec.name + "\"";
  out += std::string(", \"building\": \"") + building_name(spec.building) +
         "\"";
  out += ", \"sensors\": " + std::to_string(spec.sensors);
  out += ", \"halls\": " + std::to_string(spec.halls);
  out += ", \"sensors_per_hall\": " + std::to_string(spec.sensors_per_hall);
  out += std::string(", \"season\": \"") + season_name(spec.season) + "\"";
  out += std::string(", \"occupancy\": \"") + occupancy_name(spec.occupancy) +
         "\"";
  out += std::string(", \"hvac\": \"") + hvac_name(spec.hvac) + "\"";
  out += ", \"days\": " + std::to_string(spec.days);
  out += ", \"failure_days\": " + std::to_string(spec.failure_days);
  out += ", \"dropout\": " + json_double(spec.dropout);
  out += ", \"seed\": " + json_seed(spec.seed);
  out += "}";
  return out;
}

std::vector<ScenarioOutcome> run_fleet(const std::vector<ScenarioSpec>& specs,
                                       const FleetOptions& options) {
  obs::TraceSpan span("sim.fleet");
  std::unordered_set<std::string> names;
  for (const auto& spec : specs) {
    spec.validate();
    if (!names.insert(spec.name).second) {
      throw std::invalid_argument("run_fleet: duplicate scenario name '" +
                                  spec.name + "'");
    }
  }

  const bool writing = !options.out_dir.empty();
  std::filesystem::path dir;
  if (writing) {
    dir = options.out_dir;
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    // Probe the manifest path (append mode: creates without truncating)
    // before burning CPU, so an unwritable out_dir fails up front instead
    // of after the simulations.
    const std::filesystem::path manifest_path = dir / "manifest.json";
    std::ofstream probe(manifest_path, std::ios::app);
    if (!probe) {
      throw std::runtime_error("run_fleet: cannot write " +
                               manifest_path.string());
    }
  }

  // One logical process per building: tasks are claimed dynamically by
  // the pool but write only their own outcome slot, so completion order
  // cannot affect the result — each outcome is a pure function of its
  // spec (grain 1: a building simulation dwarfs any scheduling cost).
  std::vector<ScenarioOutcome> outcomes(specs.size());
  core::parallel_for(0, specs.size(), 1, [&](std::size_t i) {
    outcomes[i] = run_one(specs[i], options, dir);
  });

  if (writing) {
    write_bytes_file(dir / "manifest.json", fleet_manifest_json(outcomes));
  }
  return outcomes;
}

std::string fleet_manifest_json(const std::vector<ScenarioOutcome>& outcomes) {
  std::size_t total_steps = 0;
  for (const auto& out : outcomes) total_steps += out.control_steps;

  std::string json;
  json += "{\n";
  json += "  \"schema\": \"auditherm.fleet-manifest\",\n";
  json += "  \"version\": 1,\n";
  json += "  \"buildings\": " + std::to_string(outcomes.size()) + ",\n";
  json += "  \"total_steps\": " + std::to_string(total_steps) + ",\n";
  json += "  \"scenarios\": [";
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    const auto& out = outcomes[i];
    json += i == 0 ? "\n" : ",\n";
    json += "    {\n";
    json += "      \"name\": \"" + out.spec.name + "\",\n";
    json += "      \"spec\": " + scenario_to_json(out.spec) + ",\n";
    json += "      \"sensors\": " + std::to_string(out.sensor_count) + ",\n";
    json += "      \"samples\": " + std::to_string(out.samples) + ",\n";
    json += "      \"channels\": " + std::to_string(out.channels) + ",\n";
    json += "      \"coverage\": " + json_double(out.coverage) + ",\n";
    json +=
        "      \"control_steps\": " + std::to_string(out.control_steps) + ",\n";
    json += "      \"trace_fingerprint\": \"" +
            hex_fingerprint(out.trace_fingerprint) + "\",\n";
    json += "      \"truth_fingerprint\": \"" +
            hex_fingerprint(out.truth_fingerprint) + "\"";
    if (!out.trace_file.empty()) {
      json += ",\n      \"trace_file\": \"" + out.trace_file + "\"";
      json += ",\n      \"truth_file\": \"" + out.truth_file + "\"";
    }
    json += "\n    }";
  }
  json += outcomes.empty() ? "],\n" : "\n  ],\n";
  json += "  \"fingerprint\": \"" +
          hex_fingerprint([&] {
            std::uint64_t h = 1469598103934665603ull;
            for (const auto& out : outcomes) {
              h ^= out.trace_fingerprint;
              h *= 1099511628211ull;
            }
            return h;
          }()) +
          "\"\n";
  json += "}\n";
  return json;
}

}  // namespace auditherm::sim
