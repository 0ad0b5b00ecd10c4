#pragma once

/// \file scenario.hpp
/// Fleet-scale scenario generation: a declarative `ScenarioSpec` unifying
/// everything `generate_dataset` can vary (building geometry, season,
/// occupancy regime, HVAC program, run length, seed) and a `run_fleet`
/// that simulates many buildings in parallel as independent logical
/// processes on the deterministic thread pool.
///
/// The paper's dataset is one 14-week trace of one auditorium; training
/// corpora for the identification/clustering stack need thousands of
/// building variants x seasons x occupancy regimes. Each ScenarioSpec is
/// one such variant; `run_fleet` schedules one logical process per
/// building, each seeded independently, so
///   * the fleet result is **bitwise identical at any thread count** and
///     under any spec-order shuffle (every outcome is a pure function of
///     its spec alone — LP decomposition as in ROOT-Sim's PCS model, but
///     with no cross-LP events, so no GVT is needed);
///   * changing one building's seed leaves every other building's trace
///     bitwise unchanged (per-seed independence);
///   * a fleet-of-1 paper-hall spec reproduces `generate_dataset(config)`
///     byte-for-byte.
///
/// Seed-derivation contract: `ScenarioSpec::seed` is the entity seed; it
/// feeds `DatasetConfig::seed`, and generate_dataset mixes it into the
/// weather/occupancy sub-model seeds with fixed odd multipliers (see
/// dataset.cpp). Specs that omit an explicit seed in a fleet file get
/// `derive_entity_seed(base_seed, index)` — a splitmix64 stream over the
/// spec index — so one base seed reproduces the whole corpus while every
/// building still sees an independent, well-mixed 64-bit seed.

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "auditherm/sim/dataset.hpp"

namespace auditherm::sim {

/// splitmix64 finalizer: a bijective 64-bit mix with full avalanche; the
/// same hash family the deterministic eigensolver start vectors use.
[[nodiscard]] constexpr std::uint64_t splitmix64(std::uint64_t x) noexcept {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

/// Per-entity seed for logical process `index` of a fleet seeded with
/// `base`: position `index + 1` of the splitmix64 stream starting at
/// `base`. Distinct indices give independent seeds; distinct bases give
/// disjoint corpora.
[[nodiscard]] constexpr std::uint64_t derive_entity_seed(
    std::uint64_t base, std::uint64_t index) noexcept {
  return splitmix64(base + 0x9E3779B97F4A7C15ull * index);
}

/// Which floor plan the scenario simulates.
enum class BuildingKind {
  kPaperHall,  ///< FloorPlan::brauer_auditorium()
  kGrid,       ///< FloorPlan::synthetic_grid(sensors)
  kCampus,     ///< FloorPlan::synthetic_campus(halls, sensors_per_hall)
};

/// Weather preset applied to WeatherConfig. kPaper keeps the defaults
/// (the paper's Jan 31 - May 8 winter-to-spring ramp).
enum class Season { kPaper, kWinter, kSummer, kShoulder };

/// Occupancy-calendar preset applied to OccupancyConfig. kPaper keeps the
/// defaults (the auditorium's class/seminar schedule).
enum class OccupancyRegime { kPaper, kQuiet, kBusy };

/// HVAC program preset. kPaper keeps the defaults (dual-mode thermostat
/// supply); kFixedSupply models a fixed-discharge AHU without reheat;
/// kEco widens the comfort band and raises the setpoint to save energy.
enum class HvacRegime { kPaper, kFixedSupply, kEco };

/// One building scenario — the unified knob set over generate_dataset's
/// DatasetConfig plus the floor-plan choice. Field defaults reproduce the
/// paper run exactly: a default-constructed spec is the 98-day paper-hall
/// dataset, bitwise.
struct ScenarioSpec {
  /// Scenario id: names output files (<name>.csv) and manifest entries.
  /// Restricted to [A-Za-z0-9._-], at most 64 chars, so names embed into
  /// file paths and hand-rolled JSON without escaping.
  std::string name = "scenario";

  BuildingKind building = BuildingKind::kPaperHall;
  std::size_t sensors = 64;           ///< kGrid: wireless sensor count
  std::size_t halls = 2;              ///< kCampus: hall count
  std::size_t sensors_per_hall = 32;  ///< kCampus: per-hall sensors

  Season season = Season::kPaper;
  OccupancyRegime occupancy = OccupancyRegime::kPaper;
  HvacRegime hvac = HvacRegime::kPaper;

  std::size_t days = 98;          ///< run length (the paper's ~14 weeks)
  std::size_t failure_days = 34;  ///< whole-system outage days
  double dropout = 0.04;          ///< per sensor-day wireless dropout prob.
  std::uint64_t seed = 1234;      ///< entity seed (see header comment)

  bool operator==(const ScenarioSpec&) const = default;

  /// Throws std::invalid_argument (message includes `name`) on a bad name,
  /// zero days, failure_days > days, dropout outside [0, 1], or a
  /// synthetic building too large for the reserved flow-channel band
  /// (more than 288 sensors => more than 9 VAVs).
  void validate() const;
};

/// The spec's floor plan. Validates first.
[[nodiscard]] FloorPlan scenario_plan(const ScenarioSpec& spec);

/// The spec composed down onto generate_dataset's DatasetConfig: season /
/// occupancy / HVAC presets applied, days/failure_days/dropout/seed
/// copied. A default spec yields a default DatasetConfig. Validates first.
[[nodiscard]] DatasetConfig scenario_config(const ScenarioSpec& spec);

/// Simulate one scenario: generate_dataset(scenario_plan, scenario_config).
[[nodiscard]] AuditoriumDataset run_scenario(const ScenarioSpec& spec);

/// Canonical JSON encoding of a spec (every field, declared order; the
/// seed as a number when it fits a double exactly, else a decimal
/// string). serve::scenario_from_json parses it back losslessly.
[[nodiscard]] std::string scenario_to_json(const ScenarioSpec& spec);

/// Fleet execution options.
struct FleetOptions {
  /// When non-empty: write <name>.csv, <name>.truth.csv and manifest.json
  /// into this directory (created if missing) and drop the in-memory
  /// datasets after fingerprinting. When empty: nothing is written and
  /// every outcome retains its dataset.
  std::string out_dir;
};

/// What one logical process produced.
struct ScenarioOutcome {
  ScenarioSpec spec;  ///< the resolved spec (seed filled in)
  std::size_t sensor_count = 0;
  std::size_t samples = 0;
  std::size_t channels = 0;
  std::size_t control_steps = 0;  ///< recorded main-loop plant steps
  double coverage = 0.0;          ///< trace.coverage()
  /// FNV-1a over the exact CSV bytes of the trace / the ground truth —
  /// the unit of every bitwise-determinism claim and manifest entry.
  std::uint64_t trace_fingerprint = 0;
  std::uint64_t truth_fingerprint = 0;
  std::string trace_file;  ///< file name under out_dir ("" when unwritten)
  std::string truth_file;
  double wall_seconds = 0.0;  ///< this building's simulation wall time
  /// Present exactly when FleetOptions::out_dir is empty.
  std::optional<AuditoriumDataset> dataset;
};

/// Simulate every spec as an independent logical process, scheduled
/// dynamically on the deterministic thread pool, and return outcomes in
/// spec order. Throws std::invalid_argument on an invalid spec or a
/// duplicate name, std::runtime_error when out_dir cannot be written
/// (checked before any simulation runs).
[[nodiscard]] std::vector<ScenarioOutcome> run_fleet(
    const std::vector<ScenarioSpec>& specs, const FleetOptions& options = {});

/// The fleet manifest as deterministic JSON ("auditherm.fleet-manifest"
/// v1): building count, total steps, and one entry per scenario with the
/// resolved spec, shape, coverage, and hex fingerprints. run_fleet writes
/// this to <out_dir>/manifest.json; wall times are deliberately excluded
/// so the manifest bytes are reproducible.
[[nodiscard]] std::string fleet_manifest_json(
    const std::vector<ScenarioOutcome>& outcomes);

}  // namespace auditherm::sim
