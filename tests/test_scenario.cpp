// Tests for fleet scenario generation: ScenarioSpec validation and
// composition onto DatasetConfig, run_fleet's bitwise determinism across
// thread counts / spec orders / seed changes, the fleet-of-1 equivalence
// with generate_dataset, the on-disk fleet layout, and the strict JSON
// codec (round-trips and key-path errors).

#include "auditherm/sim/scenario.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "auditherm/core/parallel.hpp"
#include "auditherm/obs/trace_span.hpp"
#include "auditherm/serve/json.hpp"
#include "auditherm/serve/scenario_codec.hpp"
#include "auditherm/timeseries/csv_io.hpp"

namespace core = auditherm::core;
namespace obs = auditherm::obs;
namespace serve = auditherm::serve;
namespace json = auditherm::serve::json;
namespace sim = auditherm::sim;
namespace timeseries = auditherm::timeseries;

using sim::BuildingKind;
using sim::HvacRegime;
using sim::OccupancyRegime;
using sim::ScenarioSpec;
using sim::Season;

namespace {

/// Short runs keep the suite fast; 2 days still exercises failure-day
/// sampling, dropout windows, and the full channel set.
ScenarioSpec quick_spec(std::string name, std::uint64_t seed = 1234) {
  ScenarioSpec spec;
  spec.name = std::move(name);
  spec.days = 2;
  spec.failure_days = 1;
  spec.seed = seed;
  return spec;
}

std::vector<ScenarioSpec> mixed_fleet() {
  auto hall = quick_spec("hall", 1);
  auto grid = quick_spec("grid", 2);
  grid.building = BuildingKind::kGrid;
  grid.sensors = 24;
  grid.season = Season::kSummer;
  auto campus = quick_spec("campus", 3);
  campus.building = BuildingKind::kCampus;
  campus.halls = 2;
  campus.sensors_per_hall = 12;
  campus.occupancy = OccupancyRegime::kBusy;
  campus.hvac = HvacRegime::kEco;
  return {hall, grid, campus};
}

std::string csv_bytes(const timeseries::MultiTrace& trace) {
  std::ostringstream os;
  timeseries::write_csv(os, trace);
  return std::move(os).str();
}

/// A unique scratch directory under the test's working dir.
std::filesystem::path scratch_dir(const std::string& tag) {
  const auto dir = std::filesystem::temp_directory_path() /
                   ("auditherm_scenario_" + tag);
  std::filesystem::remove_all(dir);
  return dir;
}

// --- Spec validation ------------------------------------------------------

TEST(ScenarioSpec, DefaultSpecIsThePaperRun) {
  const ScenarioSpec spec;
  EXPECT_NO_THROW(spec.validate());
  const sim::DatasetConfig config = sim::scenario_config(spec);
  const sim::DatasetConfig defaults;
  EXPECT_EQ(config.days, defaults.days);
  EXPECT_EQ(config.failure_days, defaults.failure_days);
  EXPECT_EQ(config.sensor_dropout_probability,
            defaults.sensor_dropout_probability);
  EXPECT_EQ(config.seed, defaults.seed);
  EXPECT_EQ(config.weather.start_mean_c, defaults.weather.start_mean_c);
  EXPECT_EQ(config.occupancy.class_probability,
            defaults.occupancy.class_probability);
  EXPECT_EQ(config.thermostat.setpoint_c, defaults.thermostat.setpoint_c);
  EXPECT_EQ(config.use_controller_supply, defaults.use_controller_supply);
}

TEST(ScenarioSpec, ValidateRejectsBadSpecs) {
  auto bad = [](auto&& mutate) {
    ScenarioSpec spec;
    mutate(spec);
    EXPECT_THROW(spec.validate(), std::invalid_argument);
  };
  bad([](ScenarioSpec& s) { s.name = ""; });
  bad([](ScenarioSpec& s) { s.name = std::string(65, 'a'); });
  bad([](ScenarioSpec& s) { s.name = "has space"; });
  bad([](ScenarioSpec& s) { s.name = "quo\"te"; });
  bad([](ScenarioSpec& s) { s.days = 0; });
  bad([](ScenarioSpec& s) { s.failure_days = s.days + 1; });
  bad([](ScenarioSpec& s) { s.dropout = -0.1; });
  bad([](ScenarioSpec& s) { s.dropout = 1.5; });
  bad([](ScenarioSpec& s) {
    s.building = BuildingKind::kGrid;
    s.sensors = 0;
  });
  bad([](ScenarioSpec& s) {
    s.building = BuildingKind::kGrid;
    s.sensors = 289;
  });
  bad([](ScenarioSpec& s) {
    s.building = BuildingKind::kCampus;
    s.halls = 0;
  });
  bad([](ScenarioSpec& s) {
    s.building = BuildingKind::kCampus;
    s.halls = 10;
    s.sensors_per_hall = 30;  // 300 > 288
  });
}

TEST(ScenarioSpec, ValidateNamesTheScenario) {
  ScenarioSpec spec;
  spec.name = "office-7";
  spec.days = 0;
  try {
    spec.validate();
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("office-7"), std::string::npos);
  }
}

TEST(ScenarioSpec, PlanMatchesBuildingKind) {
  EXPECT_EQ(sim::scenario_plan(ScenarioSpec{}).sensors().size(),
            sim::FloorPlan::brauer_auditorium().sensors().size());
  ScenarioSpec grid;
  grid.building = BuildingKind::kGrid;
  grid.sensors = 24;
  EXPECT_EQ(sim::scenario_plan(grid).wireless_ids().size(), 24u);
  ScenarioSpec campus;
  campus.building = BuildingKind::kCampus;
  campus.halls = 3;
  campus.sensors_per_hall = 8;
  EXPECT_EQ(sim::scenario_plan(campus).zone_count(), 3u);
}

TEST(ScenarioSpec, PresetsReshapeTheConfig) {
  ScenarioSpec spec;
  spec.days = 30;
  spec.failure_days = 0;
  spec.season = Season::kWinter;
  spec.occupancy = OccupancyRegime::kQuiet;
  spec.hvac = HvacRegime::kEco;
  const auto config = sim::scenario_config(spec);
  EXPECT_LT(config.weather.start_mean_c, 0.0);
  // Non-paper seasons span their ramp over the scenario's own run length.
  EXPECT_EQ(config.weather.season_days, 30.0);
  EXPECT_LT(config.occupancy.class_probability, 0.3);
  EXPECT_GT(config.thermostat.setpoint_c,
            sim::DatasetConfig{}.thermostat.setpoint_c);

  spec.hvac = HvacRegime::kFixedSupply;
  EXPECT_FALSE(sim::scenario_config(spec).use_controller_supply);
}

// --- Fleet determinism ----------------------------------------------------

TEST(RunFleet, FleetOfOneMatchesGenerateDatasetBitwise) {
  const auto spec = quick_spec("solo");
  const auto outcomes = sim::run_fleet({spec});
  ASSERT_EQ(outcomes.size(), 1u);
  ASSERT_TRUE(outcomes[0].dataset.has_value());

  sim::DatasetConfig config;
  config.days = spec.days;
  config.failure_days = spec.failure_days;
  config.seed = spec.seed;
  const auto reference = sim::generate_dataset(config);
  EXPECT_EQ(csv_bytes(outcomes[0].dataset->trace), csv_bytes(reference.trace));
  EXPECT_EQ(csv_bytes(outcomes[0].dataset->truth), csv_bytes(reference.truth));
}

TEST(RunFleet, BitwiseIdenticalAcrossThreadCounts) {
  const auto specs = mixed_fleet();
  std::vector<std::vector<std::uint64_t>> fingerprints;
  for (const std::size_t threads : {1u, 2u, 4u, 8u}) {
    core::ThreadCountScope scope(threads);
    const auto outcomes = sim::run_fleet(specs);
    std::vector<std::uint64_t> fps;
    for (const auto& outcome : outcomes) {
      fps.push_back(outcome.trace_fingerprint);
      fps.push_back(outcome.truth_fingerprint);
    }
    fingerprints.push_back(std::move(fps));
  }
  for (std::size_t i = 1; i < fingerprints.size(); ++i) {
    EXPECT_EQ(fingerprints[i], fingerprints[0]) << "thread run " << i;
  }
}

TEST(RunFleet, SpecOrderShuffleLeavesPerBuildingOutputsIdentical) {
  auto specs = mixed_fleet();
  const auto forward = sim::run_fleet(specs);
  std::reverse(specs.begin(), specs.end());
  const auto reversed = sim::run_fleet(specs);
  ASSERT_EQ(forward.size(), reversed.size());
  for (const auto& a : forward) {
    const auto b = std::find_if(reversed.begin(), reversed.end(),
                                [&](const auto& o) {
                                  return o.spec.name == a.spec.name;
                                });
    ASSERT_NE(b, reversed.end()) << a.spec.name;
    EXPECT_EQ(a.trace_fingerprint, b->trace_fingerprint) << a.spec.name;
    EXPECT_EQ(a.truth_fingerprint, b->truth_fingerprint) << a.spec.name;
  }
}

TEST(RunFleet, ChangingOneSeedLeavesOtherBuildingsUnchanged) {
  auto specs = mixed_fleet();
  const auto before = sim::run_fleet(specs);
  specs[1].seed ^= 0xDEADBEEFull;
  const auto after = sim::run_fleet(specs);
  EXPECT_NE(after[1].trace_fingerprint, before[1].trace_fingerprint);
  EXPECT_EQ(after[0].trace_fingerprint, before[0].trace_fingerprint);
  EXPECT_EQ(after[2].trace_fingerprint, before[2].trace_fingerprint);
}

TEST(RunFleet, RejectsDuplicateNamesAndInvalidSpecs) {
  EXPECT_THROW((void)sim::run_fleet({quick_spec("twin"), quick_spec("twin")}),
               std::invalid_argument);
  auto bad = quick_spec("bad");
  bad.days = 0;
  EXPECT_THROW((void)sim::run_fleet({bad}), std::invalid_argument);
}

TEST(RunFleet, EmptyFleetYieldsEmptyManifest) {
  const auto outcomes = sim::run_fleet({});
  EXPECT_TRUE(outcomes.empty());
  const auto manifest = json::parse(sim::fleet_manifest_json(outcomes));
  EXPECT_EQ(manifest.find("buildings")->number, 0.0);
  EXPECT_TRUE(manifest.find("scenarios")->array.empty());
}

// --- Fleet output directory -----------------------------------------------

TEST(RunFleet, WritesTracesAndManifestToOutDir) {
  const auto dir = scratch_dir("outdir");
  sim::FleetOptions options;
  options.out_dir = dir.string();
  const auto specs = mixed_fleet();
  const auto outcomes = sim::run_fleet(specs, options);

  for (const auto& outcome : outcomes) {
    // Datasets are dropped once written.
    EXPECT_FALSE(outcome.dataset.has_value());
    std::ifstream file(dir / outcome.trace_file);
    const auto trace = timeseries::read_csv(file);
    EXPECT_EQ(trace.size(), outcome.samples);
    EXPECT_EQ(trace.channel_count(), outcome.channels);
  }

  std::ifstream f(dir / "manifest.json");
  ASSERT_TRUE(f.good());
  std::ostringstream os;
  os << f.rdbuf();
  const auto manifest = json::parse(os.str());
  EXPECT_EQ(manifest.find("schema")->string, "auditherm.fleet-manifest");
  EXPECT_EQ(manifest.find("buildings")->number,
            static_cast<double>(specs.size()));
  const auto& scenarios = manifest.find("scenarios")->array;
  ASSERT_EQ(scenarios.size(), specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    EXPECT_EQ(scenarios[i].find("name")->string, specs[i].name);
    // The embedded spec must round-trip through the codec.
    const auto decoded =
        serve::scenario_from_json(*scenarios[i].find("spec"));
    EXPECT_EQ(decoded, outcomes[i].spec);
  }
  std::filesystem::remove_all(dir);
}

TEST(RunFleet, UnwritableOutDirFailsBeforeSimulating) {
  sim::FleetOptions options;
  options.out_dir = "/proc/auditherm_no_such_dir";
  // 98 paper days would take seconds; the preflight probe must throw
  // immediately instead.
  ScenarioSpec spec;  // full-size default spec
  const auto start = std::chrono::steady_clock::now();
  EXPECT_THROW((void)sim::run_fleet({spec}, options), std::runtime_error);
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_LT(std::chrono::duration<double>(elapsed).count(), 5.0);
}

TEST(RunFleet, ManifestExcludesWallTimesSoBytesAreReproducible) {
  const auto specs = mixed_fleet();
  const auto a = sim::fleet_manifest_json(sim::run_fleet(specs));
  const auto b = sim::fleet_manifest_json(sim::run_fleet(specs));
  EXPECT_EQ(a, b);
}

// --- Observability --------------------------------------------------------

TEST(RunFleet, CountsBuildingsAndSteps) {
  if (!obs::kCompiledIn) GTEST_SKIP() << "observability compiled out";
  obs::Recorder recorder;
  std::size_t expected_steps = 0;
  {
    obs::RecorderScope scope(&recorder);
    const auto outcomes = sim::run_fleet(mixed_fleet());
    for (const auto& outcome : outcomes) {
      expected_steps += outcome.control_steps;
    }
  }
  EXPECT_EQ(recorder.metrics().counter("sim.fleet.buildings"), 3u);
  EXPECT_EQ(recorder.metrics().counter("sim.fleet.steps"), expected_steps);
}

// --- JSON codec -----------------------------------------------------------

TEST(ScenarioCodec, RoundTripsEveryFieldCombination) {
  std::vector<ScenarioSpec> specs;
  for (const auto building :
       {BuildingKind::kPaperHall, BuildingKind::kGrid, BuildingKind::kCampus}) {
    for (const auto season : {Season::kPaper, Season::kWinter, Season::kSummer,
                              Season::kShoulder}) {
      for (const auto occupancy : {OccupancyRegime::kPaper,
                                   OccupancyRegime::kQuiet,
                                   OccupancyRegime::kBusy}) {
        for (const auto hvac : {HvacRegime::kPaper, HvacRegime::kFixedSupply,
                                HvacRegime::kEco}) {
          ScenarioSpec spec;
          spec.name = "sweep_" + std::to_string(specs.size());
          spec.building = building;
          spec.sensors = 17;
          spec.halls = 3;
          spec.sensors_per_hall = 9;
          spec.season = season;
          spec.occupancy = occupancy;
          spec.hvac = hvac;
          spec.days = 5 + specs.size() % 7;
          spec.failure_days = specs.size() % 3;
          spec.dropout = 0.04 + 0.001 * static_cast<double>(specs.size() % 5);
          spec.seed = 0x9E3779B97F4A7C15ull * (specs.size() + 1);
          specs.push_back(spec);
        }
      }
    }
  }
  for (const auto& spec : specs) {
    const auto text = sim::scenario_to_json(spec);
    const auto decoded = serve::scenario_from_json(json::parse(text));
    EXPECT_EQ(decoded, spec) << text;
  }
}

TEST(ScenarioCodec, SeedsBeyondDoublePrecisionRoundTripAsStrings) {
  ScenarioSpec spec;
  spec.seed = 0xFFFFFFFFFFFFFFFFull;  // far beyond 2^53
  const auto text = sim::scenario_to_json(spec);
  EXPECT_NE(text.find("\"seed\": \"18446744073709551615\""),
            std::string::npos);
  EXPECT_EQ(serve::scenario_from_json(json::parse(text)), spec);

  // Small seeds stay plain JSON numbers.
  spec.seed = 1234;
  EXPECT_NE(sim::scenario_to_json(spec).find("\"seed\": 1234"),
            std::string::npos);
}

TEST(ScenarioCodec, DropoutSurvivesShortestRoundTripFormatting) {
  ScenarioSpec spec;
  spec.dropout = 0.04;
  EXPECT_NE(sim::scenario_to_json(spec).find("\"dropout\": 0.04"),
            std::string::npos);
  spec.dropout = 1.0 / 3.0;
  EXPECT_EQ(serve::scenario_from_json(json::parse(sim::scenario_to_json(spec)))
                .dropout,
            1.0 / 3.0);
}

void expect_codec_error(const std::string& body,
                        const std::string& needle) {
  try {
    (void)serve::scenario_from_json(json::parse(body));
    FAIL() << "expected invalid_argument for " << body;
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
        << e.what();
  }
}

TEST(ScenarioCodec, UnknownAndMistypedKeysNameTheOffender) {
  expect_codec_error(R"({"dayz": 3})", "unknown key 'dayz'");
  expect_codec_error(R"({"days": "three"})", "'days'");
  expect_codec_error(R"({"days": 2.5})", "'days'");
  expect_codec_error(R"({"name": 7})", "'name' must be a string");
  expect_codec_error(R"({"building": "igloo"})", "paper|grid|campus");
  expect_codec_error(R"({"season": "monsoon"})", "'season'");
  expect_codec_error(R"({"occupancy": 3})", "'occupancy'");
  expect_codec_error(R"({"hvac": "steam"})", "'hvac'");
  expect_codec_error(R"({"dropout": "lots"})", "'dropout'");
  expect_codec_error(R"({"seed": -1})", "'seed'");
  expect_codec_error(R"({"seed": 18446744073709551615})", "2^53");
  expect_codec_error(R"({"seed": "12x"})", "'seed'");
  expect_codec_error(R"([1, 2])", "JSON object");
  // Values the spec's own validate() rejects surface too.
  expect_codec_error(R"({"days": 0})", "days");
}

TEST(SimulateRequest, SingleScenarioShorthand) {
  const auto request = serve::simulate_request_from_json(
      json::parse(R"({"name": "solo", "days": 4, "failure_days": 1})"));
  ASSERT_EQ(request.specs.size(), 1u);
  EXPECT_EQ(request.specs[0].name, "solo");
  EXPECT_EQ(request.specs[0].days, 4u);
  EXPECT_EQ(request.specs[0].seed, ScenarioSpec{}.seed);
  EXPECT_TRUE(request.out_dir.empty());
}

TEST(SimulateRequest, FleetEnvelopeDerivesMissingSeeds) {
  const auto request = serve::simulate_request_from_json(json::parse(R"({
    "base_seed": 99, "out_dir": "corpus",
    "scenarios": [
      {"name": "a", "days": 2, "failure_days": 0},
      {"name": "b", "days": 2, "failure_days": 0, "seed": 5},
      {"name": "c", "days": 2, "failure_days": 0}
    ]})"));
  ASSERT_EQ(request.specs.size(), 3u);
  EXPECT_EQ(request.out_dir, "corpus");
  EXPECT_EQ(request.specs[0].seed, sim::derive_entity_seed(99, 0));
  EXPECT_EQ(request.specs[1].seed, 5u);  // explicit seed wins
  EXPECT_EQ(request.specs[2].seed, sim::derive_entity_seed(99, 2));
  EXPECT_NE(request.specs[0].seed, request.specs[2].seed);
}

TEST(SimulateRequest, FleetErrorsCarryTheScenarioIndex) {
  try {
    (void)serve::simulate_request_from_json(json::parse(
        R"({"scenarios": [{"name": "ok", "days": 1, "failure_days": 0},)"
        R"({"name": "bad", "dayz": 1}]})"));
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("scenarios[1]"), std::string::npos) << what;
    EXPECT_NE(what.find("dayz"), std::string::npos) << what;
  }
}

TEST(SimulateRequest, RejectsBadEnvelopes) {
  EXPECT_THROW((void)serve::simulate_request_from_json(
                   json::parse(R"({"scenarios": {}})")),
               std::invalid_argument);
  EXPECT_THROW((void)serve::simulate_request_from_json(
                   json::parse(R"({"scenarios": []})")),
               std::invalid_argument);
  EXPECT_THROW((void)serve::simulate_request_from_json(
                   json::parse(R"({"scenarios": [], "nope": 1})")),
               std::invalid_argument);
  EXPECT_THROW((void)serve::simulate_request_from_json(json::parse("3")),
               std::invalid_argument);
}

// --- Seed derivation ------------------------------------------------------

TEST(SeedDerivation, SplitmixStreamsAreDistinctAndStable) {
  // Pinned values: the derivation contract is part of the file format —
  // a fleet file without explicit seeds must reproduce the same corpus
  // forever.
  EXPECT_EQ(sim::derive_entity_seed(0, 0), sim::splitmix64(0));
  EXPECT_NE(sim::derive_entity_seed(1, 0), sim::derive_entity_seed(0, 0));
  EXPECT_NE(sim::derive_entity_seed(0, 1), sim::derive_entity_seed(0, 0));
  std::vector<std::uint64_t> seeds;
  for (std::uint64_t i = 0; i < 64; ++i) {
    seeds.push_back(sim::derive_entity_seed(42, i));
  }
  std::sort(seeds.begin(), seeds.end());
  EXPECT_EQ(std::adjacent_find(seeds.begin(), seeds.end()), seeds.end());
}

}  // namespace
