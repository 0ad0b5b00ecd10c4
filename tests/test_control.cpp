// Tests for the model-based HVAC control extension: controller decisions
// and closed-loop behavior against the zonal plant.

#include "auditherm/control/controllers.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>

#include "auditherm/control/closed_loop.hpp"
#include "auditherm/core/pipeline.hpp"
#include "auditherm/sim/dataset.hpp"

namespace control = auditherm::control;
namespace hvac = auditherm::hvac;
namespace sim = auditherm::sim;
namespace sysid = auditherm::sysid;
namespace linalg = auditherm::linalg;
using linalg::Matrix;
using linalg::Vector;

namespace {

constexpr auto kNoon = 12 * 60;
constexpr auto kMidnight = 0;

/// A hand-built stable model over two sensors with the extended input
/// layout [f1..f4, supply, occupants, lighting, ambient]: supply air
/// drives temperature toward the supply temperature at a rate scaled by
/// flow, plus occupant heat.
sysid::ThermalModel toy_model() {
  const double a = 0.90;
  Matrix A{{a, 0.0}, {0.0, a}};
  Matrix B(2, 8);
  for (std::size_t s = 0; s < 2; ++s) {
    for (std::size_t v = 0; v < 4; ++v) B(s, v) = 0.0;  // flow alone: 0
    B(s, 4) = 0.10;   // supply temperature pull (crude but directional)
    B(s, 5) = 0.004;  // occupant heat
    B(s, 6) = 0.05;   // lighting
    B(s, 7) = 0.0;    // ambient (sealed)
  }
  return sysid::ThermalModel(sysid::ModelOrder::kFirst, A, {}, B, {1, 27},
                             {101, 102, 103, 104, 113, 110, 111, 112});
}

control::ControlContext context_at(auditherm::timeseries::Minutes t,
                                   Vector temps, double occupants = 0.0) {
  control::ControlContext ctx;
  ctx.time = t;
  ctx.sensor_temps_c = std::move(temps);
  ctx.exogenous_forecast = Matrix(8, 3);
  for (std::size_t k = 0; k < 8; ++k) {
    ctx.exogenous_forecast(k, 0) = occupants;
    ctx.exogenous_forecast(k, 1) = occupants > 0 ? 1.0 : 0.0;
    ctx.exogenous_forecast(k, 2) = 10.0;
  }
  return ctx;
}

}  // namespace

// ---------------------------------------------------------------------------
// RuleBasedController
// ---------------------------------------------------------------------------

TEST(RuleBased, TracksThermostatProgram) {
  control::RuleBasedController controller(hvac::ThermostatConfig{},
                                          hvac::Schedule{}, {40, 41});
  EXPECT_EQ(controller.sensor_ids(), (std::vector<int>{40, 41}));

  // Warm room at noon: cooling supply, flow above the base.
  auto cmd = controller.decide(context_at(kNoon, {24.0, 24.0}));
  EXPECT_DOUBLE_EQ(cmd.supply_temp_c,
                   hvac::ThermostatConfig{}.cooling_supply_c);
  EXPECT_GT(cmd.flow_per_vav_m3_s,
            hvac::ThermostatConfig{}.base_flow_m3_s - 1e-9);

  // Midnight: trickle.
  controller.reset();
  cmd = controller.decide(context_at(kMidnight, {24.0, 24.0}));
  EXPECT_NEAR(cmd.flow_per_vav_m3_s, hvac::VavConfig{}.min_flow_m3_s, 1e-6);
}

TEST(RuleBased, RequiresThermostats) {
  EXPECT_THROW(control::RuleBasedController(hvac::ThermostatConfig{},
                                            hvac::Schedule{}, {}),
               std::invalid_argument);
}

// ---------------------------------------------------------------------------
// ModelPredictiveController
// ---------------------------------------------------------------------------

TEST(Mpc, ValidatesConstruction) {
  EXPECT_THROW(
      control::ModelPredictiveController(toy_model(), 0, hvac::Schedule{}),
      std::invalid_argument);
  // Wrong input layout (paper inputs, no supply channel).
  Matrix A = Matrix::identity(1) * 0.9;
  Matrix B(1, 7);
  sysid::ThermalModel bad(sysid::ModelOrder::kFirst, A, {}, B, {1},
                          {101, 102, 103, 104, 110, 111, 112});
  EXPECT_THROW(
      control::ModelPredictiveController(bad, 4, hvac::Schedule{}),
      std::invalid_argument);
  control::MpcOptions empty;
  empty.flow_levels.clear();
  EXPECT_THROW(control::ModelPredictiveController(toy_model(), 4,
                                                  hvac::Schedule{}, empty),
               std::invalid_argument);
}

TEST(Mpc, CoolsAHotRoom) {
  control::ModelPredictiveController mpc(toy_model(), 4, hvac::Schedule{});
  const auto cmd = mpc.decide(context_at(kNoon, {26.0, 26.0}, 80.0));
  EXPECT_DOUBLE_EQ(cmd.supply_temp_c, 13.0);
  EXPECT_TRUE(std::isfinite(mpc.last_plan_cost()));
}

TEST(Mpc, HeatsAColdRoomAtVentilationFloor) {
  control::ModelPredictiveController mpc(toy_model(), 4, hvac::Schedule{});
  const auto cmd = mpc.decide(context_at(kNoon, {15.0, 15.0}, 0.0));
  EXPECT_DOUBLE_EQ(cmd.supply_temp_c, 28.0);
  EXPECT_DOUBLE_EQ(cmd.flow_per_vav_m3_s, 0.05);  // reheat at min airflow
}

TEST(Mpc, IdlesAtNight) {
  control::ModelPredictiveController mpc(toy_model(), 4, hvac::Schedule{});
  const auto cmd = mpc.decide(context_at(kMidnight, {26.0, 26.0}));
  EXPECT_DOUBLE_EQ(cmd.flow_per_vav_m3_s, 0.05);
  EXPECT_DOUBLE_EQ(cmd.supply_temp_c, 18.0);
}

TEST(Mpc, ValidatesContext) {
  control::ModelPredictiveController mpc(toy_model(), 4, hvac::Schedule{});
  auto ctx = context_at(kNoon, {21.0});  // wrong sensor count
  EXPECT_THROW((void)mpc.decide(ctx), std::invalid_argument);
  ctx = context_at(kNoon, {21.0, 21.0});
  ctx.exogenous_forecast = Matrix(0, 3);
  EXPECT_THROW((void)mpc.decide(ctx), std::invalid_argument);
}

TEST(Mpc, EnergyWeightThrottlesFlow) {
  // With a mildly warm room, a heavy energy price must pick less flow
  // than a free-energy objective.
  control::MpcOptions cheap;
  cheap.objective.energy_weight = 0.0;
  control::MpcOptions pricey;
  pricey.objective.energy_weight = 50.0;
  control::ModelPredictiveController mpc_cheap(toy_model(), 4,
                                               hvac::Schedule{}, cheap);
  control::ModelPredictiveController mpc_pricey(toy_model(), 4,
                                                hvac::Schedule{}, pricey);
  const auto ctx = context_at(kNoon, {22.4, 22.4}, 40.0);
  const auto cmd_cheap = mpc_cheap.decide(ctx);
  auto ctx2 = ctx;
  const auto cmd_pricey = mpc_pricey.decide(ctx2);
  EXPECT_LE(cmd_pricey.flow_per_vav_m3_s, cmd_cheap.flow_per_vav_m3_s);
}

// ---------------------------------------------------------------------------
// Closed loop
// ---------------------------------------------------------------------------

namespace {

control::ClosedLoopConfig small_loop() {
  control::ClosedLoopConfig config;
  config.days = 5;
  config.comfort_zones = {{3, 13, 23}, {26, 27, 32}};
  return config;
}

}  // namespace

TEST(ClosedLoop, RuleBaselineProducesSaneMetrics) {
  auto config = small_loop();
  control::RuleBasedController controller(hvac::ThermostatConfig{},
                                          config.schedule, {40, 41});
  const auto metrics = control::run_closed_loop(config, controller);
  EXPECT_GT(metrics.scored_samples, 10u);
  EXPECT_GE(metrics.comfort_violation_fraction, 0.0);
  EXPECT_LE(metrics.comfort_violation_fraction, 1.0);
  EXPECT_GT(metrics.coil_energy_kwh, 0.0);
  EXPECT_GT(metrics.fan_energy_kwh, 0.0);
  EXPECT_LT(metrics.mean_abs_deviation_c, 5.0);
}

TEST(ClosedLoop, DeterministicForSameSeed) {
  auto config = small_loop();
  control::RuleBasedController a(hvac::ThermostatConfig{}, config.schedule,
                                 {40, 41});
  control::RuleBasedController b(hvac::ThermostatConfig{}, config.schedule,
                                 {40, 41});
  const auto ma = control::run_closed_loop(config, a);
  const auto mb = control::run_closed_loop(config, b);
  EXPECT_DOUBLE_EQ(ma.coil_energy_kwh, mb.coil_energy_kwh);
  EXPECT_DOUBLE_EQ(ma.mean_abs_deviation_c, mb.mean_abs_deviation_c);
}

TEST(ClosedLoop, Validation) {
  auto config = small_loop();
  control::RuleBasedController controller(hvac::ThermostatConfig{},
                                          config.schedule, {40, 41});
  auto bad = config;
  bad.days = 0;
  EXPECT_THROW((void)control::run_closed_loop(bad, controller),
               std::invalid_argument);
  bad = config;
  bad.comfort_zones.clear();
  EXPECT_THROW((void)control::run_closed_loop(bad, controller),
               std::invalid_argument);
  bad = config;
  bad.comfort_zones = {{999}};
  EXPECT_THROW((void)control::run_closed_loop(bad, controller),
               std::invalid_argument);
}

TEST(ClosedLoop, MpcOnIdentifiedModelRuns) {
  // End-to-end: identify a reduced model from a dataset, then control the
  // plant with it.
  sim::DatasetConfig data_config;
  data_config.days = 42;
  data_config.failure_days = 6;
  const auto dataset = sim::generate_dataset(data_config);

  sysid::ModelEstimator estimator({3, 27}, dataset.extended_input_ids(),
                                  sysid::ModelOrder::kSecond);
  const auto mode_mask = dataset.schedule.mode_mask(dataset.trace.grid(),
                                                    hvac::Mode::kOccupied);
  const auto model = estimator.fit(dataset.trace, mode_mask);

  control::ModelPredictiveController mpc(model, dataset.plan.vav_count(),
                                         dataset.schedule);
  auto config = small_loop();
  const auto metrics = control::run_closed_loop(config, mpc);
  EXPECT_GT(metrics.scored_samples, 10u);
  EXPECT_LT(metrics.mean_abs_deviation_c, 4.0);
  EXPECT_TRUE(std::isfinite(metrics.total_energy_kwh()));
}

// --- Fleet-scored control ---------------------------------------------------

#include "auditherm/control/fleet_control.hpp"

TEST(FleetControl, LoopSeedFollowsTheEntitySeedContract) {
  // The PR-8 contract: building `index` of a fleet based at `base_seed`
  // scores under derive_entity_seed(base_seed, index), with the weather
  // and occupancy sub-seeds one derivation deeper. Pinning the derivation
  // keeps fleet-scored control runs reproducible per building.
  sim::ScenarioSpec spec;
  spec.name = "pin";
  for (const std::uint64_t base : {77ull, 12345ull}) {
    for (const std::size_t index : {std::size_t{0}, std::size_t{3}}) {
      const auto loop = control::fleet_loop_config(spec, base, index);
      EXPECT_EQ(loop.seed, sim::derive_entity_seed(base, index));
      EXPECT_EQ(loop.weather.seed, sim::derive_entity_seed(loop.seed, 1));
      EXPECT_EQ(loop.occupancy.seed, sim::derive_entity_seed(loop.seed, 2));
    }
  }
  // Distinct buildings never share a seed.
  EXPECT_NE(control::fleet_loop_config(spec, 77, 0).seed,
            control::fleet_loop_config(spec, 77, 1).seed);
}

TEST(FleetControl, LoopConfigComposesFromTheScenario) {
  sim::ScenarioSpec spec;
  spec.name = "winter";
  spec.season = sim::Season::kWinter;
  const auto loop = control::fleet_loop_config(spec, 77, 0, 5);
  const auto config = sim::scenario_config(spec);
  EXPECT_EQ(loop.days, 5u);
  EXPECT_EQ(loop.step, config.sample_step);
  EXPECT_EQ(loop.control_dt_s, config.control_dt_s);
  EXPECT_EQ(loop.weather.end_mean_c, config.weather.end_mean_c);
  // Sub-seeds are re-derived, not copied from the identification config.
  EXPECT_NE(loop.weather.seed, config.weather.seed);
  EXPECT_NE(loop.occupancy.seed, config.occupancy.seed);
}

TEST(FleetControl, InputPlanSwapsOnlyTheOccupancySlot) {
  sim::DatasetConfig config;
  config.days = 2;
  config.failure_days = 0;
  const auto dataset = sim::generate_dataset(config);
  const auto ids = dataset.extended_input_ids();

  const auto truth = control::fleet_input_plan(
      dataset, control::OccupancySource::kGroundTruth);
  EXPECT_TRUE(truth.pure_ground_truth());
  std::vector<auditherm::timeseries::ChannelId> truth_ids;
  for (const auto& slot : truth.slots) truth_ids.push_back(slot.channel);
  EXPECT_EQ(truth_ids, ids);

  const auto estimated = control::fleet_input_plan(
      dataset, control::OccupancySource::kCo2Estimated);
  ASSERT_EQ(estimated.slots.size(), ids.size());
  for (std::size_t s = 0; s < ids.size(); ++s) {
    if (ids[s] == sim::DatasetChannels::kOccupancy) {
      EXPECT_EQ(estimated.slots[s].source, sysid::InputSource::kCo2Estimated);
      EXPECT_EQ(estimated.slots[s].co2.vav_flows, dataset.vav_ids());
    } else {
      EXPECT_EQ(estimated.slots[s].source, sysid::InputSource::kGroundTruth);
      EXPECT_EQ(estimated.slots[s].channel, ids[s]);
    }
  }

  const auto prior = control::fleet_input_plan(
      dataset, control::OccupancySource::kSchedulePrior);
  const auto occ_slot = std::find_if(
      prior.slots.begin(), prior.slots.end(), [](const auto& slot) {
        return slot.source == sysid::InputSource::kSchedulePrior;
      });
  ASSERT_NE(occ_slot, prior.slots.end());
  EXPECT_GT(occ_slot->occupied_level, occ_slot->unoccupied_level);
}

TEST(FleetControl, RejectsNonPaperHallSpecs) {
  sim::ScenarioSpec spec;
  spec.name = "tower";
  spec.building = sim::BuildingKind::kGrid;
  try {
    (void)control::score_fleet_control({spec});
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& error) {
    EXPECT_NE(std::string(error.what()).find("tower"), std::string::npos);
  }
}

TEST(FleetControl, ScoringIsReproducibleAndGroundTruthHasZeroMae) {
  // Small spec + ground-truth occupancy keeps this fast; the estimated
  // path is exercised end-to-end by bench_occupancy_loop.
  sim::ScenarioSpec spec;
  spec.name = "small";
  spec.days = 12;
  spec.failure_days = 0;
  control::FleetControlOptions options;
  options.days = 2;
  options.occupancy = control::OccupancySource::kGroundTruth;

  const auto first = control::score_fleet_control({spec}, options);
  ASSERT_EQ(first.size(), 1u);
  EXPECT_EQ(first[0].loop_seed, sim::derive_entity_seed(options.base_seed, 0));
  EXPECT_EQ(first[0].occupancy_mae, 0.0);
  EXPECT_GE(first[0].zones, 2u);
  EXPECT_GT(first[0].thermostat.scored_samples, 0u);
  EXPECT_GT(first[0].mpc.scored_samples, 0u);
  EXPECT_TRUE(std::isfinite(first[0].mpc.total_energy_kwh()));

  const auto second = control::score_fleet_control({spec}, options);
  ASSERT_EQ(second.size(), 1u);
  EXPECT_EQ(first[0].mpc.mean_abs_deviation_c,
            second[0].mpc.mean_abs_deviation_c);
  EXPECT_EQ(first[0].mpc.total_energy_kwh(), second[0].mpc.total_energy_kwh());
  EXPECT_EQ(first[0].thermostat.comfort_violation_fraction,
            second[0].thermostat.comfort_violation_fraction);
}
