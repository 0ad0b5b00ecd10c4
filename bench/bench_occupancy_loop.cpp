// Closed-loop payoff of the input-plan layer (extension E4), two studies:
//
//  (1) Estimated-vs-truth identification: run the full pipeline with the
//      occupancy input swapped from the ground-truth channel to the CO2
//      mass-balance estimate, across several CO2 sensor noise levels, and
//      measure what the swap costs in held-out prediction error.
//  (2) Fleet control frontier: certainty-equivalent MPC planning on a
//      model identified with *estimated* occupancy, scored on comfort vs
//      energy against each building's own thermostat rule across three
//      ScenarioSpec regimes (score_fleet_control).
//
// Writes BENCH_occupancy_loop.json with the CI perf-smoke gates:
// estimated_pipeline_ok, max_rms_delta, mpc_energy_ok, mpc_comfort_ok; the
// exit code is nonzero when any of them fails.

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hpp"

using namespace auditherm;

namespace {

// Deterministic standard normal from the splitmix64 counter stream
// (Box-Muller on two stream draws per sample); keeps the noise study
// reproducible across platforms, unlike std::normal_distribution.
double gaussian(std::uint64_t seed, std::uint64_t k) {
  const auto uniform = [](std::uint64_t x) {
    return (static_cast<double>(sim::splitmix64(x) >> 11) + 0.5) /
           9007199254740992.0;  // (0, 1), 53-bit
  };
  const double u = uniform(seed + 2 * k);
  const double v = uniform(seed + 2 * k + 1);
  return std::sqrt(-2.0 * std::log(u)) *
         std::cos(2.0 * 3.14159265358979323846 * v);
}

/// The trace with extra zero-mean noise on the CO2 channel (clamped at
/// zero ppm); everything else untouched.
timeseries::MultiTrace with_co2_noise(const timeseries::MultiTrace& trace,
                                      double std_ppm, std::uint64_t seed) {
  timeseries::MultiTrace noisy = trace;
  const auto c = noisy.require_channel(sim::DatasetChannels::kCo2);
  for (std::size_t k = 0; k < noisy.size(); ++k) {
    if (!noisy.valid(k, c)) continue;
    noisy.set(k, c,
              std::max(0.0, noisy.value(k, c) + std_ppm * gaussian(seed, k)));
  }
  return noisy;
}

/// The paper input block with the occupancy slot fed by the CO2 estimate.
sysid::InputPlan estimated_plan(const sim::AuditoriumDataset& dataset) {
  sysid::InputPlan plan;
  for (const auto id : dataset.input_ids()) {
    if (id == sim::DatasetChannels::kOccupancy) {
      sysid::Co2Channels co2;
      co2.vav_flows = dataset.vav_ids();
      plan.slots.push_back(sysid::InputSlot::co2_estimated(co2));
    } else {
      plan.slots.push_back(sysid::InputSlot::ground_truth(id));
    }
  }
  return plan;
}

}  // namespace

int main() {
  const bench::ObsSession obs_session;
  bench::print_header(
      "Extension E4: occupancy input plans in the identification loop");
  const auto dataset = bench::make_standard_dataset();
  const auto split = bench::standard_split(dataset);
  const core::ThermalModelingPipeline pipeline{core::PipelineConfig{}};

  // --- Study 1: estimated-vs-truth identification across CO2 noise. ---
  const auto truth_result =
      pipeline.run(dataset.trace, dataset.schedule, split,
                   dataset.wireless_ids(), dataset.input_ids(), {});
  const double truth_rms = truth_result.reduced_eval.pooled_rms;
  std::printf("ground-truth occupancy: validation pooled RMS %.3f degC\n\n",
              truth_rms);

  const std::vector<double> noise_levels{0.0, 10.0, 25.0, 50.0};
  const auto plan = estimated_plan(dataset);
  std::vector<bench::JsonObject> noise_rows;
  double max_rms_delta = 0.0;
  bool estimated_ok = true;
  std::printf("%-14s %12s %14s %12s\n", "CO2 noise", "occ MAE", "est RMS",
              "RMS delta");
  for (std::size_t i = 0; i < noise_levels.size(); ++i) {
    const double level = noise_levels[i];
    const auto noisy =
        with_co2_noise(dataset.trace, level, 0xE4 + i);
    const auto resolved =
        sysid::resolve_input_plan(plan, noisy, split.train_mask);
    double occ_mae = 0.0;
    for (const auto& derived : resolved.derived) {
      if (derived.id == sysid::kEstimatedOccupancyChannel) {
        occ_mae = sysid::occupancy_mae(
            noisy, sim::DatasetChannels::kOccupancy, *derived.column);
      }
    }
    core::RunOptions options;
    options.input_plan = &plan;
    const auto result =
        pipeline.run(noisy, dataset.schedule, split, dataset.wireless_ids(),
                     dataset.input_ids(), options);
    const double est_rms = result.reduced_eval.pooled_rms;
    const double delta = est_rms - truth_rms;
    max_rms_delta = bench::max_nan(max_rms_delta, std::abs(delta));
    estimated_ok = estimated_ok && std::isfinite(est_rms) && est_rms > 0.0;
    std::printf("%8.0f ppm %10.2f p %12.3f C %+10.3f C\n", level, occ_mae,
                est_rms, delta);
    noise_rows.push_back(bench::JsonObject()
                             .add("noise_ppm", level)
                             .add("occupancy_mae", occ_mae)
                             .add("estimated_rms", est_rms)
                             .add("rms_delta", delta));
  }

  // --- Study 2: MPC-vs-thermostat frontier across fleet regimes. ---
  std::vector<sim::ScenarioSpec> specs(3);
  specs[0].name = "paper-hall";
  specs[1].name = "busy-winter";
  specs[1].season = sim::Season::kWinter;
  specs[1].occupancy = sim::OccupancyRegime::kBusy;
  specs[2].name = "quiet-eco";
  specs[2].occupancy = sim::OccupancyRegime::kQuiet;
  specs[2].hvac = sim::HvacRegime::kEco;
  for (auto& spec : specs) {
    spec.days = 28;
    spec.failure_days = 4;
  }

  control::FleetControlOptions fleet_options;
  fleet_options.days = 7;  // one scoring week per building
  const auto cases = control::score_fleet_control(specs, fleet_options);

  std::printf("\n%-12s %5s %8s | %22s | %22s\n", "scenario", "zones",
              "occ MAE", "thermostat (viol%, kWh)", "MPC (viol%, kWh)");
  std::vector<bench::JsonObject> fleet_rows;
  bool mpc_energy_ok = true;
  bool mpc_comfort_ok = true;
  for (const auto& c : cases) {
    std::printf("%-12s %5zu %6.1f p | %9.1f%% %10.0f | %9.1f%% %10.0f\n",
                c.spec.name.c_str(), c.zones, c.occupancy_mae,
                100.0 * c.thermostat.comfort_violation_fraction,
                c.thermostat.total_energy_kwh(),
                100.0 * c.mpc.comfort_violation_fraction,
                c.mpc.total_energy_kwh());
    mpc_energy_ok = mpc_energy_ok && c.mpc.total_energy_kwh() <=
                                         c.thermostat.total_energy_kwh();
    // Comfort stays no worse than the rule (small slack for ties).
    mpc_comfort_ok = mpc_comfort_ok &&
                     c.mpc.comfort_violation_fraction <=
                         c.thermostat.comfort_violation_fraction + 0.02;
    fleet_rows.push_back(
        bench::JsonObject()
            .add("name", c.spec.name)
            .add("zones", c.zones)
            .add("loop_seed", std::size_t{c.loop_seed})
            .add("occupancy_mae", c.occupancy_mae)
            .add("thermostat_violation",
                 c.thermostat.comfort_violation_fraction)
            .add("thermostat_energy_kwh", c.thermostat.total_energy_kwh())
            .add("mpc_violation", c.mpc.comfort_violation_fraction)
            .add("mpc_energy_kwh", c.mpc.total_energy_kwh()));
  }

  std::printf("\nshape checks: estimated pipeline completes: %s | max RMS "
              "delta %.3f degC | MPC energy <= rule: %s | MPC comfort ok: "
              "%s\n",
              estimated_ok ? "yes" : "NO", max_rms_delta,
              mpc_energy_ok ? "yes" : "NO", mpc_comfort_ok ? "yes" : "NO");

  auto json = bench::artifact("occupancy_loop", core::thread_count());
  json.add("truth_rms", truth_rms);
  json.add("noise_study", noise_rows);
  json.add("max_rms_delta", max_rms_delta);
  json.add("estimated_pipeline_ok", estimated_ok);
  json.add("fleet", fleet_rows);
  json.add("mpc_energy_ok", mpc_energy_ok);
  json.add("mpc_comfort_ok", mpc_comfort_ok);
  if (!bench::write_artifact(json, "BENCH_occupancy_loop.json")) return 1;
  // The same thresholds CI's perf-smoke job applies to the JSON; a NaN
  // delta fails the comparison.
  const bool ok = estimated_ok && max_rms_delta < 0.3 && mpc_energy_ok &&
                  mpc_comfort_ok;
  return ok ? 0 : 1;
}
