// Tests for the input-plan layer: TraceView derived channels, plan
// resolution (ground truth / CO2 estimate / schedule prior), the
// calibration fingerprint, the ground-truth bitwise no-op contract
// through the pipeline, and streaming agreement on augmented views.

#include "auditherm/sysid/input_plan.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "auditherm/core/pipeline.hpp"
#include "auditherm/core/split.hpp"
#include "auditherm/core/stage_cache.hpp"
#include "auditherm/obs/metrics.hpp"
#include "auditherm/obs/trace_span.hpp"
#include "auditherm/sim/dataset.hpp"
#include "auditherm/sysid/estimator.hpp"
#include "auditherm/sysid/streaming.hpp"
#include "auditherm/timeseries/multi_trace.hpp"
#include "auditherm/timeseries/trace_view.hpp"

namespace core = auditherm::core;
namespace obs = auditherm::obs;
namespace sim = auditherm::sim;
namespace sysid = auditherm::sysid;
namespace timeseries = auditherm::timeseries;
namespace linalg = auditherm::linalg;
namespace hvac = auditherm::hvac;

namespace {

// --- TraceView derived channels -------------------------------------------

/// 6-row, 2-channel trace with one gap.
timeseries::MultiTrace tiny_trace() {
  timeseries::MultiTrace trace(timeseries::TimeGrid(0, 30, 6), {1, 2});
  for (std::size_t k = 0; k < 6; ++k) {
    trace.set(k, 0, 10.0 + static_cast<double>(k));
    trace.set(k, 1, 20.0 + static_cast<double>(k));
  }
  trace.set(3, 1, std::numeric_limits<double>::quiet_NaN());
  return trace;
}

std::shared_ptr<const linalg::Vector> counting_column(std::size_t rows) {
  auto column = std::make_shared<linalg::Vector>(rows);
  for (std::size_t k = 0; k < rows; ++k) {
    (*column)[k] = 100.0 + static_cast<double>(k);
  }
  return column;
}

TEST(TraceViewDerived, WithChannelReadsAttachedColumn) {
  const auto trace = tiny_trace();
  const timeseries::TraceView base(trace);
  EXPECT_FALSE(base.channel_index(9));

  const auto view = base.with_channel(9, counting_column(6));
  EXPECT_EQ(view.channel_index(9), 2u);
  ASSERT_EQ(view.channel_count(), 3u);
  EXPECT_EQ(view.channels().back(), 9);
  const auto c = view.require_channel(9);
  for (std::size_t k = 0; k < view.size(); ++k) {
    EXPECT_EQ(view.value(k, c), 100.0 + static_cast<double>(k));
    EXPECT_TRUE(view.valid(k, c));
  }
  // Base channels read through unchanged.
  EXPECT_EQ(view.value(2, view.require_channel(1)), 12.0);
}

TEST(TraceViewDerived, ColumnIsIndexedBySourceRow) {
  const auto trace = tiny_trace();
  const timeseries::TraceView base(trace);
  const auto column = counting_column(6);

  // Attach-then-subset and subset-then-attach read identical samples.
  std::vector<bool> keep{true, false, true, false, true, true};
  const auto attached_first = base.with_channel(9, column).filter_rows(keep);
  const auto subset_first = base.filter_rows(keep).with_channel(9, column);
  ASSERT_EQ(attached_first.size(), subset_first.size());
  const auto ca = attached_first.require_channel(9);
  const auto cs = subset_first.require_channel(9);
  for (std::size_t k = 0; k < attached_first.size(); ++k) {
    EXPECT_EQ(attached_first.value(k, ca), subset_first.value(k, cs));
    EXPECT_EQ(attached_first.value(k, ca),
              (*column)[attached_first.source_row(k)]);
  }

  // Slices shift through the same source-row mapping.
  const auto sliced = base.with_channel(9, column).slice_rows(2, 5);
  const auto c = sliced.require_channel(9);
  EXPECT_EQ(sliced.value(0, c), 102.0);
  EXPECT_EQ(sliced.value(2, c), 104.0);
}

TEST(TraceViewDerived, SelectCanDropOrKeepDerivedChannels) {
  const auto trace = tiny_trace();
  const auto view =
      timeseries::TraceView(trace).with_channel(9, counting_column(6));

  const auto without = view.select_channels({1, 2});
  EXPECT_FALSE(without.channel_index(9));
  const auto with = view.select_channels({9, 1});
  EXPECT_EQ(with.channel_index(9), 0u);
  EXPECT_EQ(with.value(1, 0), 101.0);
  EXPECT_EQ(with.value(1, 1), 11.0);
}

TEST(TraceViewDerived, WithChannelValidatesItsArguments) {
  const auto trace = tiny_trace();
  const timeseries::TraceView base(trace);
  EXPECT_THROW((void)base.with_channel(1, counting_column(6)),
               std::invalid_argument);  // id exists
  EXPECT_THROW((void)base.with_channel(9, nullptr), std::invalid_argument);
  EXPECT_THROW((void)base.with_channel(9, counting_column(5)),
               std::invalid_argument);  // wrong row count
}

// --- Plan resolution -------------------------------------------------------

/// Shared small dataset (generation costs a few hundred ms).
const sim::AuditoriumDataset& dataset() {
  static const sim::AuditoriumDataset shared = [] {
    sim::DatasetConfig config;
    config.days = 14;
    config.failure_days = 2;
    return sim::generate_dataset(config);
  }();
  return shared;
}

const core::DataSplit& split() {
  static const core::DataSplit shared = core::split_dataset(
      dataset().trace, dataset().input_ids(), dataset().schedule,
      hvac::Mode::kOccupied);
  return shared;
}

/// Plan reading every listed channel literally.
sysid::InputPlan ground_truth_plan(
    const std::vector<timeseries::ChannelId>& ids) {
  sysid::InputPlan plan;
  for (const auto id : ids) {
    plan.slots.push_back(sysid::InputSlot::ground_truth(id));
  }
  return plan;
}

sysid::InputPlan estimated_plan() {
  sysid::InputPlan plan;
  for (const auto id : dataset().input_ids()) {
    if (id == sim::DatasetChannels::kOccupancy) {
      sysid::Co2Channels co2;
      co2.vav_flows = dataset().vav_ids();
      plan.slots.push_back(sysid::InputSlot::co2_estimated(co2));
    } else {
      plan.slots.push_back(sysid::InputSlot::ground_truth(id));
    }
  }
  return plan;
}

TEST(InputPlan, GroundTruthPlanResolvesToNoOp) {
  const auto plan = ground_truth_plan(dataset().input_ids());
  EXPECT_TRUE(plan.pure_ground_truth());

  const auto resolved =
      sysid::resolve_input_plan(plan, dataset().trace, split().train_mask);
  EXPECT_TRUE(resolved.pure_ground_truth());
  EXPECT_EQ(resolved.fingerprint, 0u);
  EXPECT_EQ(resolved.channel_ids, dataset().input_ids());
  // augment() returns the base view unchanged.
  const auto view = resolved.augment(dataset().trace);
  EXPECT_EQ(view.channels(), dataset().trace.channels());
}

TEST(InputPlan, Co2EstimatedMatchesManualCalibration) {
  const auto resolved = sysid::resolve_input_plan(
      estimated_plan(), dataset().trace, split().train_mask);
  EXPECT_FALSE(resolved.pure_ground_truth());
  EXPECT_NE(resolved.fingerprint, 0u);
  ASSERT_EQ(resolved.derived.size(), 1u);
  EXPECT_EQ(resolved.derived[0].id, sysid::kEstimatedOccupancyChannel);

  // The occupancy slot's position now carries the derived id.
  auto expected_ids = dataset().input_ids();
  for (auto& id : expected_ids) {
    if (id == sim::DatasetChannels::kOccupancy) {
      id = sysid::kEstimatedOccupancyChannel;
    }
  }
  EXPECT_EQ(resolved.channel_ids, expected_ids);

  // Bitwise equal to calibrating on the training rows and estimating over
  // the full trace by hand.
  sysid::Co2Channels co2;
  co2.vav_flows = dataset().vav_ids();
  sysid::Co2OccupancyEstimator estimator(co2);
  estimator.calibrate(
      timeseries::TraceView(dataset().trace).filter_rows(split().train_mask));
  const auto manual = estimator.estimate(dataset().trace);
  const auto& column = *resolved.derived[0].column;
  ASSERT_EQ(column.size(), manual.size());
  for (std::size_t k = 0; k < manual.size(); ++k) {
    if (std::isnan(manual[k])) {
      EXPECT_TRUE(std::isnan(column[k])) << "row " << k;
    } else {
      EXPECT_EQ(column[k], manual[k]) << "row " << k;
    }
  }

  // The augmented view exposes the derived channel to downstream readers.
  const auto view = resolved.augment(dataset().trace);
  const auto c = view.require_channel(sysid::kEstimatedOccupancyChannel);
  EXPECT_EQ(view.value(10, c), column[10]);
}

TEST(InputPlan, ClampAndRoundShapeTheEstimate) {
  auto plan = estimated_plan();
  for (auto& slot : plan.slots) {
    if (slot.source == sysid::InputSource::kCo2Estimated) {
      slot.clamp_max = 3.0;
      slot.round_to_integer = true;
    }
  }
  const auto resolved =
      sysid::resolve_input_plan(plan, dataset().trace, split().train_mask);
  const auto& column = *resolved.derived[0].column;
  for (const double v : column) {
    if (std::isnan(v)) continue;
    EXPECT_LE(v, 3.0);
    EXPECT_EQ(v, std::round(v));
  }

  // Options enter the fingerprint: same data, different plan options,
  // different keys.
  const auto plain = sysid::resolve_input_plan(
      estimated_plan(), dataset().trace, split().train_mask);
  EXPECT_NE(resolved.fingerprint, plain.fingerprint);
}

TEST(InputPlan, SchedulePriorIsTwoLevel) {
  sysid::InputPlan plan;
  plan.slots.push_back(sysid::InputSlot::ground_truth(
      sim::DatasetChannels::kAmbient));
  plan.slots.push_back(
      sysid::InputSlot::schedule_prior(dataset().schedule, 80.0, 0.0));
  const auto resolved =
      sysid::resolve_input_plan(plan, dataset().trace, split().train_mask);
  ASSERT_EQ(resolved.derived.size(), 1u);
  EXPECT_EQ(resolved.derived[0].id, sysid::kSchedulePriorChannel);
  const auto& column = *resolved.derived[0].column;
  const auto& grid = dataset().trace.grid();
  for (std::size_t k = 0; k < column.size(); ++k) {
    const bool occupied = dataset().schedule.occupied_at(grid[k]);
    EXPECT_EQ(column[k], occupied ? 80.0 : 0.0) << "row " << k;
  }
  EXPECT_NE(resolved.fingerprint, 0u);
}

TEST(InputPlan, FingerprintIsDeterministicAndSourceSensitive) {
  const auto a = sysid::resolve_input_plan(estimated_plan(), dataset().trace,
                                           split().train_mask);
  const auto b = sysid::resolve_input_plan(estimated_plan(), dataset().trace,
                                           split().train_mask);
  EXPECT_EQ(a.fingerprint, b.fingerprint);

  sysid::InputPlan schedule_plan;
  for (const auto id : dataset().input_ids()) {
    if (id == sim::DatasetChannels::kOccupancy) {
      schedule_plan.slots.push_back(
          sysid::InputSlot::schedule_prior(dataset().schedule, 80.0, 0.0));
    } else {
      schedule_plan.slots.push_back(sysid::InputSlot::ground_truth(id));
    }
  }
  const auto c = sysid::resolve_input_plan(schedule_plan, dataset().trace,
                                           split().train_mask);
  EXPECT_NE(a.fingerprint, c.fingerprint);

  // A different training mask recalibrates — the calibration fingerprint
  // moves with it.
  auto shifted = split().train_mask;
  std::size_t flipped = 0;
  for (std::size_t k = 0; k < shifted.size() && flipped < 48; ++k) {
    if (shifted[k]) {
      shifted[k] = false;
      ++flipped;
    }
  }
  const auto d =
      sysid::resolve_input_plan(estimated_plan(), dataset().trace, shifted);
  EXPECT_NE(a.fingerprint, d.fingerprint);
}

TEST(InputPlan, ResolveValidatesPlans) {
  const timeseries::TraceView view(dataset().trace);
  EXPECT_THROW(
      (void)sysid::resolve_input_plan({}, view, split().train_mask),
      std::invalid_argument);

  // Duplicate resolved ids.
  sysid::InputPlan duplicate;
  duplicate.slots.push_back(sysid::InputSlot::ground_truth(111));
  duplicate.slots.push_back(sysid::InputSlot::ground_truth(111));
  EXPECT_THROW(
      (void)sysid::resolve_input_plan(duplicate, view, split().train_mask),
      std::invalid_argument);

  // A derived id colliding with an existing trace channel.
  sysid::InputPlan collision;
  sysid::Co2Channels co2;
  co2.vav_flows = dataset().vav_ids();
  collision.slots.push_back(sysid::InputSlot::co2_estimated(
      co2, sim::DatasetChannels::kLighting));
  EXPECT_THROW(
      (void)sysid::resolve_input_plan(collision, view, split().train_mask),
      std::invalid_argument);

  // Training mask must match the trace rows.
  EXPECT_THROW((void)sysid::resolve_input_plan(
                   estimated_plan(), view,
                   std::vector<bool>(view.size() - 1, true)),
               std::invalid_argument);
}

// --- Pipeline integration --------------------------------------------------

core::PipelineConfig two_cluster_config() {
  core::PipelineConfig config;
  config.spectral.cluster_count = 2;
  return config;
}

TEST(InputPlanPipeline, GroundTruthPlanIsBitwiseNoOp) {
  const core::ThermalModelingPipeline pipeline(two_cluster_config());
  const auto baseline =
      pipeline.run(dataset().trace, dataset().schedule, split(),
                   dataset().wireless_ids(), dataset().input_ids(), {});

  const auto plan = ground_truth_plan(dataset().input_ids());
  core::RunOptions options;
  options.input_plan = &plan;
  const auto planned =
      pipeline.run(dataset().trace, dataset().schedule, split(),
                   dataset().wireless_ids(), dataset().input_ids(), options);

  EXPECT_EQ(planned.selection.flattened(), baseline.selection.flattened());
  EXPECT_EQ(planned.reduced_eval.pooled_rms, baseline.reduced_eval.pooled_rms);
  const auto& a = baseline.reduced_model.b();
  const auto& b = planned.reduced_model.b();
  ASSERT_EQ(a.rows(), b.rows());
  ASSERT_EQ(a.cols(), b.cols());
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t j = 0; j < a.cols(); ++j) {
      EXPECT_EQ(a(i, j), b(i, j));
    }
  }
}

TEST(InputPlanPipeline, EstimatedPlanRunsAndNeverAliasesCachedStages) {
  const core::ThermalModelingPipeline pipeline(two_cluster_config());
  core::StageCache cache;
  core::RunOptions truth_options;
  truth_options.cache = &cache;
  const auto truth =
      pipeline.run(dataset().trace, dataset().schedule, split(),
                   dataset().wireless_ids(), dataset().input_ids(),
                   truth_options);
  const auto misses_after_truth = cache.totals().misses;

  // A different input source must key its own stages, not reuse truth's.
  const auto plan = estimated_plan();
  core::RunOptions estimated_options;
  estimated_options.cache = &cache;
  estimated_options.input_plan = &plan;
  const auto estimated =
      pipeline.run(dataset().trace, dataset().schedule, split(),
                   dataset().wireless_ids(), dataset().input_ids(),
                   estimated_options);
  EXPECT_GT(cache.totals().misses, misses_after_truth);
  EXPECT_TRUE(std::isfinite(estimated.reduced_eval.pooled_rms));
  EXPECT_NE(estimated.reduced_model.input_channels(),
            truth.reduced_model.input_channels());

  // Re-running the estimated plan is deterministic: pure cache hits.
  const auto misses_after_estimated = cache.totals().misses;
  const auto repeat =
      pipeline.run(dataset().trace, dataset().schedule, split(),
                   dataset().wireless_ids(), dataset().input_ids(),
                   estimated_options);
  EXPECT_EQ(cache.totals().misses, misses_after_estimated);
  EXPECT_EQ(repeat.reduced_eval.pooled_rms,
            estimated.reduced_eval.pooled_rms);
}

TEST(InputPlanPipeline, StreamingMatchesBatchOnTheAugmentedView) {
  const auto resolved = sysid::resolve_input_plan(
      estimated_plan(), dataset().trace, split().train_mask);
  const auto full = resolved.augment(dataset().trace);
  const auto states = dataset().thermostat_ids();
  const auto fit_mask = core::and_masks(
      split().train_mask,
      dataset().schedule.mode_mask(dataset().trace.grid(),
                                   hvac::Mode::kOccupied));

  sysid::ModelEstimator batch(states, resolved.channel_ids,
                              sysid::ModelOrder::kSecond);
  const auto batch_model = batch.fit(full, fit_mask);

  sysid::StreamingEstimator streaming(states, resolved.channel_ids,
                                      sysid::ModelOrder::kSecond);
  streaming.push_trace(full, fit_mask);
  ASSERT_TRUE(streaming.has_model());
  const auto& online = streaming.model();
  const auto check = [](const linalg::Matrix& x, const linalg::Matrix& y) {
    ASSERT_EQ(x.rows(), y.rows());
    ASSERT_EQ(x.cols(), y.cols());
    for (std::size_t i = 0; i < x.rows(); ++i) {
      for (std::size_t j = 0; j < x.cols(); ++j) {
        EXPECT_NEAR(x(i, j), y(i, j), 1e-8);
      }
    }
  };
  check(online.a(), batch_model.a());
  check(online.a2(), batch_model.a2());
  check(online.b(), batch_model.b());
}

TEST(InputPlanObs, ResolutionEmitsSpansAndSourceCounters) {
  if (!obs::kCompiledIn) GTEST_SKIP() << "observability compiled out";
  obs::Recorder recorder;
  {
    const obs::RecorderScope scope(&recorder);
    (void)sysid::resolve_input_plan(estimated_plan(), dataset().trace,
                                    split().train_mask);
  }
  const auto snapshot = recorder.metrics().snapshot();
  std::size_t estimated = 0, truth = 0;
  for (const auto& [name, value] : snapshot.counters) {
    if (name == "sysid.input_plan.co2_estimated") estimated = value;
    if (name == "sysid.input_plan.ground_truth") truth = value;
  }
  EXPECT_EQ(estimated, 1u);
  EXPECT_EQ(truth, dataset().input_ids().size() - 1);
  bool saw_resolve_span = false;
  for (const auto& span : recorder.spans()) {
    if (span.name == "sysid.input_plan.resolve") saw_resolve_span = true;
  }
  EXPECT_TRUE(saw_resolve_span);
}

}  // namespace
