// Integration tests for the three-step pipeline on simulated datasets.

#include "auditherm/core/pipeline.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>

#include "auditherm/sim/dataset.hpp"

namespace core = auditherm::core;
namespace sim = auditherm::sim;
namespace hvac = auditherm::hvac;
namespace selection = auditherm::selection;

namespace {

/// One shared small dataset for all pipeline tests (generation costs a
/// few hundred ms).
const sim::AuditoriumDataset& dataset() {
  static const sim::AuditoriumDataset ds = [] {
    sim::DatasetConfig config;
    config.days = 56;
    config.failure_days = 10;
    return sim::generate_dataset(config);
  }();
  return ds;
}

core::DataSplit make_split() {
  const auto& ds = dataset();
  auto required = ds.sensor_ids();
  const auto inputs = ds.input_ids();
  required.insert(required.end(), inputs.begin(), inputs.end());
  return core::split_dataset(ds.trace, required, ds.schedule,
                             hvac::Mode::kOccupied);
}

core::PipelineResult run_with(core::SelectionStrategy strategy,
                              std::size_t per_cluster = 1,
                              std::size_t threads = 0) {
  const auto& ds = dataset();
  core::PipelineConfig config;
  config.strategy = strategy;
  config.sensors_per_cluster = per_cluster;
  const core::ThreadCountScope scope(threads);
  const core::ThermalModelingPipeline pipeline(config);
  return pipeline.run(ds.trace, ds.schedule, make_split(), ds.wireless_ids(),
                      ds.input_ids(),
                      core::RunOptions{.thermostat_ids = ds.thermostat_ids()});
}

/// Bitwise comparison of full pipeline results: every float is compared
/// with == (no tolerances), which is the determinism guarantee the
/// parallel runtime makes.
void expect_bitwise_equal(const core::PipelineResult& a,
                          const core::PipelineResult& b,
                          const std::string& label) {
  SCOPED_TRACE(label);
  EXPECT_EQ(a.clustering.labels, b.clustering.labels);
  EXPECT_EQ(a.clustering.cluster_count, b.clustering.cluster_count);
  EXPECT_EQ(a.clustering.eigenvalues, b.clustering.eigenvalues);
  EXPECT_EQ(a.selection.per_cluster, b.selection.per_cluster);
  EXPECT_EQ(a.reduced_model.a(), b.reduced_model.a());
  EXPECT_EQ(a.reduced_model.a2(), b.reduced_model.a2());
  EXPECT_EQ(a.reduced_model.b(), b.reduced_model.b());
  EXPECT_EQ(a.reduced_eval.window_count, b.reduced_eval.window_count);
  EXPECT_EQ(a.reduced_eval.channel_rms, b.reduced_eval.channel_rms);
  EXPECT_EQ(a.reduced_eval.window_channel_rms, b.reduced_eval.window_channel_rms);
  EXPECT_EQ(a.reduced_eval.pooled_rms, b.reduced_eval.pooled_rms);
  EXPECT_EQ(a.cluster_mean_errors.per_cluster_abs,
            b.cluster_mean_errors.per_cluster_abs);
}

}  // namespace

TEST(Pipeline, SmsEndToEnd) {
  const auto result = run_with(core::SelectionStrategy::kStratifiedNearMean);

  // Clustering covers every wireless sensor exactly once.
  EXPECT_GE(result.clustering.cluster_count, 2u);
  std::size_t covered = 0;
  for (const auto& cluster : result.clustering.clusters()) {
    covered += cluster.size();
    EXPECT_FALSE(cluster.empty());
  }
  EXPECT_EQ(covered, dataset().wireless_ids().size());

  // Selection stays within each cluster.
  const auto clusters = result.clustering.clusters();
  for (std::size_t c = 0; c < clusters.size(); ++c) {
    ASSERT_EQ(result.selection.per_cluster[c].size(), 1u);
    EXPECT_NE(std::find(clusters[c].begin(), clusters[c].end(),
                        result.selection.per_cluster[c][0]),
              clusters[c].end());
  }

  // Reduced model states are exactly the selected sensors.
  EXPECT_EQ(result.reduced_model.state_channels(),
            result.selection.flattened());

  // Errors exist and are finite, modest magnitudes.
  EXPECT_GT(result.reduced_eval.window_count, 3u);
  EXPECT_TRUE(std::isfinite(result.reduced_eval.pooled_rms));
  const double p99 = result.cluster_mean_errors.percentile(99.0);
  EXPECT_GT(p99, 0.0);
  EXPECT_LT(p99, 5.0);
}

TEST(Pipeline, RecoversFrontBackClusters) {
  // With correlation similarity and the eigengap rule, the dataset
  // reproduces the paper's two-zone split: front sensors
  // {3,6,7,8,13,14,17,23,28,33,38} vs the rest. On this shortened 56-day
  // dataset a couple of boundary sensors may flip, so we require strong
  // (not perfect) agreement; the full-length benches recover it exactly.
  const auto result = run_with(core::SelectionStrategy::kStratifiedNearMean);
  ASSERT_EQ(result.clustering.cluster_count, 2u);
  const std::vector<int> front{3, 6, 7, 8, 13, 14, 17, 23, 28, 33, 38};
  const auto front_label = result.clustering.cluster_of(3);
  std::size_t agree = 0;
  for (int id : dataset().wireless_ids()) {
    const bool expect_front =
        std::find(front.begin(), front.end(), id) != front.end();
    const bool is_front = result.clustering.cluster_of(id) == front_label;
    agree += (expect_front == is_front) ? 1 : 0;
  }
  EXPECT_GE(agree, 21u) << "only " << agree << "/25 sensors on the expected "
                        << "side of the front/back split";
}

TEST(Pipeline, AllStrategiesRun) {
  for (auto strategy : {core::SelectionStrategy::kStratifiedNearMean,
                        core::SelectionStrategy::kStratifiedRandom,
                        core::SelectionStrategy::kSimpleRandom,
                        core::SelectionStrategy::kThermostats,
                        core::SelectionStrategy::kGaussianProcess}) {
    const auto result = run_with(strategy);
    EXPECT_EQ(result.selection.per_cluster.size(),
              result.clustering.cluster_count);
    EXPECT_NO_THROW((void)result.cluster_mean_errors.percentile(99.0));
  }
}

TEST(Pipeline, ThermostatStrategyUsesThermostats) {
  const auto result = run_with(core::SelectionStrategy::kThermostats);
  for (const auto& chosen : result.selection.per_cluster) {
    for (int id : chosen) {
      EXPECT_TRUE(id == 40 || id == 41);
    }
  }
}

TEST(Pipeline, MultipleSensorsPerCluster) {
  const auto result =
      run_with(core::SelectionStrategy::kStratifiedNearMean, 2);
  for (const auto& chosen : result.selection.per_cluster) {
    EXPECT_GE(chosen.size(), 1u);
    EXPECT_LE(chosen.size(), 2u);
  }
  EXPECT_GE(result.reduced_model.state_count(), result.selection.per_cluster.size());
}

TEST(Pipeline, DeterministicForSameConfig) {
  const auto a = run_with(core::SelectionStrategy::kStratifiedNearMean);
  const auto b = run_with(core::SelectionStrategy::kStratifiedNearMean);
  EXPECT_EQ(a.clustering.labels, b.clustering.labels);
  EXPECT_EQ(a.selection.flattened(), b.selection.flattened());
  EXPECT_DOUBLE_EQ(a.cluster_mean_errors.percentile(99.0),
                   b.cluster_mean_errors.percentile(99.0));
}

TEST(Pipeline, BitwiseIdenticalAcrossThreadCounts) {
  // The determinism guarantee of the parallel runtime, end to end: the
  // full three-step pipeline — models, cluster labels, selections, error
  // samples — is bitwise identical at 1, 2, and 8 threads.
  for (auto strategy : {core::SelectionStrategy::kStratifiedNearMean,
                        core::SelectionStrategy::kSimpleRandom}) {
    const auto serial = run_with(strategy, 1, 1);
    const auto two = run_with(strategy, 1, 2);
    const auto eight = run_with(strategy, 1, 8);
    expect_bitwise_equal(serial, two, "1 vs 2 threads");
    expect_bitwise_equal(serial, eight, "1 vs 8 threads");
  }
}

TEST(Pipeline, StrategySweepMatchesIndividualRuns) {
  const auto& ds = dataset();
  const core::PipelineConfig base;
  const std::vector<core::SweepCase> cases{
      {core::SelectionStrategy::kStratifiedNearMean, 7},
      {core::SelectionStrategy::kStratifiedRandom, 1},
      {core::SelectionStrategy::kStratifiedRandom, 2},
      {core::SelectionStrategy::kSimpleRandom, 1},
  };
  std::vector<core::PipelineResult> sweep;
  {
    const core::ThreadCountScope scope(4);
    sweep = core::run_strategy_sweep(
        base, cases, ds.trace, ds.schedule, make_split(), ds.wireless_ids(),
        ds.input_ids(),
        core::RunOptions{.thermostat_ids = ds.thermostat_ids()});
  }
  ASSERT_EQ(sweep.size(), cases.size());
  const core::ThreadCountScope serial(1);
  for (std::size_t i = 0; i < cases.size(); ++i) {
    core::PipelineConfig config;
    config.strategy = cases[i].strategy;
    config.selection_seed = cases[i].seed;
    const core::ThermalModelingPipeline pipeline(config);
    const auto individual = pipeline.run(
        ds.trace, ds.schedule, make_split(), ds.wireless_ids(), ds.input_ids(),
        core::RunOptions{.thermostat_ids = ds.thermostat_ids()});
    expect_bitwise_equal(sweep[i], individual,
                         "sweep case " + std::to_string(i));
  }
}

TEST(Pipeline, ConfigValidation) {
  core::PipelineConfig bad;
  bad.sensors_per_cluster = 0;
  EXPECT_THROW(core::ThermalModelingPipeline{bad}, std::invalid_argument);
}
