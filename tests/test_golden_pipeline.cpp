// Golden end-to-end regression test on the standard 98-day dataset (the
// paper's Jan 31 - May 8 trace; 98 simulated days, ~34 failure days).
//
// The numbers pinned here are the repository's reproduced results for the
// paper's headline tables: the eigengap cluster count, the SMS/SRS/RS
// 99th-percentile cluster-mean errors (Table II), and the Table-I-style
// second-order fit residuals. Tolerances are wide enough for cross-platform
// libm variation but tight enough that a silent behavioral change in
// clustering, selection, identification, or evaluation fails loudly.
// If a deliberate algorithm change moves a number, update the constant in
// the same commit and say why.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "auditherm/clustering/spectral.hpp"
#include "auditherm/core/pipeline.hpp"
#include "auditherm/linalg/decompositions.hpp"
#include "auditherm/sim/dataset.hpp"
#include "auditherm/sysid/estimator.hpp"
#include "auditherm/sysid/evaluation.hpp"
#include "support/oracles.hpp"

namespace clustering = auditherm::clustering;
namespace core = auditherm::core;
namespace linalg = auditherm::linalg;
namespace sim = auditherm::sim;
namespace hvac = auditherm::hvac;
namespace sysid = auditherm::sysid;
namespace timeseries = auditherm::timeseries;
namespace support = auditherm::test_support;

namespace {

/// The standard evaluation dataset, shared across all golden tests
/// (generation is the expensive part).
const sim::AuditoriumDataset& dataset() {
  static const sim::AuditoriumDataset ds = [] {
    sim::DatasetConfig config;
    config.days = 98;
    config.failure_days = 34;
    return sim::generate_dataset(config);
  }();
  return ds;
}

core::DataSplit standard_split(hvac::Mode mode = hvac::Mode::kOccupied) {
  auto required = dataset().sensor_ids();
  const auto inputs = dataset().input_ids();
  required.insert(required.end(), inputs.begin(), inputs.end());
  return core::split_dataset(dataset().trace, required, dataset().schedule,
                             mode);
}

core::PipelineResult run_strategy(core::SelectionStrategy strategy) {
  core::PipelineConfig config;
  config.strategy = strategy;
  const core::ThermalModelingPipeline pipeline(config);
  return pipeline.run(
      dataset().trace, dataset().schedule, standard_split(),
      dataset().wireless_ids(), dataset().input_ids(),
      core::RunOptions{.thermostat_ids = dataset().thermostat_ids()});
}

/// Table-I-style fit residual: 90th-percentile per-sensor RMS of the
/// full-network model's open-loop prediction on validation days.
double fit_residual_p90(hvac::Mode mode, sysid::ModelOrder order) {
  const auto split = standard_split(mode);
  const auto mode_mask =
      dataset().schedule.mode_mask(dataset().trace.grid(), mode);
  sysid::ModelEstimator estimator(dataset().sensor_ids(),
                                  dataset().input_ids(), order);
  const auto model = estimator.fit(
      dataset().trace, core::and_masks(split.train_mask, mode_mask));
  sysid::EvaluationOptions opts;
  opts.horizon_samples = mode == hvac::Mode::kOccupied ? 27 : 18;
  auto mask = core::and_masks(split.validation_mask, mode_mask);
  mask = core::and_masks(mask, timeseries::rows_with_all_valid(
                                   dataset().trace, dataset().input_ids()));
  const auto windows = timeseries::find_segments(mask, 2);
  const auto eval =
      sysid::evaluate_prediction(model, dataset().trace, windows, opts);
  return eval.channel_rms_percentile(90.0);
}

}  // namespace

TEST(GoldenPipeline, EigengapFindsTheTwoZoneSplit) {
  const auto result = run_strategy(core::SelectionStrategy::kStratifiedNearMean);
  // The paper's log-eigengap rule picks k = 2 (front vs back zone).
  EXPECT_EQ(result.clustering.cluster_count, 2u);

  // With 34 failure days the correlation clustering puts 21 of the 25
  // wireless sensors on their ground-truth side of the front/back split
  // (boundary sensors land with the other zone). Pinned as a floor so a
  // regression in similarity or spectral embedding shows up.
  const std::vector<int> front{3, 6, 7, 8, 13, 14, 17, 23, 28, 33, 38};
  const auto front_label = result.clustering.cluster_of(3);
  std::size_t agree = 0;
  for (int id : dataset().wireless_ids()) {
    const bool expect_front =
        std::find(front.begin(), front.end(), id) != front.end();
    const bool is_front = result.clustering.cluster_of(id) == front_label;
    agree += (expect_front == is_front) ? 1 : 0;
  }
  EXPECT_GE(agree, 20u) << "only " << agree << "/25 sensors on the expected "
                        << "side of the front/back split";
}

TEST(GoldenPipeline, SpectrumMatchesTheJacobiOracleOnTheGoldenGraph) {
  // The 98-day run's own similarity graph: the spectrum the pipeline
  // computes (the dense partial solver at 25 sensors) must reproduce the
  // smallest pairs of the Jacobi oracle's full spectrum, and clustering on
  // the oracle must give the pipeline's labels exactly.
  const core::PipelineConfig config;
  const auto artifacts = core::ThermalModelingPipeline(config).prepare(
      dataset().trace, dataset().schedule, standard_split(),
      dataset().wireless_ids(), dataset().input_ids());
  const auto& graph = *artifacts.graph;
  const auto& spectrum = *artifacts.spectrum;
  const std::size_t n = graph.channels.size();
  const std::size_t pairs = clustering::needed_eigenpairs(config.spectral, n);
  ASSERT_EQ(n, 25u);
  ASSERT_EQ(spectrum.eigenvalues.size(), pairs);

  auto oracle = support::eigen_symmetric(
      clustering::normalized_laplacian(graph.weights));
  for (std::size_t j = 0; j < pairs; ++j) {
    EXPECT_NEAR(spectrum.eigenvalues[j], oracle.eigenvalues[j], 1e-10)
        << "pair " << j;
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_NEAR(spectrum.eigenvectors(i, j), oracle.eigenvectors(i, j),
                  1e-10)
          << "pair " << j << " component " << i;
    }
  }
  const auto from_oracle = clustering::spectral_cluster(
      graph,
      clustering::SpectralAnalysis{std::move(oracle.eigenvalues),
                                   std::move(oracle.eigenvectors)},
      config.spectral);
  EXPECT_EQ(from_oracle.cluster_count, artifacts.clustering->cluster_count);
  EXPECT_EQ(from_oracle.labels, artifacts.clustering->labels);
}

TEST(GoldenPipeline, SelectionStrategyErrorsStayPinned) {
  // Reproduced Table II ordering: SMS beats the random baselines.
  const double sms =
      run_strategy(core::SelectionStrategy::kStratifiedNearMean)
          .cluster_mean_errors.percentile(99.0);
  const double srs = run_strategy(core::SelectionStrategy::kStratifiedRandom)
                         .cluster_mean_errors.percentile(99.0);
  const double rs = run_strategy(core::SelectionStrategy::kSimpleRandom)
                        .cluster_mean_errors.percentile(99.0);

  // Golden values from the reference run (degC). Tolerances allow libm
  // variation across platforms but catch algorithmic drift.
  EXPECT_NEAR(sms, 2.017, 0.15);
  EXPECT_NEAR(srs, 3.025, 0.20);
  EXPECT_NEAR(rs, 2.298, 0.20);
  EXPECT_LT(sms, srs);
  EXPECT_LT(sms, rs);
}

TEST(GoldenPipeline, ReducedModelResidualsStayPinned) {
  const auto result = run_strategy(core::SelectionStrategy::kStratifiedNearMean);
  EXPECT_NEAR(result.reduced_eval.pooled_rms, 0.648, 0.08);
  EXPECT_GT(result.reduced_eval.window_count, 10u);
}

TEST(GoldenPipeline, TableOneFitResidualsStayPinned) {
  const double occ2 =
      fit_residual_p90(hvac::Mode::kOccupied, sysid::ModelOrder::kSecond);
  const double unocc2 =
      fit_residual_p90(hvac::Mode::kUnoccupied, sysid::ModelOrder::kSecond);
  EXPECT_NEAR(occ2, 0.389, 0.05);
  EXPECT_NEAR(unocc2, 0.181, 0.05);
  // Paper shape: the unoccupied night is easier to predict.
  EXPECT_LT(unocc2, occ2);
}
