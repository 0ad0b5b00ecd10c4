// End-to-end shape tests: the paper's headline findings must hold on the
// simulated testbed (smaller dataset than the benches for test-suite
// speed, same machinery).

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <fstream>

#include "auditherm/auditherm.hpp"

using namespace auditherm;

namespace {

const sim::AuditoriumDataset& dataset() {
  static const sim::AuditoriumDataset ds = [] {
    sim::DatasetConfig config;
    config.days = 56;
    config.failure_days = 10;
    return sim::generate_dataset(config);
  }();
  return ds;
}

struct Context {
  core::DataSplit split;
  std::vector<bool> mode_mask;
  std::vector<timeseries::Segment> validation_windows;
};

Context make_context(hvac::Mode mode) {
  const auto& ds = dataset();
  auto required = ds.sensor_ids();
  const auto inputs = ds.input_ids();
  required.insert(required.end(), inputs.begin(), inputs.end());
  Context ctx;
  ctx.split = core::split_dataset(ds.trace, required, ds.schedule, mode);
  ctx.mode_mask = ds.schedule.mode_mask(ds.trace.grid(), mode);
  auto window_mask =
      core::and_masks(ctx.split.validation_mask, ctx.mode_mask);
  window_mask = core::and_masks(
      window_mask, timeseries::rows_with_all_valid(ds.trace, inputs));
  ctx.validation_windows = timeseries::find_segments(window_mask, 2);
  return ctx;
}

double p90_error(sysid::ModelOrder order, hvac::Mode mode) {
  const auto& ds = dataset();
  const auto ctx = make_context(mode);
  sysid::ModelEstimator estimator(ds.sensor_ids(), ds.input_ids(), order);
  const auto model = estimator.fit(
      ds.trace, core::and_masks(ctx.split.train_mask, ctx.mode_mask));
  sysid::EvaluationOptions opts;
  opts.horizon_samples = mode == hvac::Mode::kOccupied ? 27 : 18;
  const auto eval = sysid::evaluate_prediction(model, ds.trace,
                                               ctx.validation_windows, opts);
  return eval.channel_rms_percentile(90.0);
}

}  // namespace

TEST(Integration, UsableDayAccountingRoughlyMatchesPaperRatio) {
  // 56 days with 10 failure days: expect the usable count to land near
  // 56-10 (a few more may fall to dropout pileups).
  const auto ctx = make_context(hvac::Mode::kOccupied);
  EXPECT_GE(ctx.split.usable_days.size(), 38u);
  EXPECT_LE(ctx.split.usable_days.size(), 46u);
}

TEST(Integration, SecondOrderBeatsFirstOrderUnoccupied) {
  const double first = p90_error(sysid::ModelOrder::kFirst,
                                 hvac::Mode::kUnoccupied);
  const double second = p90_error(sysid::ModelOrder::kSecond,
                                  hvac::Mode::kUnoccupied);
  EXPECT_LT(second, first);
  EXPECT_LT(second, 0.6);  // sane absolute magnitude
}

TEST(Integration, ErrorsAreTolerableInOccupiedMode) {
  const double second = p90_error(sysid::ModelOrder::kSecond,
                                  hvac::Mode::kOccupied);
  EXPECT_LT(second, 1.2);
  EXPECT_GT(second, 0.05);  // and not implausibly perfect
}

TEST(Integration, CorrelationClusteringFindsTwoZones) {
  const auto& ds = dataset();
  const auto ctx = make_context(hvac::Mode::kOccupied);
  const auto training = ds.trace.filter_rows(
      core::and_masks(ctx.split.train_mask, ctx.mode_mask));
  const auto graph =
      clustering::build_similarity_graph(training, ds.wireless_ids());
  const auto result = clustering::spectral_cluster(graph);
  EXPECT_EQ(result.cluster_count, 2u);
}

TEST(Integration, SmsBeatsClusterBlindBaselines) {
  const auto& ds = dataset();
  const auto ctx = make_context(hvac::Mode::kOccupied);
  const auto training = ds.trace.filter_rows(
      core::and_masks(ctx.split.train_mask, ctx.mode_mask));
  const auto validation = ds.trace.filter_rows(
      core::and_masks(ctx.split.validation_mask, ctx.mode_mask));
  const auto graph =
      clustering::build_similarity_graph(training, ds.wireless_ids());
  const auto clusters = clustering::spectral_cluster(graph).clusters();

  const auto p99 = [&](const selection::Selection& sel) {
    return selection::evaluate_cluster_mean_prediction(validation, clusters,
                                                       sel)
        .percentile(99.0);
  };
  const double sms =
      p99(selection::stratified_near_mean(training, clusters));
  const double thermostats = p99(selection::thermostat_baseline(
      ds.thermostat_ids(), clusters.size()));
  double rs = 0.0;
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    rs += p99(selection::simple_random(training, clusters, seed));
  }
  rs /= 10.0;

  EXPECT_LT(sms, rs);
  EXPECT_LT(sms, thermostats);
  EXPECT_LT(sms, 0.8);  // SMS is genuinely tight, not just relatively better
}

TEST(Integration, CsvRoundTripOfGeneratedDataset) {
  const auto& ds = dataset();
  // Per-process name: ctest runs tests as parallel processes.
  const std::string path = ::testing::TempDir() + "/auditherm_dataset_" +
                           std::to_string(::getpid()) + ".csv";
  timeseries::write_csv_file(path, ds.trace);
  std::ifstream file(path);
  const auto loaded = timeseries::read_csv(file);
  EXPECT_EQ(loaded.grid(), ds.trace.grid());
  EXPECT_EQ(loaded.channels(), ds.trace.channels());
  EXPECT_NEAR(loaded.coverage(), ds.trace.coverage(), 1e-12);
  std::remove(path.c_str());
}
