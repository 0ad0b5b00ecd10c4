// Tests for multi-step prediction evaluation: start scanning and the error
// statistics behind Table I / Figs. 3-5.

#include "auditherm/sysid/evaluation.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "auditherm/sysid/estimator.hpp"

namespace sysid = auditherm::sysid;
namespace ts = auditherm::timeseries;
namespace linalg = auditherm::linalg;
using linalg::Matrix;
using linalg::Vector;

namespace {

/// A perfectly identified scalar system so prediction errors are zero,
/// plus a trace that follows it exactly.
struct PerfectSetup {
  sysid::ThermalModel model;
  ts::MultiTrace trace;
};

PerfectSetup make_perfect(std::size_t n = 60) {
  const double a = 0.9, b = 0.5;
  sysid::ThermalModel model(sysid::ModelOrder::kFirst, Matrix{{a}}, {},
                            Matrix{{b}}, {1}, {101});
  ts::MultiTrace trace(ts::TimeGrid(0, 30, n), {1, 101});
  double x = 20.0;
  for (std::size_t k = 0; k < n; ++k) {
    const double u = (k % 7 == 0) ? 1.0 : 0.2;
    trace.set(k, 0, x);
    trace.set(k, 1, u);
    x = a * x + b * u;
  }
  return {std::move(model), std::move(trace)};
}

sysid::EvaluationOptions quick_options() {
  sysid::EvaluationOptions opts;
  opts.horizon_samples = 20;
  opts.min_steps = 2;
  return opts;
}

}  // namespace

TEST(PredictWindow, PerfectModelZeroError) {
  const auto setup = make_perfect();
  const ts::Segment window{0, 60};
  const auto wp = sysid::predict_window(setup.model, setup.trace, window,
                                        quick_options());
  ASSERT_TRUE(wp.has_value());
  EXPECT_EQ(wp->first_row, 1u);
  EXPECT_EQ(wp->predicted.rows(), 20u);
  for (std::size_t k = 0; k < wp->predicted.rows(); ++k) {
    EXPECT_NEAR(wp->predicted(k, 0), setup.trace.value(wp->first_row + k, 0),
                1e-10);
  }
}

TEST(PredictWindow, ScansPastMissingInitialState) {
  auto setup = make_perfect();
  setup.trace.clear(0, 0);
  setup.trace.clear(1, 0);
  const ts::Segment window{0, 60};
  const auto wp = sysid::predict_window(setup.model, setup.trace, window,
                                        quick_options());
  ASSERT_TRUE(wp.has_value());
  EXPECT_EQ(wp->first_row, 3u);  // starts after the first valid state row
}

TEST(PredictWindow, GivesUpWhenScanExhausted) {
  // The scan reaches 12 rows past the window's first: a valid state at
  // row 12 still starts the window, one at row 13 does not.
  auto setup = make_perfect();
  for (std::size_t k = 0; k < 12; ++k) setup.trace.clear(k, 0);
  const auto reached =
      sysid::predict_window(setup.model, setup.trace, {0, 60}, quick_options());
  ASSERT_TRUE(reached.has_value());
  EXPECT_EQ(reached->first_row, 13u);
  setup.trace.clear(12, 0);
  const auto wp =
      sysid::predict_window(setup.model, setup.trace, {0, 60}, quick_options());
  EXPECT_FALSE(wp.has_value());
}

TEST(PredictWindow, RespectsMinSteps) {
  const auto setup = make_perfect();
  auto opts = quick_options();
  opts.min_steps = 50;
  const auto wp =
      sysid::predict_window(setup.model, setup.trace, {0, 10}, opts);
  EXPECT_FALSE(wp.has_value());
}

TEST(PredictWindow, SecondOrderNeedsTwoValidRows) {
  const double a1 = 0.9, a2 = -0.1, b = 0.5;
  sysid::ThermalModel model(sysid::ModelOrder::kSecond, Matrix{{a1}},
                            Matrix{{a2}}, Matrix{{b}}, {1}, {101});
  ts::MultiTrace trace(ts::TimeGrid(0, 30, 20), {1, 101});
  double prev = 20.0, curr = 20.2;
  for (std::size_t k = 0; k < 20; ++k) {
    trace.set(k, 0, curr);
    trace.set(k, 1, 0.5);
    const double next = a1 * curr + a2 * (curr - prev) + b * 0.5;
    prev = curr;
    curr = next;
  }
  const auto wp =
      sysid::predict_window(model, trace, {0, 20}, quick_options());
  ASSERT_TRUE(wp.has_value());
  EXPECT_EQ(wp->first_row, 2u);  // rows 0 and 1 consumed as history
  for (std::size_t k = 0; k < wp->predicted.rows(); ++k) {
    EXPECT_NEAR(wp->predicted(k, 0), trace.value(wp->first_row + k, 0),
                1e-9);
  }
}

TEST(EvaluatePrediction, PerfectModelYieldsZeroRms) {
  const auto setup = make_perfect();
  const auto eval = sysid::evaluate_prediction(
      setup.model, setup.trace, {{0, 30}, {30, 60}}, quick_options());
  EXPECT_EQ(eval.window_count, 2u);
  EXPECT_NEAR(eval.pooled_rms, 0.0, 1e-10);
  EXPECT_NEAR(eval.channel_rms[0], 0.0, 1e-10);
}

TEST(EvaluatePrediction, BiasedModelHasExpectedError) {
  auto setup = make_perfect();
  // Bias the model's input gain: predictions drift from the trace.
  sysid::ThermalModel biased(sysid::ModelOrder::kFirst, Matrix{{0.9}}, {},
                             Matrix{{0.6}}, {1}, {101});
  const auto eval = sysid::evaluate_prediction(biased, setup.trace, {{0, 60}},
                                               quick_options());
  EXPECT_GT(eval.pooled_rms, 0.05);
}

TEST(EvaluatePrediction, SkipsMissingComparisons) {
  auto setup = make_perfect();
  // Punch measurement gaps inside the window; evaluation should still
  // produce (zero-error) statistics from the remaining samples, since the
  // state channel is only needed at the start and for comparisons.
  for (std::size_t k = 10; k < 15; ++k) setup.trace.clear(k, 0);
  const auto eval = sysid::evaluate_prediction(setup.model, setup.trace,
                                               {{0, 30}}, quick_options());
  EXPECT_EQ(eval.window_count, 1u);
  EXPECT_NEAR(eval.pooled_rms, 0.0, 1e-10);
}

TEST(EvaluatePrediction, ChannelRmsPercentileOrdering) {
  // Two channels, one with double the error of the other.
  sysid::ThermalModel model(sysid::ModelOrder::kFirst,
                            Matrix{{0.0, 0.0}, {0.0, 0.0}}, {},
                            Matrix{{1.0}, {1.0}}, {1, 2}, {101});
  ts::MultiTrace trace(ts::TimeGrid(0, 30, 20), {1, 2, 101});
  for (std::size_t k = 0; k < 20; ++k) {
    trace.set(k, 0, 1.1);  // model predicts exactly 1.0: error 0.1
    trace.set(k, 1, 1.2);  // error 0.2
    trace.set(k, 2, 1.0);
  }
  const auto eval = sysid::evaluate_prediction(model, trace, {{0, 20}},
                                               quick_options());
  EXPECT_NEAR(eval.channel_rms[0], 0.1, 1e-9);
  EXPECT_NEAR(eval.channel_rms[1], 0.2, 1e-9);
  EXPECT_NEAR(eval.channel_rms_percentile(100.0), 0.2, 1e-9);
  EXPECT_NEAR(eval.channel_rms_percentile(0.0), 0.1, 1e-9);
}

TEST(EvaluatePrediction, NoWindowsMeansNoSamples) {
  const auto setup = make_perfect();
  const auto eval = sysid::evaluate_prediction(setup.model, setup.trace, {},
                                               quick_options());
  EXPECT_EQ(eval.window_count, 0u);
  EXPECT_TRUE(std::isnan(eval.pooled_rms));
  EXPECT_THROW((void)eval.channel_rms_percentile(90.0), std::runtime_error);
}
