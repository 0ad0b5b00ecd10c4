// Tests for sysid::StreamingEstimator and the core streaming entry point:
// per-window agreement with the batch estimator, NaN-gap handling, drift
// detection, the window AIC, and thread-count bitwise pins.

#include "auditherm/sysid/streaming.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <random>
#include <stdexcept>
#include <vector>

#include "auditherm/core/parallel.hpp"
#include "auditherm/core/pipeline.hpp"
#include "auditherm/sysid/diagnostics.hpp"
#include "auditherm/sysid/estimator.hpp"
#include "auditherm/timeseries/multi_trace.hpp"

namespace core = auditherm::core;
namespace linalg = auditherm::linalg;
namespace sysid = auditherm::sysid;
namespace timeseries = auditherm::timeseries;

namespace {

const std::vector<timeseries::ChannelId> kStates{40, 41};
const std::vector<timeseries::ChannelId> kInputs{101, 110};

/// A stable second-order plant; `hot` doubles the input coupling and
/// shifts the dynamics (the regime-switch scenario).
struct Plant {
  double a11 = 0.70, a12 = 0.12, a21 = 0.08, a22 = 0.75;
  double d1 = 0.10, d2 = 0.08;
  double b11 = 0.020, b12 = 0.40, b21 = 0.015, b22 = 0.30;

  static Plant nominal() { return {}; }
  static Plant shifted() {
    Plant p;
    p.a11 = 0.55;
    p.a22 = 0.60;
    p.b11 = 0.060;
    p.b21 = 0.050;
    p.b12 = 0.90;
    p.b22 = 0.70;
    return p;
  }
};

/// Simulate `rows` samples: states T1,T2 on channels 40/41, inputs (VAV
/// flow, occupancy) on 101/110. `switch_at` swaps the plant mid-stream;
/// 0 = never.
timeseries::MultiTrace make_trace(std::size_t rows, std::uint64_t seed,
                                  std::size_t switch_at = 0) {
  std::vector<timeseries::ChannelId> channels{40, 41, 101, 110};
  timeseries::MultiTrace trace(timeseries::TimeGrid(0, 30, rows), channels);
  std::mt19937_64 rng(seed);
  std::normal_distribution<double> noise(0.0, 0.05);
  double t1 = 21.0, t2 = 22.0, p1 = 21.0, p2 = 22.0;
  for (std::size_t k = 0; k < rows; ++k) {
    const Plant plant = (switch_at != 0 && k >= switch_at) ? Plant::shifted()
                                                           : Plant::nominal();
    const double flow = 1.5 + std::sin(0.13 * static_cast<double>(k)) +
                        0.2 * noise(rng);
    const double occ = (k % 48) < 30 ? 60.0 + 5.0 * noise(rng) : 2.0;
    trace.set(k, 0, t1);
    trace.set(k, 1, t2);
    trace.set(k, 2, flow);
    trace.set(k, 3, occ);
    const double d1 = t1 - p1, d2 = t2 - p2;
    const double n1 = plant.a11 * t1 + plant.a12 * t2 + plant.d1 * d1 +
                      plant.b11 * occ + plant.b12 * flow + 3.0 + noise(rng);
    const double n2 = plant.a21 * t1 + plant.a22 * t2 + plant.d2 * d2 +
                      plant.b21 * occ + plant.b22 * flow + 3.5 + noise(rng);
    p1 = t1;
    p2 = t2;
    t1 = n1;
    t2 = n2;
  }
  return trace;
}

/// Push rows [0, upto) of `trace` into a fresh estimator.
sysid::StreamingEstimator stream_prefix(const timeseries::TraceView& view,
                                        std::size_t upto,
                                        const sysid::StreamingOptions& opts,
                                        sysid::ModelOrder order) {
  sysid::StreamingEstimator est(kStates, kInputs, order, opts);
  est.push_trace(view.slice_rows(0, upto));
  return est;
}

double max_model_diff(const sysid::ThermalModel& x,
                      const sysid::ThermalModel& y) {
  double diff = 0.0;
  const auto acc = [&](const linalg::Matrix& a, const linalg::Matrix& b) {
    for (std::size_t i = 0; i < a.rows(); ++i) {
      for (std::size_t j = 0; j < a.cols(); ++j) {
        diff = std::max(diff, std::abs(a(i, j) - b(i, j)));
      }
    }
  };
  acc(x.a(), y.a());
  acc(x.b(), y.b());
  if (x.order() == sysid::ModelOrder::kSecond) acc(x.a2(), y.a2());
  return diff;
}

}  // namespace

TEST(Streaming, SlidingWindowMatchesBatchOnEveryWindow) {
  const auto trace = make_trace(600, 11);
  const timeseries::TraceView view(trace);
  const std::size_t window = 120;
  sysid::StreamingOptions opts;
  opts.window_rows = window;
  opts.drift.enabled = false;

  for (const auto order :
       {sysid::ModelOrder::kFirst, sysid::ModelOrder::kSecond}) {
    sysid::StreamingEstimator est(kStates, kInputs, order, opts);
    const sysid::ModelEstimator batch(kStates, kInputs, order);
    linalg::Vector states(2), inputs(2);
    std::size_t compared = 0;
    for (std::size_t k = 0; k < view.size(); ++k) {
      states[0] = view.value(k, 0);
      states[1] = view.value(k, 1);
      inputs[0] = view.value(k, 2);
      inputs[1] = view.value(k, 3);
      est.push(states, inputs);
      if (k >= window && k % 10 == 0) {
        ASSERT_TRUE(est.has_model()) << "row " << k;
        const auto batch_model =
            batch.fit(view.slice_rows(k + 1 - window, k + 1));
        EXPECT_LT(max_model_diff(est.model(), batch_model), 1e-8)
            << "row " << k;
        ++compared;
      }
    }
    EXPECT_GE(compared, 40u);
  }
}

TEST(Streaming, GrowingWindowMatchesFullBatchFit) {
  const auto trace = make_trace(400, 12);
  const timeseries::TraceView view(trace);
  sysid::StreamingOptions opts;  // window_rows = 0: growing
  opts.drift.enabled = false;
  const auto est = stream_prefix(view, 400, opts, sysid::ModelOrder::kSecond);
  EXPECT_EQ(est.window_transitions(), est.stats().transitions);
  const sysid::ModelEstimator batch(kStates, kInputs,
                                    sysid::ModelOrder::kSecond);
  EXPECT_LT(max_model_diff(est.model(), batch.fit(view)), 1e-8);
}

TEST(Streaming, NanGapsMatchBatchSegmentMask) {
  auto trace = make_trace(500, 13);
  // Three gaps: a state dropout, an input dropout, and a full outage.
  for (std::size_t k = 120; k < 131; ++k) trace.clear(k, 0);
  for (std::size_t k = 260; k < 265; ++k) trace.clear(k, 3);
  for (std::size_t k = 350; k < 370; ++k) {
    for (std::size_t c = 0; c < 4; ++c) trace.clear(k, c);
  }
  const timeseries::TraceView view(trace);
  const std::size_t window = 150;
  sysid::StreamingOptions opts;
  opts.window_rows = window;
  opts.drift.enabled = false;
  const sysid::ModelEstimator batch(kStates, kInputs,
                                    sysid::ModelOrder::kSecond);
  for (const std::size_t upto : {200u, 300u, 380u, 500u}) {
    const auto est =
        stream_prefix(view, upto, opts, sysid::ModelOrder::kSecond);
    const auto batch_view = view.slice_rows(upto - window, upto);
    const auto summary = batch.summarize(batch_view);
    EXPECT_EQ(est.window_transitions(), summary.transitions)
        << "upto " << upto;
    EXPECT_LT(max_model_diff(est.model(), batch.fit(batch_view)), 1e-8)
        << "upto " << upto;
  }
}

TEST(Streaming, RowFilterActsAsGap) {
  const auto trace = make_trace(300, 14);
  const timeseries::TraceView view(trace);
  std::vector<bool> filter(view.size(), true);
  for (std::size_t k = 100; k < 140; ++k) filter[k] = false;
  sysid::StreamingOptions opts;
  opts.drift.enabled = false;
  sysid::StreamingEstimator est(kStates, kInputs, sysid::ModelOrder::kSecond,
                                opts);
  est.push_trace(view, filter);
  const sysid::ModelEstimator batch(kStates, kInputs,
                                    sysid::ModelOrder::kSecond);
  EXPECT_LT(max_model_diff(est.model(), batch.fit(view, filter)), 1e-8);
}

TEST(Streaming, BitwiseDeterministicAtAnyThreadCount) {
  const auto trace = make_trace(800, 16, 500);
  const timeseries::TraceView view(trace);
  sysid::StreamingOptions opts;
  opts.window_rows = 192;

  std::vector<std::vector<double>> params_by_threads;
  std::vector<std::vector<std::size_t>> drift_rows_by_threads;
  for (const std::size_t threads : {1u, 2u, 4u, 8u}) {
    core::ThreadCountScope scope(threads);
    sysid::StreamingEstimator est(kStates, kInputs,
                                  sysid::ModelOrder::kSecond, opts);
    est.push_trace(view);
    std::vector<double> params;
    const auto& m = est.model();
    const auto flatten = [&](const linalg::Matrix& a) {
      for (std::size_t i = 0; i < a.rows(); ++i) {
        for (std::size_t j = 0; j < a.cols(); ++j) params.push_back(a(i, j));
      }
    };
    flatten(m.a());
    flatten(m.a2());
    flatten(m.b());
    params.push_back(est.cusum_statistic());
    params_by_threads.push_back(std::move(params));
    std::vector<std::size_t> rows;
    for (const auto& e : est.drift_events()) rows.push_back(e.row);
    drift_rows_by_threads.push_back(std::move(rows));
  }
  for (std::size_t i = 1; i < params_by_threads.size(); ++i) {
    // Bitwise: exact double equality, not approximate.
    EXPECT_EQ(params_by_threads[i], params_by_threads[0]);
    EXPECT_EQ(drift_rows_by_threads[i], drift_rows_by_threads[0]);
  }
}

TEST(Streaming, DriftDetectorFiresOnRegimeSwitchOnly) {
  const std::size_t switch_at = 1000;
  const auto switched = make_trace(2000, 17, switch_at);
  sysid::StreamingOptions opts;
  opts.window_rows = 240;
  sysid::StreamingEstimator est(kStates, kInputs, sysid::ModelOrder::kSecond,
                                opts);
  est.push_trace(timeseries::TraceView(switched));
  ASSERT_FALSE(est.drift_events().empty());
  for (const auto& event : est.drift_events()) {
    EXPECT_GT(event.row, switch_at);
  }
  // Detection latency: flagged within ~5 days of transitions.
  EXPECT_LT(est.drift_events().front().row, switch_at + 240);

  // The stationary twin stays silent.
  const auto stationary = make_trace(2000, 17);
  sysid::StreamingEstimator quiet(kStates, kInputs,
                                  sysid::ModelOrder::kSecond, opts);
  quiet.push_trace(timeseries::TraceView(stationary));
  EXPECT_TRUE(quiet.drift_events().empty());
}

TEST(Streaming, StatsCountersAddUp) {
  const auto trace = make_trace(400, 18);
  sysid::StreamingOptions opts;
  opts.window_rows = 100;
  opts.drift.enabled = false;
  sysid::StreamingEstimator est(kStates, kInputs, sysid::ModelOrder::kSecond,
                                opts);
  est.push_trace(timeseries::TraceView(trace));
  const auto& s = est.stats();
  EXPECT_EQ(s.rows_pushed, 400u);
  // The trace has no gaps: every row from the third on is the target of a
  // second-order transition, and a 100-row window holds 98 of them.
  EXPECT_EQ(s.transitions, 398u);
  EXPECT_EQ(est.window_transitions(), 98u);
}

TEST(Streaming, AicPrefersTrueOrder) {
  // Second-order data: the second-order window fit must win the AIC
  // comparison (the online order-selection use case).
  const auto trace = make_trace(500, 19);
  const timeseries::TraceView view(trace);
  sysid::StreamingOptions opts;
  opts.drift.enabled = false;
  const auto first =
      stream_prefix(view, 500, opts, sysid::ModelOrder::kFirst);
  const auto second =
      stream_prefix(view, 500, opts, sysid::ModelOrder::kSecond);
  EXPECT_LT(second.aic(), first.aic());
}

TEST(Streaming, AicIsTheCriterionOfTheBatchFitOverTheWindow) {
  // aic() scores the window model's own one-step residuals, so it equals
  // the same criterion evaluated on a fresh batch fit of the window rows —
  // also when the regression is rank-deficient (a duplicated input
  // column), where the residual a factorization tracks depends on its
  // update history rather than on the window.
  const auto trace = make_trace(600, 21);
  const timeseries::TraceView view(trace);
  const auto batch_aic = [](const sysid::ThermalModel& model,
                            const timeseries::TraceView& rows) {
    const auto diag = sysid::diagnose_fit(model, rows);
    const double n = static_cast<double>(diag.transitions);
    const double p = static_cast<double>(model.state_count());
    double rss = 0.0;
    for (const double s : diag.residual_std) rss += s * s * n;
    return n * p * std::log(rss / (n * p)) +
           2.0 * static_cast<double>(diag.parameters) * p;
  };
  const std::vector<timeseries::ChannelId> duplicated{101, 110, 101};
  for (const auto& inputs : {kInputs, duplicated}) {
    for (const std::size_t window : {0u, 120u}) {
      sysid::StreamingOptions opts;
      opts.window_rows = window;
      opts.drift.enabled = false;
      sysid::StreamingEstimator est(kStates, inputs,
                                    sysid::ModelOrder::kSecond, opts);
      est.push_trace(view);
      const auto rows =
          window == 0 ? view : view.slice_rows(view.size() - window,
                                               view.size());
      const sysid::ModelEstimator batch(kStates, inputs,
                                        sysid::ModelOrder::kSecond);
      const double expected = batch_aic(batch.fit(rows), rows);
      EXPECT_NEAR(est.aic(), expected, 1e-9 * std::abs(expected))
          << inputs.size() << " inputs, window " << window;
    }
  }
}

TEST(Streaming, ArgumentChecks) {
  EXPECT_THROW(sysid::StreamingEstimator({}, kInputs,
                                         sysid::ModelOrder::kFirst),
               std::invalid_argument);
  EXPECT_THROW(sysid::StreamingEstimator(kStates, {},
                                         sysid::ModelOrder::kFirst),
               std::invalid_argument);
  sysid::StreamingOptions tiny;
  tiny.window_rows = 3;  // second order needs history 2 + target + 1 more
  EXPECT_THROW(sysid::StreamingEstimator(kStates, kInputs,
                                         sysid::ModelOrder::kSecond, tiny),
               std::invalid_argument);
  sysid::StreamingEstimator est(kStates, kInputs, sysid::ModelOrder::kSecond);
  EXPECT_THROW(est.push(linalg::Vector{1.0}, linalg::Vector{1.0, 2.0}),
               std::invalid_argument);
  EXPECT_THROW((void)est.model(), std::runtime_error);
  EXPECT_THROW((void)est.aic(), std::runtime_error);
}

TEST(Streaming, CoreEntryPointRuns) {
  const auto trace = make_trace(700, 20, 400);
  core::StreamingRunConfig config;
  config.streaming.window_rows = 192;
  const auto result = core::run_streaming_identification(
      timeseries::TraceView(trace), kStates, kInputs, config);
  EXPECT_EQ(result.stats.rows_pushed, 700u);
  EXPECT_TRUE(result.has_model);
  EXPECT_GT(result.window_transitions, 0u);
  EXPECT_TRUE(std::isfinite(result.aic));
  // The regime switch at row 400 must be flagged.
  ASSERT_FALSE(result.drift_events.empty());
  EXPECT_GT(result.drift_events.front().row, 400u);
}

TEST(Streaming, ModelAppearsAtTheMinimumTransitionCount) {
  // The streaming window shares the batch estimator's rule: a second-order
  // model over 2 states and 2 inputs has 6 parameters per row, so the
  // window needs min_transitions(6) = 24 transitions before it has a model.
  const auto trace = make_trace(60, 5);
  const timeseries::TraceView view(trace);
  sysid::StreamingOptions opts;
  opts.drift.enabled = false;
  sysid::StreamingEstimator est(kStates, kInputs, sysid::ModelOrder::kSecond,
                                opts);
  ASSERT_EQ(sysid::min_transitions(6), 24u);
  linalg::Vector states(2), inputs(2);
  for (std::size_t k = 0; k < view.size(); ++k) {
    states[0] = view.value(k, 0);
    states[1] = view.value(k, 1);
    inputs[0] = view.value(k, 2);
    inputs[1] = view.value(k, 3);
    est.push(states, inputs);
    EXPECT_EQ(est.has_model(), est.window_transitions() >= 24u) << "row " << k;
  }
  EXPECT_TRUE(est.has_model());
}
