// Tests for cross-channel trace statistics with gaps.

#include "auditherm/timeseries/trace_stats.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <random>

#include "auditherm/linalg/decompositions.hpp"
#include "auditherm/linalg/stats.hpp"
#include "support/oracles.hpp"

namespace ts = auditherm::timeseries;
namespace linalg = auditherm::linalg;
namespace support = auditherm::test_support;
using ts::MultiTrace;
using ts::TimeGrid;

namespace {

/// Three channels: 1 and 2 perfectly correlated, 3 anti-correlated with 1;
/// channel 2 has a gap at row 2.
MultiTrace make_trace() {
  MultiTrace trace(TimeGrid(0, 1, 5), {1, 2, 3});
  const double x[5] = {1.0, 2.0, 3.0, 4.0, 5.0};
  for (std::size_t k = 0; k < 5; ++k) {
    trace.set(k, 0, x[k]);
    if (k != 2) trace.set(k, 1, 2.0 * x[k] + 1.0);
    trace.set(k, 2, -x[k] + 10.0);
  }
  return trace;
}

}  // namespace

TEST(TraceStats, CorrelationMatrixValues) {
  const auto corr = ts::correlation_matrix(make_trace());
  EXPECT_DOUBLE_EQ(corr(0, 0), 1.0);
  EXPECT_NEAR(corr(0, 1), 1.0, 1e-12);   // pairwise-complete, gap skipped
  EXPECT_NEAR(corr(0, 2), -1.0, 1e-12);
  EXPECT_NEAR(corr(1, 2), -1.0, 1e-12);
  EXPECT_DOUBLE_EQ(corr(0, 1), corr(1, 0));
}

TEST(TraceStats, CorrelationAgreesWithScalarKernel) {
  std::mt19937_64 rng(5);
  std::normal_distribution<double> d(0.0, 1.0);
  MultiTrace trace(TimeGrid(0, 1, 40), {1, 2});
  linalg::Vector a(40), b(40);
  for (std::size_t k = 0; k < 40; ++k) {
    a[k] = d(rng);
    b[k] = 0.5 * a[k] + d(rng);
    trace.set(k, 0, a[k]);
    trace.set(k, 1, b[k]);
  }
  const auto corr = ts::correlation_matrix(trace);
  EXPECT_NEAR(corr(0, 1), support::pearson_correlation(a, b), 1e-10);
}

TEST(TraceStats, CovarianceMatrixIsPsdOnCompleteData) {
  std::mt19937_64 rng(6);
  std::normal_distribution<double> d(0.0, 1.0);
  MultiTrace trace(TimeGrid(0, 1, 60), {1, 2, 3, 4});
  for (std::size_t k = 0; k < 60; ++k)
    for (std::size_t c = 0; c < 4; ++c) trace.set(k, c, d(rng));
  const auto cov = ts::covariance_matrix(trace);
  const auto eig = support::eigen_symmetric(cov);
  for (double lambda : eig.eigenvalues) EXPECT_GE(lambda, -1e-10);
}

TEST(TraceStats, RmsDistance) {
  MultiTrace trace(TimeGrid(0, 1, 3), {1, 2});
  for (std::size_t k = 0; k < 3; ++k) {
    trace.set(k, 0, 0.0);
    trace.set(k, 1, 2.0);
  }
  const auto dist = ts::rms_distance_matrix(trace);
  EXPECT_DOUBLE_EQ(dist(0, 1), 2.0);
  EXPECT_DOUBLE_EQ(dist(0, 0), 0.0);
}

TEST(TraceStats, RmsDistanceInfiniteWithoutSharedRows) {
  MultiTrace trace(TimeGrid(0, 1, 2), {1, 2});
  trace.set(0, 0, 1.0);
  trace.set(1, 1, 2.0);  // never both valid
  const auto dist = ts::rms_distance_matrix(trace);
  EXPECT_TRUE(std::isinf(dist(0, 1)));
}

TEST(TraceStats, ChannelMeans) {
  const auto means = ts::channel_means(make_trace());
  EXPECT_DOUBLE_EQ(means[0], 3.0);
  EXPECT_DOUBLE_EQ(means[1], (3.0 + 5.0 + 9.0 + 11.0) / 4.0);
}

TEST(TraceStats, ChannelMeansNaNForEmptyChannel) {
  MultiTrace trace(TimeGrid(0, 1, 2), {1, 2});
  trace.set(0, 0, 5.0);
  const auto means = ts::channel_means(trace);
  EXPECT_DOUBLE_EQ(means[0], 5.0);
  EXPECT_TRUE(std::isnan(means[1]));
}

TEST(TraceStats, MaxAbsDifference) {
  const auto trace = make_trace();
  // |x - (-x + 10)| = |2x - 10| maxed at x=1 or 5 -> 8... wait: x=1 -> 8,
  // x=5 -> 0. Max is 8.
  EXPECT_DOUBLE_EQ(ts::max_abs_difference(trace, 1, 3), 8.0);
  EXPECT_THROW((void)ts::max_abs_difference(trace, 1, 99),
               std::invalid_argument);
}

TEST(TraceStats, MaxAbsDifferenceNaNWithoutSharedRows) {
  MultiTrace trace(TimeGrid(0, 1, 2), {1, 2});
  trace.set(0, 0, 1.0);
  trace.set(1, 1, 2.0);
  EXPECT_TRUE(std::isnan(ts::max_abs_difference(trace, 1, 2)));
}

TEST(TraceStats, PairwiseMaxDifferencesCountsPairs) {
  const auto trace = make_trace();
  const auto diffs = ts::pairwise_max_differences(trace, {1, 2, 3});
  EXPECT_EQ(diffs.size(), 3u);  // 3 unordered pairs, all with shared rows
  for (double d : diffs) EXPECT_GE(d, 0.0);
}
