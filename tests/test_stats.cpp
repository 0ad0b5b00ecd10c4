// Tests for the scalar statistics kernels, and for the Pearson
// correlation oracle that test_trace_stats checks correlation_matrix
// against.

#include "auditherm/linalg/stats.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <random>
#include <stdexcept>

#include "support/oracles.hpp"

namespace linalg = auditherm::linalg;
namespace support = auditherm::test_support;
using linalg::Vector;

TEST(Stats, EmptyInputsThrow) {
  EXPECT_THROW((void)linalg::percentile({}, 50.0), std::invalid_argument);
  EXPECT_THROW((void)linalg::empirical_cdf({}), std::invalid_argument);
}

TEST(Stats, PercentileInterpolates) {
  const Vector x{10.0, 20.0, 30.0, 40.0, 50.0};
  EXPECT_DOUBLE_EQ(linalg::percentile(x, 0.0), 10.0);
  EXPECT_DOUBLE_EQ(linalg::percentile(x, 100.0), 50.0);
  EXPECT_DOUBLE_EQ(linalg::percentile(x, 50.0), 30.0);
  EXPECT_DOUBLE_EQ(linalg::percentile(x, 25.0), 20.0);
  EXPECT_DOUBLE_EQ(linalg::percentile(x, 90.0), 46.0);  // MATLAB prctile
}

TEST(Stats, PercentileUnsortedInputAndSingle) {
  EXPECT_DOUBLE_EQ(linalg::percentile({5.0, 1.0, 3.0}, 50.0), 3.0);
  EXPECT_DOUBLE_EQ(linalg::percentile({7.0}, 13.0), 7.0);
}

TEST(Stats, PercentileRangeChecked) {
  EXPECT_THROW((void)linalg::percentile({1.0}, -1.0), std::invalid_argument);
  EXPECT_THROW((void)linalg::percentile({1.0}, 101.0), std::invalid_argument);
}

TEST(Stats, CorrelationPerfectAndInverse) {
  const Vector x{1.0, 2.0, 3.0, 4.0};
  const Vector y{2.0, 4.0, 6.0, 8.0};
  EXPECT_NEAR(support::pearson_correlation(x, y), 1.0, 1e-12);
  const Vector z{8.0, 6.0, 4.0, 2.0};
  EXPECT_NEAR(support::pearson_correlation(x, z), -1.0, 1e-12);
}

TEST(Stats, CorrelationOfConstantIsZero) {
  EXPECT_DOUBLE_EQ(
      support::pearson_correlation({1.0, 1.0, 1.0}, {1.0, 2.0, 3.0}), 0.0);
}

TEST(Stats, CorrelationInvariantToAffineTransform) {
  std::mt19937_64 rng(3);
  std::normal_distribution<double> d(0.0, 1.0);
  Vector x(50), y(50);
  for (std::size_t i = 0; i < 50; ++i) {
    x[i] = d(rng);
    y[i] = 0.7 * x[i] + 0.3 * d(rng);
  }
  const double base = support::pearson_correlation(x, y);
  Vector x2 = x;
  for (double& v : x2) v = 5.0 * v + 100.0;
  EXPECT_NEAR(support::pearson_correlation(x2, y), base, 1e-12);
}

TEST(Stats, CorrelationErrors) {
  EXPECT_THROW((void)support::pearson_correlation({1.0, 2.0}, {1.0}),
               std::invalid_argument);
  EXPECT_THROW((void)support::pearson_correlation({1.0}, {1.0}),
               std::invalid_argument);
}

TEST(Stats, EmpiricalCdfIsMonotoneAndComplete) {
  const auto cdf = linalg::empirical_cdf({3.0, 1.0, 2.0, 2.0});
  ASSERT_EQ(cdf.size(), 4u);
  EXPECT_DOUBLE_EQ(cdf.front().value, 1.0);
  EXPECT_DOUBLE_EQ(cdf.back().value, 3.0);
  EXPECT_DOUBLE_EQ(cdf.back().probability, 1.0);
  for (std::size_t i = 1; i < cdf.size(); ++i) {
    EXPECT_LE(cdf[i - 1].value, cdf[i].value);
    EXPECT_LT(cdf[i - 1].probability, cdf[i].probability);
  }
}

TEST(Stats, CdfAtEvaluates) {
  const auto cdf = linalg::empirical_cdf({1.0, 2.0, 3.0, 4.0});
  EXPECT_DOUBLE_EQ(linalg::cdf_at(cdf, 0.5), 0.0);
  EXPECT_DOUBLE_EQ(linalg::cdf_at(cdf, 2.0), 0.5);
  EXPECT_DOUBLE_EQ(linalg::cdf_at(cdf, 10.0), 1.0);
}

/// Percentile of the empirical CDF and percentile() must agree at the
/// sampled probabilities.
class PercentileProperty : public ::testing::TestWithParam<double> {};

TEST_P(PercentileProperty, ConsistentWithCdf) {
  std::mt19937_64 rng(17);
  std::uniform_real_distribution<double> d(0.0, 10.0);
  Vector x(101);
  for (double& v : x) v = d(rng);
  const double p = GetParam();
  const double q = linalg::percentile(x, p);
  const auto cdf = linalg::empirical_cdf(x);
  // The CDF evaluated at the percentile must bracket p/100.
  EXPECT_GE(linalg::cdf_at(cdf, q) + 1e-9, p / 100.0 - 0.01);
}

INSTANTIATE_TEST_SUITE_P(Probes, PercentileProperty,
                         ::testing::Values(1.0, 10.0, 25.0, 50.0, 75.0, 90.0,
                                           95.0, 99.0));
