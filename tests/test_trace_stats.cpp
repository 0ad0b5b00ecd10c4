// Tests for cross-channel trace statistics with gaps.

#include "auditherm/timeseries/trace_stats.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <random>
#include <string>

#include "auditherm/linalg/decompositions.hpp"
#include "auditherm/linalg/stats.hpp"
#include "auditherm/core/parallel.hpp"
#include "support/oracles.hpp"
#include "support/trace_stats_oracle.hpp"

namespace ts = auditherm::timeseries;
namespace core = auditherm::core;
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
  // |x - (-x + 10)| = |2x - 10|: 8 at x = 1, 0 at x = 5. Max is 8.
  const auto diffs = ts::pairwise_max_differences(trace, {1, 3});
  ASSERT_EQ(diffs.size(), 1u);
  EXPECT_DOUBLE_EQ(diffs[0], 8.0);
  EXPECT_THROW((void)ts::pairwise_max_differences(trace, {1, 99}),
               std::invalid_argument);
}

TEST(TraceStats, MaxAbsDifferenceNaNWithoutSharedRows) {
  MultiTrace trace(TimeGrid(0, 1, 2), {1, 2});
  trace.set(0, 0, 1.0);
  trace.set(1, 1, 2.0);
  // A pair that shares no rows has no difference; the pair is skipped.
  EXPECT_TRUE(ts::pairwise_max_differences(trace, {1, 2}).empty());
}

TEST(TraceStats, PairwiseMaxDifferencesCountsPairs) {
  const auto trace = make_trace();
  const auto diffs = ts::pairwise_max_differences(trace, {1, 2, 3});
  EXPECT_EQ(diffs.size(), 3u);  // 3 unordered pairs, all with shared rows
  for (double d : diffs) EXPECT_GE(d, 0.0);
}

namespace {

void expect_bitwise(const linalg::Vector& got, const linalg::Vector& want,
                    const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got[i]),
              std::bit_cast<std::uint64_t>(want[i]))
        << what << "[" << i << "]: " << got[i] << " vs " << want[i];
  }
}

void expect_bitwise(const linalg::Matrix& got, const linalg::Matrix& want,
                    const std::string& what) {
  ASSERT_EQ(got.rows(), want.rows()) << what;
  ASSERT_EQ(got.cols(), want.cols()) << what;
  expect_bitwise(got.data(), want.data(), what);
}

/// A gapped trace of `p` channels over 48 rows: seeded normal samples with
/// about 30% gaps, ±0.0, 1e200 and ±1.7e308 samples (each also on rows
/// where the next channel is a gap), and, from 3 channels up, a constant
/// channel, an all-gap channel, and a pair that shares exactly one row.
MultiTrace extreme_gapped_trace(std::size_t p, std::uint64_t seed) {
  constexpr std::size_t kRows = 48;
  std::mt19937_64 rng(seed);
  std::normal_distribution<double> normal(0.0, 1.0);
  std::uniform_real_distribution<double> coin(0.0, 1.0);
  std::vector<ts::ChannelId> ids(p);
  for (std::size_t c = 0; c < p; ++c) {
    ids[c] = static_cast<ts::ChannelId>(100 + 3 * c);
  }
  MultiTrace trace(TimeGrid(0, 30, kRows), ids);
  const double specials[] = {0.0, -0.0, 1e200, -1e200, 1.7e308, -1.7e308};
  for (std::size_t c = 0; c < p; ++c) {
    const double offset = 20.0 + normal(rng);
    for (std::size_t k = 0; k < kRows; ++k) {
      if (coin(rng) < 0.3) continue;  // gap
      const double u = coin(rng);
      trace.set(k, c, u < 0.1 ? specials[rng() % 6] : offset + normal(rng));
    }
  }
  // An extreme sample on a row where the next channel is a gap: a kernel
  // that masks after squaring (1e200² = inf, inf·0 = NaN) loses the pair.
  for (std::size_t c = 0; c + 1 < p; ++c) {
    const std::size_t k = (5 * c + 1) % kRows;
    trace.set(k, c, specials[2 + c % 4]);
    trace.clear(k, c + 1);
  }
  if (p >= 3) {
    for (std::size_t k = 0; k < kRows; ++k) {
      trace.set(k, p - 1, 21.5);  // constant channel
      trace.clear(k, p - 2);      // all-gap channel
    }
  }
  if (p >= 5) {
    // Channels 0 and 1 share exactly row 7.
    for (std::size_t k = 0; k < kRows; ++k) {
      if (k % 2 == 0) trace.clear(k, 0);
      if (k % 2 == 1 && k != 7) trace.clear(k, 1);
    }
    trace.set(7, 0, 19.25);
    trace.set(7, 1, 22.5);
  }
  return trace;
}

}  // namespace

TEST(TraceStats, PackedKernelMatchesThePerPairWalkBitwise) {
  // 2, 3 and 5 channels leave the last partner block of four partly
  // empty; 37 channels span ten blocks.
  for (const std::size_t p : {2u, 3u, 5u, 37u}) {
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
      const auto trace = extreme_gapped_trace(p, 1000 * p + seed);
      // The same statistics through a row-filtered, reordered view.
      std::vector<bool> keep(trace.size());
      for (std::size_t k = 0; k < keep.size(); ++k) keep[k] = k % 5 != 2;
      auto ids = trace.channels();
      std::reverse(ids.begin(), ids.end());
      const ts::TraceView whole(trace);
      const auto view = whole.select_channels(ids).filter_rows(keep);
      for (const ts::TraceView& t : {whole, view}) {
        for (const std::size_t threads : {1u, 3u}) {
          const core::ThreadCountScope scope(threads);
          const std::string tag = std::to_string(p) + " channels, seed " +
                                  std::to_string(seed) + ", " +
                                  std::to_string(t.size()) + " rows, " +
                                  std::to_string(threads) + " threads: ";
          expect_bitwise(ts::correlation_matrix(t),
                         support::correlation_matrix(t), tag + "correlation");
          expect_bitwise(ts::covariance_matrix(t),
                         support::covariance_matrix(t), tag + "covariance");
          expect_bitwise(ts::rms_distance_matrix(t),
                         support::rms_distance_matrix(t), tag + "rms");
          expect_bitwise(ts::pairwise_max_differences(t, t.channels()),
                         support::pairwise_max_differences(t, t.channels()),
                         tag + "max differences");
        }
      }
    }
  }
}
