#pragma once

/// \file trace_stats_oracle.hpp
/// The per-pair row walk the pairwise trace statistics used before the
/// packed kernel, kept as the reference that timeseries::correlation_matrix,
/// covariance_matrix, rms_distance_matrix and pairwise_max_differences are
/// checked against bit for bit. Each pair reads every row through the
/// view's channel map, skips rows where either channel is a gap, and sums
/// all seven statistics whatever is asked. Serial; not linked into any
/// production binary.

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <limits>
#include <vector>

#include "auditherm/linalg/matrix.hpp"
#include "auditherm/timeseries/trace_view.hpp"

namespace auditherm::test_support {

/// Accumulate shared-valid samples of channel columns a and b.
struct PairAccumulator {
  std::size_t n = 0;
  double sum_a = 0.0, sum_b = 0.0;
  double sum_aa = 0.0, sum_bb = 0.0, sum_ab = 0.0;
  double sum_d2 = 0.0;
  double max_abs_diff = 0.0;

  void add(double a, double b) noexcept {
    ++n;
    sum_a += a;
    sum_b += b;
    sum_aa += a * a;
    sum_bb += b * b;
    sum_ab += a * b;
    const double d = a - b;
    sum_d2 += d * d;
    max_abs_diff = std::max(max_abs_diff, std::abs(d));
  }

  [[nodiscard]] double correlation() const noexcept {
    if (n < 2) return 0.0;
    const double nn = static_cast<double>(n);
    const double cov = sum_ab - sum_a * sum_b / nn;
    const double va = sum_aa - sum_a * sum_a / nn;
    const double vb = sum_bb - sum_b * sum_b / nn;
    if (va <= 0.0 || vb <= 0.0) return 0.0;
    return cov / std::sqrt(va * vb);
  }

  [[nodiscard]] double covariance() const noexcept {
    if (n < 2) return 0.0;
    const double nn = static_cast<double>(n);
    return (sum_ab - sum_a * sum_b / nn) / (nn - 1.0);
  }

  [[nodiscard]] double rms_distance() const noexcept {
    if (n == 0) return std::numeric_limits<double>::infinity();
    return std::sqrt(sum_d2 / static_cast<double>(n));
  }
};

/// The pair's accumulator over every view row where both columns hold a
/// sample, in ascending row order.
[[nodiscard]] PairAccumulator accumulate_pair(
    const timeseries::TraceView& trace, std::size_t ca, std::size_t cb);

/// Reference for timeseries::correlation_matrix.
[[nodiscard]] linalg::Matrix correlation_matrix(
    const timeseries::TraceView& trace);

/// Reference for timeseries::covariance_matrix.
[[nodiscard]] linalg::Matrix covariance_matrix(
    const timeseries::TraceView& trace);

/// Reference for timeseries::rms_distance_matrix.
[[nodiscard]] linalg::Matrix rms_distance_matrix(
    const timeseries::TraceView& trace);

/// Max over shared-valid rows of |x_a(k) - x_b(k)|; NaN when the pair
/// shares no rows. Throws std::invalid_argument when a channel is absent.
[[nodiscard]] double max_abs_difference(const timeseries::TraceView& trace,
                                        timeseries::ChannelId a,
                                        timeseries::ChannelId b);

/// Reference for timeseries::pairwise_max_differences.
[[nodiscard]] linalg::Vector pairwise_max_differences(
    const timeseries::TraceView& trace,
    const std::vector<timeseries::ChannelId>& ids);

}  // namespace auditherm::test_support
