#include "support/trace_stats_oracle.hpp"

#include <cmath>
#include <limits>

namespace auditherm::test_support {

using timeseries::TraceView;

PairAccumulator accumulate_pair(const TraceView& trace, std::size_t ca,
                                std::size_t cb) {
  PairAccumulator acc;
  for (std::size_t k = 0; k < trace.size(); ++k) {
    if (trace.valid(k, ca) && trace.valid(k, cb)) {
      acc.add(trace.value(k, ca), trace.value(k, cb));
    }
  }
  return acc;
}

linalg::Matrix correlation_matrix(const TraceView& trace) {
  const std::size_t p = trace.channel_count();
  linalg::Matrix r(p, p);
  for (std::size_t i = 0; i < p; ++i) {
    r(i, i) = 1.0;
    for (std::size_t j = i + 1; j < p; ++j) {
      const double c = accumulate_pair(trace, i, j).correlation();
      r(i, j) = c;
      r(j, i) = c;
    }
  }
  return r;
}

linalg::Matrix covariance_matrix(const TraceView& trace) {
  const std::size_t p = trace.channel_count();
  linalg::Matrix c(p, p);
  for (std::size_t i = 0; i < p; ++i) {
    for (std::size_t j = i; j < p; ++j) {
      const double v = accumulate_pair(trace, i, j).covariance();
      c(i, j) = v;
      c(j, i) = v;
    }
  }
  return c;
}

linalg::Matrix rms_distance_matrix(const TraceView& trace) {
  const std::size_t p = trace.channel_count();
  linalg::Matrix d(p, p);
  for (std::size_t i = 0; i < p; ++i) {
    for (std::size_t j = i + 1; j < p; ++j) {
      const double v = accumulate_pair(trace, i, j).rms_distance();
      d(i, j) = v;
      d(j, i) = v;
    }
  }
  return d;
}

double max_abs_difference(const TraceView& trace, timeseries::ChannelId a,
                          timeseries::ChannelId b) {
  const std::size_t ca = trace.require_channel(a);
  const std::size_t cb = trace.require_channel(b);
  const auto acc = accumulate_pair(trace, ca, cb);
  if (acc.n == 0) return std::numeric_limits<double>::quiet_NaN();
  return acc.max_abs_diff;
}

linalg::Vector pairwise_max_differences(
    const TraceView& trace, const std::vector<timeseries::ChannelId>& ids) {
  linalg::Vector out;
  for (std::size_t i = 0; i < ids.size(); ++i) {
    for (std::size_t j = i + 1; j < ids.size(); ++j) {
      const double d = max_abs_difference(trace, ids[i], ids[j]);
      if (!std::isnan(d)) out.push_back(d);
    }
  }
  return out;
}

}  // namespace auditherm::test_support
