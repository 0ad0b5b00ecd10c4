#pragma once

/// \file trace_stats.hpp
/// Cross-channel statistics on gapped traces: correlation matrices (the
/// paper's Fig. 7/8 correlation maps and the correlation similarity graph),
/// pairwise distances, channel means, and pairwise max temperature
/// differences (Fig. 7/8 CDF metric).
///
/// The four pairwise statistics share one kernel: the channels are packed
/// once into a panel (gaps as 0.0 plus a 0/1 mask) and each channel runs
/// against four partners per pass, summing only what its statistic needs.
/// Every pair still sums its shared rows in ascending order, so for finite
/// samples the results are bitwise those of a per-pair walk over the shared
/// rows, at any thread count.

#include <vector>

#include "auditherm/linalg/matrix.hpp"
#include "auditherm/timeseries/multi_trace.hpp"

namespace auditherm::timeseries {

/// Pearson correlation matrix between all channel pairs, computed over
/// rows where *both* channels are valid (pairwise-complete). Entries with
/// fewer than 2 shared samples, or with a constant series, are 0; the
/// diagonal is 1. Result is channel_count x channel_count, ordered as
/// trace.channels().
[[nodiscard]] linalg::Matrix correlation_matrix(const TraceView& trace);

/// Sample covariance matrix between all channel pairs over pairwise-
/// complete rows; entries with fewer than 2 shared samples are 0.
/// The Gaussian-process sensor-placement baseline consumes this.
[[nodiscard]] linalg::Matrix covariance_matrix(const TraceView& trace);

/// Pairwise Euclidean distance between channel series over rows where both
/// are valid, normalized by sqrt(#shared rows) so sparsely and densely
/// covered pairs are comparable ("RMS distance"). Pairs with no shared
/// rows get +inf.
[[nodiscard]] linalg::Matrix rms_distance_matrix(const TraceView& trace);

/// Per-channel mean over valid samples; NaN for channels with no samples.
[[nodiscard]] linalg::Vector channel_means(const TraceView& trace);

/// For each unordered pair of `ids` (i < j in the given order), the max
/// over shared-valid rows of |x_i(k) - x_j(k)|: the paper's intra-cluster
/// "maximum temperature difference" metric, the sample whose CDF it plots
/// per cluster. Pairs that share no rows are skipped. Throws
/// std::invalid_argument when an id is not a channel of the view.
[[nodiscard]] linalg::Vector pairwise_max_differences(
    const TraceView& trace, const std::vector<ChannelId>& ids);

}  // namespace auditherm::timeseries
