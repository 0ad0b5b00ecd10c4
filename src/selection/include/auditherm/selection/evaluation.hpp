#pragma once

/// \file evaluation.hpp
/// Cluster-mean prediction error (Section VI.B, Table II, Figs. 9-10).
///
/// A selection is judged by how well the mean of its chosen sensors tracks
/// the true cluster mean (mean over *all* sensors of the cluster) on
/// validation data; the paper reports the 99th percentile of the absolute
/// error pooled over clusters.

#include <vector>

#include "auditherm/selection/strategies.hpp"
#include "auditherm/timeseries/multi_trace.hpp"

namespace auditherm::selection {

/// Absolute cluster-mean prediction errors.
struct ClusterMeanErrors {
  /// Per cluster: |selected-mean - cluster-mean| samples over valid rows.
  std::vector<linalg::Vector> per_cluster_abs;

  /// All clusters pooled.
  [[nodiscard]] linalg::Vector pooled() const;

  /// Percentile of the pooled absolute error (the paper uses 99).
  /// Throws std::runtime_error when no samples exist.
  [[nodiscard]] double percentile(double p) const;
};

/// Evaluate a selection on validation data.
///
/// For each cluster c, the prediction at row k is the mean of the selected
/// sensors' readings and the target is the mean over all of cluster c's
/// sensors; rows where either side has no valid reading are skipped.
/// Throws std::invalid_argument when the selection's cluster count does
/// not match `clusters`.
[[nodiscard]] ClusterMeanErrors evaluate_cluster_mean_prediction(
    const timeseries::TraceView& validation, const ClusterSets& clusters,
    const Selection& selection);

}  // namespace auditherm::selection
