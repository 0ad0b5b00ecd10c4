#include "auditherm/selection/evaluation.hpp"

#include <cmath>
#include <stdexcept>

#include "auditherm/linalg/stats.hpp"

namespace auditherm::selection {

linalg::Vector ClusterMeanErrors::pooled() const {
  linalg::Vector all;
  for (const auto& c : per_cluster_abs) {
    all.insert(all.end(), c.begin(), c.end());
  }
  return all;
}

double ClusterMeanErrors::percentile(double p) const {
  auto all = pooled();
  if (all.empty()) {
    throw std::runtime_error("ClusterMeanErrors::percentile: no samples");
  }
  return linalg::percentile(std::move(all), p);
}

ClusterMeanErrors evaluate_cluster_mean_prediction(
    const timeseries::TraceView& validation, const ClusterSets& clusters,
    const Selection& selection) {
  if (selection.per_cluster.size() != clusters.size()) {
    throw std::invalid_argument(
        "evaluate_cluster_mean_prediction: cluster count mismatch");
  }
  ClusterMeanErrors errors;
  errors.per_cluster_abs.resize(clusters.size());
  for (std::size_t c = 0; c < clusters.size(); ++c) {
    if (selection.per_cluster[c].empty()) {
      throw std::invalid_argument(
          "evaluate_cluster_mean_prediction: cluster with no selection");
    }
    const auto target = timeseries::row_mean(validation, clusters[c]);
    const auto predicted =
        timeseries::row_mean(validation, selection.per_cluster[c]);
    for (std::size_t k = 0; k < validation.size(); ++k) {
      if (std::isnan(target[k]) || std::isnan(predicted[k])) continue;
      errors.per_cluster_abs[c].push_back(std::abs(predicted[k] - target[k]));
    }
  }
  return errors;
}

}  // namespace auditherm::selection
