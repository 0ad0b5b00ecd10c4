#include "auditherm/clustering/similarity.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "auditherm/timeseries/trace_stats.hpp"

namespace auditherm::clustering {

namespace {

/// Keep only the symmetrized union of each vertex's k strongest edges.
/// Neighbor ranking sorts by (weight descending, index ascending) — the
/// index tie-break is what makes the sparsified pattern deterministic when
/// several neighbors share a weight (common with perfectly correlated
/// synthetic traces).
void sparsify_knn(linalg::Matrix& weights, std::size_t k) {
  const std::size_t p = weights.rows();
  std::vector<std::vector<bool>> keep(p, std::vector<bool>(p, false));
  std::vector<std::size_t> order;
  for (std::size_t i = 0; i < p; ++i) {
    order.clear();
    for (std::size_t j = 0; j < p; ++j) {
      if (j != i && weights(i, j) > 0.0) order.push_back(j);
    }
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      if (weights(i, a) != weights(i, b)) {
        return weights(i, a) > weights(i, b);
      }
      return a < b;
    });
    for (std::size_t r = 0; r < std::min(k, order.size()); ++r) {
      keep[i][order[r]] = true;
      keep[order[r]][i] = true;
    }
  }
  for (std::size_t i = 0; i < p; ++i) {
    for (std::size_t j = 0; j < p; ++j) {
      if (i != j && !keep[i][j]) weights(i, j) = 0.0;
    }
  }
}

}  // namespace

SimilarityGraph build_similarity_graph(
    const timeseries::TraceView& trace,
    const std::vector<timeseries::ChannelId>& channels,
    const SimilarityOptions& options) {
  if (channels.size() < 2) {
    throw std::invalid_argument("build_similarity_graph: need >= 2 channels");
  }
  const auto sub = trace.select_channels(channels);
  const std::size_t p = channels.size();

  SimilarityGraph graph;
  graph.channels = channels;
  graph.weights = linalg::Matrix(p, p);

  if (options.metric == SimilarityMetric::kEuclidean) {
    const auto dist = timeseries::rms_distance_matrix(sub);
    std::vector<double> pair_dists;
    for (std::size_t i = 0; i < p; ++i) {
      for (std::size_t j = i + 1; j < p; ++j) {
        if (std::isinf(dist(i, j))) {
          throw std::runtime_error(
              "build_similarity_graph: channel pair shares no samples");
        }
        pair_dists.push_back(dist(i, j));
      }
    }
    double sigma = options.sigma;
    if (sigma <= 0.0) {
      // Median heuristic keeps the kernel scale matched to the data.
      std::nth_element(pair_dists.begin(),
                       pair_dists.begin() +
                           static_cast<std::ptrdiff_t>(pair_dists.size() / 2),
                       pair_dists.end());
      sigma = pair_dists[pair_dists.size() / 2];
      if (sigma <= 0.0) sigma = 1.0;  // identical traces: any scale works
    }
    graph.sigma_used = sigma;
    const double two_s2 = 2.0 * sigma * sigma;
    for (std::size_t i = 0; i < p; ++i) {
      for (std::size_t j = i + 1; j < p; ++j) {
        const double w = std::exp(-dist(i, j) * dist(i, j) / two_s2);
        graph.weights(i, j) = w;
        graph.weights(j, i) = w;
      }
    }
  } else {
    const auto corr = timeseries::correlation_matrix(sub);
    for (std::size_t i = 0; i < p; ++i) {
      for (std::size_t j = i + 1; j < p; ++j) {
        // Clamp into [0, 1]: roundoff can push a perfect correlation a few
        // ulps above 1.
        const double w = std::clamp(corr(i, j), 0.0, 1.0);
        graph.weights(i, j) = w;
        graph.weights(j, i) = w;
      }
    }
  }

  if (options.sparsification == GraphSparsification::kKnn) {
    sparsify_knn(graph.weights, options.knn_k);
    return graph;
  }

  // Sparsify: epsilon-graph by absolute threshold and/or weight quantile,
  // with a per-vertex kNN floor so nothing disconnects.
  double cutoff = options.threshold;
  if (options.threshold_quantile > 0.0) {
    std::vector<double> weights;
    weights.reserve(p * (p - 1) / 2);
    for (std::size_t i = 0; i < p; ++i) {
      for (std::size_t j = i + 1; j < p; ++j) {
        weights.push_back(graph.weights(i, j));
      }
    }
    const auto nth = static_cast<std::size_t>(
        options.threshold_quantile * static_cast<double>(weights.size() - 1));
    std::nth_element(weights.begin(),
                     weights.begin() + static_cast<std::ptrdiff_t>(nth),
                     weights.end());
    cutoff = std::max(cutoff, weights[nth]);
  }
  if (cutoff > 0.0) {
    // Protected edges: each vertex's strongest knn_floor links.
    std::vector<std::vector<bool>> keep(p, std::vector<bool>(p, false));
    for (std::size_t i = 0; i < p; ++i) {
      std::vector<std::size_t> order;
      for (std::size_t j = 0; j < p; ++j) {
        if (j != i) order.push_back(j);
      }
      std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
        return graph.weights(i, a) > graph.weights(i, b);
      });
      for (std::size_t r = 0; r < std::min(options.knn_floor, order.size());
           ++r) {
        keep[i][order[r]] = true;
        keep[order[r]][i] = true;
      }
    }
    for (std::size_t i = 0; i < p; ++i) {
      for (std::size_t j = 0; j < p; ++j) {
        if (i != j && !keep[i][j] && graph.weights(i, j) < cutoff) {
          graph.weights(i, j) = 0.0;
        }
      }
    }
  }
  return graph;
}

}  // namespace auditherm::clustering
