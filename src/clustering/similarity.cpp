#include "auditherm/clustering/similarity.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "auditherm/timeseries/trace_stats.hpp"

namespace auditherm::clustering {

namespace {

/// Flat p×p mask (row-major) of each vertex's `k` strongest edges,
/// union-symmetrized. A row ranks its neighbors j != i of positive weight by
/// (weight descending, index ascending) — a strict total order, so the kept
/// set does not depend on the ranking algorithm, and ties (common with
/// perfectly correlated synthetic traces) go to the lower index.
std::vector<unsigned char> strongest_edges(const linalg::Matrix& weights,
                                           std::size_t k) {
  const std::size_t p = weights.rows();
  std::vector<unsigned char> keep(p * p, 0);
  std::vector<std::size_t> order;
  order.reserve(p);
  for (std::size_t i = 0; i < p; ++i) {
    order.clear();
    for (std::size_t j = 0; j < p; ++j) {
      if (j != i && weights(i, j) > 0.0) order.push_back(j);
    }
    const auto top =
        order.begin() + static_cast<std::ptrdiff_t>(std::min(k, order.size()));
    std::partial_sort(order.begin(), top, order.end(),
                      [&](std::size_t a, std::size_t b) {
                        if (weights(i, a) != weights(i, b)) {
                          return weights(i, a) > weights(i, b);
                        }
                        return a < b;
                      });
    for (auto it = order.begin(); it != top; ++it) {
      keep[i * p + *it] = 1;
      keep[*it * p + i] = 1;
    }
  }
  return keep;
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

  // Both metrics turn the kernel's matrix into weights in place.
  if (options.metric == SimilarityMetric::kEuclidean) {
    graph.weights = timeseries::rms_distance_matrix(sub);
    auto& w = graph.weights;
    std::vector<double> pair_dists;
    pair_dists.reserve(p * (p - 1) / 2);
    for (std::size_t i = 0; i < p; ++i) {
      for (std::size_t j = i + 1; j < p; ++j) {
        if (std::isinf(w(i, j))) {
          throw std::runtime_error(
              "build_similarity_graph: channel pair shares no samples");
        }
        pair_dists.push_back(w(i, j));
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
        const double d = w(i, j);
        const double v = std::exp(-d * d / two_s2);
        w(i, j) = v;
        w(j, i) = v;
      }
    }
  } else {
    graph.weights = timeseries::correlation_matrix(sub);
    // Clamp into [0, 1]: roundoff can push a perfect correlation a few ulps
    // above 1. The matrix is exactly symmetric, so clamping every entry
    // clamps each pair once per side.
    for (double& v : graph.weights.data()) v = std::clamp(v, 0.0, 1.0);
    for (std::size_t i = 0; i < p; ++i) graph.weights(i, i) = 0.0;
  }
  auto& entries = graph.weights.data();

  if (options.sparsification == GraphSparsification::kKnn) {
    const auto keep = strongest_edges(graph.weights, options.knn_k);
    for (std::size_t e = 0; e < entries.size(); ++e) {
      entries[e] = keep[e] == 0 ? 0.0 : entries[e];
    }
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
    const auto keep = strongest_edges(graph.weights, options.knn_floor);
    for (std::size_t e = 0; e < entries.size(); ++e) {
      entries[e] = keep[e] == 0 && entries[e] < cutoff ? 0.0 : entries[e];
    }
  }
  return graph;
}

}  // namespace auditherm::clustering
