#pragma once

/// \file similarity.hpp
/// Similarity graphs over sensors (Section V.A).
///
/// Each sensor is a vertex; edge weights encode similarity of the
/// temperature traces. The paper compares two metrics: a Gaussian kernel
/// of the Euclidean distance between traces, and the Pearson correlation.

#include <vector>

#include "auditherm/linalg/matrix.hpp"
#include "auditherm/timeseries/multi_trace.hpp"

namespace auditherm::clustering {

/// Which similarity metric builds the edge weights.
enum class SimilarityMetric {
  kEuclidean,    ///< w_ij = exp(-d_ij^2 / (2 sigma^2)), d = RMS trace distance
  kCorrelation,  ///< w_ij = max(0, corr_ij)
};

/// How the dense weight matrix is sparsified into the graph.
enum class GraphSparsification {
  /// Epsilon graph: drop edges below an absolute/quantile weight cutoff,
  /// with a per-vertex kNN floor so nothing disconnects. The paper's
  /// construction; default.
  kEpsilon,
  /// k-NN graph: keep the symmetrized union of each vertex's `knn_k`
  /// strongest edges (ties broken by lower neighbor index) and drop the
  /// rest. Edge count is O(n k), which is what keeps campus-scale
  /// Laplacians sparse enough for the CSR + Lanczos path.
  kKnn,
};

/// Graph construction options.
struct SimilarityOptions {
  SimilarityMetric metric = SimilarityMetric::kCorrelation;
  /// Kernel bandwidth for the Euclidean metric; <= 0 selects the median
  /// pairwise distance (self-tuning heuristic).
  double sigma = 0.0;
  /// Which sparsifier shapes the graph; kEpsilon keeps the paper's
  /// historical (bitwise-pinned) construction.
  GraphSparsification sparsification = GraphSparsification::kEpsilon;
  /// Edges with weight below this are removed (epsilon-graph sparsifier,
  /// absolute weight units).
  double threshold = 0.0;
  /// Quantile-based epsilon-graph: drop edges below this quantile of all
  /// edge weights (0 disables). The paper builds its similarity graph
  /// this way ("there is an edge ... if the similarity between two
  /// vertices is higher than a given threshold"); without sparsification
  /// a room full of strongly co-moving sensors yields a near-complete
  /// graph whose cuts are dominated by single low-degree vertices.
  double threshold_quantile = 0.6;
  /// Regardless of thresholds, keep each vertex's strongest `knn_floor`
  /// edges so no sensor is disconnected from the graph (epsilon mode; ties
  /// broken by lower neighbor index, as in kKnn).
  std::size_t knn_floor = 3;
  /// Neighbors kept per vertex in kKnn mode (before symmetrization).
  std::size_t knn_k = 8;
};

/// Weighted undirected similarity graph over sensor channels.
struct SimilarityGraph {
  std::vector<timeseries::ChannelId> channels;
  linalg::Matrix weights;  ///< symmetric, zero diagonal, entries in [0, 1]
  double sigma_used = 0.0; ///< resolved bandwidth (Euclidean metric only)
};

/// ADL hook for the stage cache's byte accounting (core/stage_cache.hpp).
[[nodiscard]] inline std::size_t cache_footprint(
    const SimilarityGraph& g) noexcept {
  return sizeof(SimilarityGraph) +
         g.channels.capacity() * sizeof(timeseries::ChannelId) +
         g.weights.data().capacity() * sizeof(double);
}

/// Build the similarity graph for `channels` from their traces.
///
/// Distances/correlations use pairwise-complete samples (gaps skipped).
/// Throws std::invalid_argument when fewer than 2 channels are given or a
/// channel is missing from the trace, std::runtime_error when some pair
/// shares no valid samples (no similarity is defined).
[[nodiscard]] SimilarityGraph build_similarity_graph(
    const timeseries::TraceView& trace,
    const std::vector<timeseries::ChannelId>& channels,
    const SimilarityOptions& options = {});

}  // namespace auditherm::clustering
