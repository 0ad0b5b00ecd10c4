#include "auditherm/clustering/spectral.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <vector>

#include "auditherm/linalg/decompositions.hpp"

namespace auditherm::clustering {

namespace {
/// Floor for eigenvalues entering the log: the Laplacian's zero mode would
/// otherwise dominate every gap.
constexpr double kLogFloor = 1e-10;
}  // namespace

linalg::Matrix laplacian(const linalg::Matrix& weights) {
  if (weights.rows() != weights.cols()) {
    throw std::invalid_argument("laplacian: weights not square");
  }
  const std::size_t n = weights.rows();
  linalg::Matrix l(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    double degree = 0.0;
    for (std::size_t j = 0; j < n; ++j) {
      if (i == j) continue;
      degree += weights(i, j);
      l(i, j) = -weights(i, j);
    }
    l(i, i) = degree;
  }
  return l;
}

linalg::Vector SpectralAnalysis::log_eigengaps() const {
  if (eigenvalues.size() < 2) return {};
  linalg::Vector gaps(eigenvalues.size() - 1);
  for (std::size_t i = 0; i + 1 < eigenvalues.size(); ++i) {
    const double lo = std::max(eigenvalues[i], kLogFloor);
    const double hi = std::max(eigenvalues[i + 1], kLogFloor);
    gaps[i] = std::log(hi) - std::log(lo);
  }
  return gaps;
}

std::size_t SpectralAnalysis::eigengap_cluster_count() const {
  const auto gaps = log_eigengaps();
  if (gaps.empty()) return 1;
  const std::size_t k_max = std::min(kEigengapMaxK, gaps.size());
  if (kEigengapMinK > k_max) {
    throw std::invalid_argument("eigengap_cluster_count: empty search range");
  }
  // Choosing k means the gap sits between eigenvalue index k-1 and k
  // (0-based): eigenvalues 0..k-1 are the "small" group.
  std::size_t best_k = kEigengapMinK;
  double best_gap = -1.0;
  for (std::size_t k = kEigengapMinK; k <= k_max; ++k) {
    if (gaps[k - 1] > best_gap) {
      best_gap = gaps[k - 1];
      best_k = k;
    }
  }
  return best_k;
}

linalg::CsrMatrix laplacian_csr(const linalg::Matrix& weights,
                                LaplacianKind kind) {
  if (weights.rows() != weights.cols()) {
    throw std::invalid_argument("laplacian_csr: weights not square");
  }
  const std::size_t n = weights.rows();
  std::vector<std::size_t> row_ptr(n + 1, 0);
  std::vector<std::size_t> col_idx;
  std::vector<double> values;

  linalg::Vector inv_sqrt_deg;
  if (kind == LaplacianKind::kSymmetricNormalized) {
    inv_sqrt_deg.assign(n, 0.0);
    for (std::size_t i = 0; i < n; ++i) {
      double degree = 0.0;
      for (std::size_t j = 0; j < n; ++j) {
        if (j != i) degree += weights(i, j);
      }
      inv_sqrt_deg[i] = degree > 0.0 ? 1.0 / std::sqrt(degree) : 0.0;
    }
  }

  for (std::size_t i = 0; i < n; ++i) {
    double degree = 0.0;
    if (kind == LaplacianKind::kUnnormalized) {
      // Same ascending-j accumulation as laplacian(): skipping the zero
      // weights leaves the non-negative sum bitwise unchanged.
      for (std::size_t j = 0; j < n; ++j) {
        if (j != i) degree += weights(i, j);
      }
    }
    for (std::size_t j = 0; j < n; ++j) {
      double v;
      if (i == j) {
        v = kind == LaplacianKind::kUnnormalized ? degree : 1.0;
      } else if (weights(i, j) != 0.0) {
        v = kind == LaplacianKind::kUnnormalized
                ? -weights(i, j)
                : -weights(i, j) * inv_sqrt_deg[i] * inv_sqrt_deg[j];
      } else {
        continue;
      }
      if (v == 0.0) continue;  // isolated-vertex zero diagonal
      col_idx.push_back(j);
      values.push_back(v);
    }
    row_ptr[i + 1] = values.size();
  }
  return linalg::CsrMatrix(n, n, std::move(row_ptr), std::move(col_idx),
                           std::move(values));
}

namespace {

/// Orthonormal basis of the null space of `l`, the CSR Laplacian of
/// `weights`: one vector per connected component of l's off-diagonal
/// pattern (an O(nnz) BFS), in order of each component's lowest vertex,
/// at most `max_vectors` of them. Normalized: D^{1/2} 1_C / ||.|| per
/// component with an edge (an isolated vertex keeps its identity row,
/// eigenvalue 1). Unnormalized: 1_C / sqrt(|C|) per component, isolated
/// vertices included. Empty unless the weights are finite and
/// non-negative — only then are these vectors the null space.
std::vector<linalg::Vector> laplacian_null_basis(const linalg::Matrix& weights,
                                                 const linalg::CsrMatrix& l,
                                                 LaplacianKind kind,
                                                 std::size_t max_vectors) {
  for (const double w : weights.data()) {
    if (!std::isfinite(w) || w < 0.0) return {};
  }
  const bool normalized = kind == LaplacianKind::kSymmetricNormalized;
  const std::size_t n = l.rows();
  const auto& row_ptr = l.row_ptr();
  const auto& col_idx = l.col_idx();
  std::vector<linalg::Vector> basis;
  std::vector<bool> seen(n, false);
  std::vector<std::size_t> members;
  for (std::size_t start = 0; start < n && basis.size() < max_vectors;
       ++start) {
    if (seen[start]) continue;
    seen[start] = true;
    members.assign(1, start);
    for (std::size_t head = 0; head < members.size(); ++head) {
      const std::size_t v = members[head];
      for (std::size_t p = row_ptr[v]; p < row_ptr[v + 1]; ++p) {
        const std::size_t u = col_idx[p];
        if (!seen[u]) {
          seen[u] = true;
          members.push_back(u);
        }
      }
    }
    if (normalized && members.size() == 1) continue;
    // Entry mass: the vertex degree (normalized) or 1 (unnormalized).
    linalg::Vector x(n, 0.0);
    double total = 0.0;
    for (const std::size_t v : members) {
      double mass = 1.0;
      if (normalized) {
        mass = 0.0;
        for (std::size_t p = row_ptr[v]; p < row_ptr[v + 1]; ++p) {
          if (col_idx[p] != v) mass += weights(v, col_idx[p]);
        }
      }
      x[v] = std::sqrt(mass);
      total += mass;
    }
    const double scale = 1.0 / std::sqrt(total);
    for (const std::size_t v : members) x[v] *= scale;
    basis.push_back(std::move(x));
  }
  return basis;
}

}  // namespace

linalg::Matrix normalized_laplacian(const linalg::Matrix& weights) {
  if (weights.rows() != weights.cols()) {
    throw std::invalid_argument("normalized_laplacian: weights not square");
  }
  const std::size_t n = weights.rows();
  linalg::Vector inv_sqrt_deg(n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    double degree = 0.0;
    for (std::size_t j = 0; j < n; ++j) {
      if (j != i) degree += weights(i, j);
    }
    inv_sqrt_deg[i] = degree > 0.0 ? 1.0 / std::sqrt(degree) : 0.0;
  }
  linalg::Matrix l = linalg::Matrix::identity(n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      if (i != j) {
        l(i, j) = -weights(i, j) * inv_sqrt_deg[i] * inv_sqrt_deg[j];
      }
    }
  }
  return l;
}

SpectralAnalysis analyze_spectrum(const linalg::Matrix& weights,
                                  LaplacianKind kind, std::size_t max_pairs) {
  const std::size_t n = weights.rows();
  const bool partial = max_pairs > 0 && max_pairs < n;
  linalg::SymmetricEigen eig;
  if (partial && n >= linalg::kEigenSparseThreshold) {
    // Sparse path: compress the Laplacian to CSR (never forming the dense
    // operator), lock its null space from the graph's components, and pull
    // only the remaining smallest pairs out of the Lanczos iteration.
    const auto l = laplacian_csr(weights, kind);
    eig = linalg::eigen_symmetric_smallest_sparse(
        l, max_pairs, laplacian_null_basis(weights, l, kind, max_pairs));
  } else {
    // Dense path: the partial solver, asked for every pair (m == n) when
    // the request is the full spectrum.
    const auto l = kind == LaplacianKind::kUnnormalized
                       ? laplacian(weights)
                       : normalized_laplacian(weights);
    if (n > 0) {
      eig = linalg::eigen_symmetric_smallest(l, partial ? max_pairs : n);
    }
  }
  SpectralAnalysis a;
  a.eigenvalues = std::move(eig.eigenvalues);
  a.eigenvectors = std::move(eig.eigenvectors);
  return a;
}

std::size_t needed_eigenpairs(const SpectralOptions& options, std::size_t n) {
  // The embedding uses cluster_count columns (when fixed); the eigengap
  // scan inspects gaps up to index kEigengapMaxK - 1, i.e. eigenvalue
  // kEigengapMaxK — one past it is enough for either consumer.
  return std::min(n, std::max(options.cluster_count, kEigengapMaxK + 1));
}

std::vector<std::vector<timeseries::ChannelId>> ClusteringResult::clusters()
    const {
  if (labels.size() != channels.size()) {
    throw std::out_of_range(
        "ClusteringResult::clusters: " + std::to_string(labels.size()) +
        " labels for " + std::to_string(channels.size()) + " channels");
  }
  std::vector<std::vector<timeseries::ChannelId>> out(cluster_count);
  for (std::size_t i = 0; i < channels.size(); ++i) {
    if (labels[i] >= cluster_count) {
      throw std::out_of_range(
          "ClusteringResult::clusters: label " + std::to_string(labels[i]) +
          " at index " + std::to_string(i) + " >= cluster_count " +
          std::to_string(cluster_count));
    }
    out[labels[i]].push_back(channels[i]);
  }
  return out;
}

std::size_t ClusteringResult::cluster_of(timeseries::ChannelId id) const {
  for (std::size_t i = 0; i < channels.size(); ++i) {
    if (channels[i] == id) return labels[i];
  }
  throw std::invalid_argument("ClusteringResult::cluster_of: unknown channel");
}

ClusteringResult spectral_cluster(const SimilarityGraph& graph,
                                  const SpectralOptions& options) {
  return spectral_cluster(
      graph,
      analyze_spectrum(graph.weights, options.laplacian,
                       needed_eigenpairs(options, graph.channels.size())),
      options);
}

ClusteringResult spectral_cluster(const SimilarityGraph& graph,
                                  const SpectralAnalysis& analysis,
                                  const SpectralOptions& options) {
  const std::size_t n = graph.channels.size();
  if (options.cluster_count > n) {
    throw std::invalid_argument("spectral_cluster: cluster_count > vertices");
  }
  // Accept a full (n-pair) or partial (m-pair) analysis; the embedding
  // only reads the small end of the spectrum.
  const std::size_t pairs = analysis.eigenvalues.size();
  if (pairs == 0 || pairs > n || analysis.eigenvectors.rows() != n ||
      analysis.eigenvectors.cols() != pairs) {
    throw std::invalid_argument(
        "spectral_cluster: analysis dimensions do not match the graph");
  }

  const std::size_t k = options.cluster_count != 0
                            ? options.cluster_count
                            : analysis.eigengap_cluster_count();
  if (k > pairs) {
    throw std::invalid_argument(
        "spectral_cluster: analysis holds " + std::to_string(pairs) +
        " eigenpairs but k = " + std::to_string(k) + " are needed");
  }

  // Spectral embedding: rows of the k eigenvectors of smallest eigenvalue.
  linalg::Matrix embedding(n, k);
  for (std::size_t j = 0; j < k; ++j) {
    embedding.set_col(j, analysis.eigenvectors.col_vector(j));
  }
  if (options.normalize_rows) {
    for (std::size_t i = 0; i < n; ++i) {
      double norm = 0.0;
      for (std::size_t j = 0; j < k; ++j) {
        norm += embedding(i, j) * embedding(i, j);
      }
      norm = std::sqrt(norm);
      if (norm > 0.0) {
        for (std::size_t j = 0; j < k; ++j) embedding(i, j) /= norm;
      }
    }
  }
  const auto km = kmeans(embedding, k);

  ClusteringResult result;
  result.channels = graph.channels;
  result.labels = km.labels;
  result.cluster_count = k;
  result.eigenvalues = analysis.eigenvalues;
  return result;
}

}  // namespace auditherm::clustering
